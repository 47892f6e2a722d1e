package fsrun

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	casremote "firemarshal/internal/cas/remote"
	"firemarshal/internal/core"
	"firemarshal/internal/install"
	"firemarshal/internal/launcher"
	lremote "firemarshal/internal/launcher/remote"
	"firemarshal/internal/sim/rtlsim"
)

// jobOutcome is everything a front end reports for one job: the numbers
// and the run directory's full contents.
type jobOutcome struct {
	Exit   int64
	Cycles uint64
	Tree   map[string]string // relative path -> bytes
}

func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	tree := map[string]string{}
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(p)
		rel, _ := filepath.Rel(dir, p)
		tree[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestFrontEndsEquivalent runs one workload through all four front ends —
// local `launch`, fleet `launch`, local `firesim`, fleet `firesim` — and
// demands, per simulator, identical run-directory trees (bytes), exit
// codes and cycles: where a job runs is an execution detail. Across
// simulators the extracted outputs (everything but the timestamped console)
// must agree too — the paper's same-artifacts-at-every-level promise.
func TestFrontEndsEquivalent(t *testing.T) {
	wlDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(wlDir, "w.json"), []byte(`{
  "name": "w", "base": "br-base", "outputs": ["/output", "/etc/hostname"],
  "jobs": [
    {"name": "a", "command": "echo job-a > /output/r.txt; echo deep > /output/sub/d.txt"},
    {"name": "b", "command": "echo job-b > /output/r.txt"}
  ]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := core.New(t.TempDir(), wlDir)
	if err != nil {
		t.Fatal(err)
	}
	cacheURL, addrs, _, _ := startRTLFleet(t, 2, nil)
	m.RemoteCache = cacheURL

	launch := func(opts core.LaunchOpts) map[string]jobOutcome {
		t.Helper()
		runs, err := m.Launch("w", opts)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]jobOutcome{}
		for _, r := range runs {
			got[r.Target] = jobOutcome{r.ExitCode, r.Cycles, readTree(t, r.OutputDir)}
		}
		return got
	}
	localLaunch := launch(core.LaunchOpts{})
	fleetLaunch := launch(core.LaunchOpts{Workers: addrs, WorkerPoll: 5 * time.Millisecond})

	dir, err := m.Install("w", core.InstallOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := install.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	firesim := func(opts Options) map[string]jobOutcome {
		t.Helper()
		opts.RTL, opts.OutputDir = rtlsim.DefaultConfig(), t.TempDir()
		res, err := Run(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]jobOutcome{}
		for _, j := range res.Jobs {
			got[j.Name] = jobOutcome{j.ExitCode, j.Cycles, readTree(t, j.OutputDir)}
		}
		return got
	}
	localSim := firesim(Options{})
	fleetSim := firesim(Options{Workers: addrs, RemoteCache: cacheURL, WorkerPoll: 5 * time.Millisecond})

	if len(localLaunch) != 2 || len(localLaunch["w-a"].Tree) != 4 {
		t.Fatalf("local launch produced %+v, want 2 jobs with uartlog + 3 outputs for w-a", localLaunch)
	}
	if !reflect.DeepEqual(localLaunch, fleetLaunch) {
		t.Errorf("launch: local and fleet differ\nlocal: %+v\nfleet: %+v", localLaunch, fleetLaunch)
	}
	if !reflect.DeepEqual(localSim, fleetSim) {
		t.Errorf("firesim: local and fleet differ\nlocal: %+v\nfleet: %+v", localSim, fleetSim)
	}
	for name, fn := range localLaunch {
		rtl := localSim[name]
		delete(fn.Tree, "uartlog")
		delete(rtl.Tree, "uartlog")
		if fn.Exit != rtl.Exit || !reflect.DeepEqual(fn.Tree, rtl.Tree) {
			t.Errorf("%s: functional and cycle-exact outputs differ\nfunctional: %+v\ncycle-exact: %+v", name, fn, rtl)
		}
	}
}

// injectedFaults fails job attempts by name: every attempt of a "-broken"
// job and the first of a "-flaky" one, with an error naming the attempt.
type injectedFaults struct {
	mu       sync.Mutex
	attempts map[string]int
}

func (f *injectedFaults) attempt(job string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attempts[job]++
	n := f.attempts[job]
	if strings.HasSuffix(job, "-broken") || strings.HasSuffix(job, "-flaky") && n == 1 {
		return fmt.Errorf("injected transient fault, attempt %d", n)
	}
	return nil
}

// TestFleetAttemptPolicyMatchesLocal: a job is attempted the same way in the
// local pool and on a worker fleet. Under Retries: 1 a job whose first
// attempt fails transiently succeeds on its second, one that always fails
// stops after two, one whose post-run hook fails once succeeds on its
// second, and a sound one runs once; the two manifests agree on every field
// but the wall-clock ones. The fault is injected where each dispatcher
// begins an attempt: a local attempt's Attach, a worker's runner. The hook
// runs where the job's files land: inside a local attempt, in the
// coordinator's landing of a fleet one.
func TestFleetAttemptPolicyMatchesLocal(t *testing.T) {
	cfg, _ := buildInstalled(t, `{"name": "w", "base": "br-base", "jobs": [
    {"name": "sound", "command": "echo sound"},
    {"name": "flaky", "command": "echo flaky"},
    {"name": "broken", "command": "echo broken"},
    {"name": "hooked", "command": "echo hooked"}]}`, nil)

	// drive runs every node of cfg under run's policy and returns the
	// manifest without its wall-clock fields. Non-nil faults are injected
	// into each local attempt; the hooked job's first post-run hook fails.
	drive := func(run lremote.Run, faults *injectedFaults) []launcher.Record {
		t.Helper()
		dir := t.TempDir()
		run.ManifestPath = filepath.Join(dir, "manifest.jsonl")
		for _, job := range cfg.Jobs {
			j := nodeJob(job, nil, Options{RTL: rtlsim.DefaultConfig(), OutputDir: dir})
			if attach := j.Attach; faults != nil {
				j.Attach = func(x *lremote.Exec) (func(), error) {
					if err := faults.attempt(j.Name); err != nil {
						return nil, err
					}
					return attach(x)
				}
			}
			if j.Name == "w-hooked" {
				hooks := 0
				j.Post = func() error {
					if hooks++; hooks == 1 {
						return errors.New("injected post-run hook fault")
					}
					return nil
				}
			}
			run.Jobs = append(run.Jobs, j)
		}
		if _, _, err := lremote.Drive(context.Background(), run); err == nil {
			t.Fatal("a drive with an always-failing job succeeded")
		}
		recs, _, err := launcher.ReadManifest(run.ManifestPath)
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			recs[i].WallMS, recs[i].SimMIPS = 0, 0
		}
		return recs
	}

	local := drive(lremote.Run{Retries: 1, Slots: len(cfg.Jobs)}, &injectedFaults{attempts: map[string]int{}})

	fleetFaults := &injectedFaults{attempts: map[string]int{}}
	cacheURL, addrs, _, _ := startRTLFleet(t, 2, func(inner lremote.Runner) lremote.Runner {
		return lremote.RunnerFunc(func(ctx context.Context, spec lremote.JobSpec, emit func(lremote.Event)) (*lremote.RunOutput, error) {
			if err := fleetFaults.attempt(spec.Name); err != nil {
				return nil, err
			}
			return inner.Run(ctx, spec, emit)
		})
	})
	fleet := drive(lremote.Run{
		Retries: 1,
		Fleet:   lremote.CoordOptions{Workers: addrs, Poll: 5 * time.Millisecond},
		Remote:  casremote.NewClient(cacheURL, 0),
	}, nil)

	want := map[string]launcher.Record{
		"w-sound":  {Status: launcher.StatusOK, Attempts: 1},
		"w-flaky":  {Status: launcher.StatusOK, Attempts: 2},
		"w-broken": {Status: launcher.StatusFailed, Attempts: 2, Error: "injected transient fault, attempt 2"},
		"w-hooked": {Status: launcher.StatusOK, Attempts: 2},
	}
	if len(local) != len(want) {
		t.Fatalf("local manifest = %+v, want %d jobs", local, len(want))
	}
	for _, rec := range local {
		w := want[rec.Job]
		if rec.Status != w.Status || rec.Attempts != w.Attempts || rec.Error != w.Error {
			t.Errorf("local %s = %+v, want status %s, %d attempt(s), error %q", rec.Job, rec, w.Status, w.Attempts, w.Error)
		}
	}
	if !reflect.DeepEqual(local, fleet) {
		t.Errorf("local and fleet manifests differ\nlocal: %+v\nfleet: %+v", local, fleet)
	}
}
