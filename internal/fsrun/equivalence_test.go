package fsrun

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"firemarshal/internal/core"
	"firemarshal/internal/install"
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
	cacheURL, addrs, _, _ := startRTLFleet(t, 2)
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
	cfg.Topology = "no_net" // independent nodes: a fabric pins them to this host
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
