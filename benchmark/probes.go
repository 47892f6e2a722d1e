package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"firemarshal"
	"firemarshal/internal/cas"
	casremote "firemarshal/internal/cas/remote"
	"firemarshal/internal/checkpoint"
	"firemarshal/internal/hostutil"
	"firemarshal/internal/isa"
	"firemarshal/internal/launcher"
	"firemarshal/internal/sim"
	"firemarshal/internal/sim/approxsim"
	"firemarshal/internal/sim/rtlsim"
)

// tiers are the five simulator tiers of the matrix, fastest first.
var tiers = []string{"traced", "fast", "reference", "approx", "rtl"}

// probes are the single-layer measurements of the traced run: each calls
// one layer's public functions directly, so a layer's number does not
// depend on which workload's traced run it rides along with.
type probes struct {
	sz   sizes
	seed int64
	dir  string
	o    *outcome
}

// runProbes measures every layer in turn under dir.
func runProbes(sz sizes, seed int64, dir string) *outcome {
	p := &probes{sz: sz, seed: seed, dir: dir, o: newOutcome()}
	for _, step := range []struct {
		name string
		fn   func() error
	}{
		{"sim matrix", p.matrix},
		{"rtlsim.New", p.rtlsimNew},
		{"boot job", p.bootJob},
		{"spec load", p.specLoad},
		{"cas", p.cas},
		{"cas remote", p.casRemote},
		{"launcher dispatch", p.dispatch},
		{"checkpoint", p.checkpoint},
	} {
		p.o.call("probe "+step.name, step.fn())
	}
	return p.o
}

// bareMachine builds a machine the way the simulator platforms do, with
// the program loaded: everything short of running it.
func bareMachine(exe *isa.Executable) *sim.Machine {
	m := sim.NewMachine()
	m.Console = io.Discard
	m.Devices = []sim.Device{&sim.UART{}}
	m.SyscallFn = sim.BareSyscalls()
	m.MaxInstrs = 500_000_000
	m.LoadExecutable(exe, sim.DefaultStackTop)
	return m
}

// execTier runs the program once on one tier and returns what it retired,
// its cycle count and the host time of the execution alone: machines and
// platforms are constructed before the clock starts.
func execTier(tier string, exe *isa.Executable) (instrs, cycles uint64, host time.Duration, err error) {
	var exit int64
	switch tier {
	case "traced", "fast", "reference":
		m := bareMachine(exe)
		m.TraceOff = tier == "fast"
		run := sim.RunFunctional
		if tier == "reference" {
			run = sim.RunReference
		}
		t0 := time.Now()
		instrs, err = run(m)
		host = time.Since(t0)
		cycles, exit = m.Now, m.ExitCode
	case "approx", "rtl":
		var plat sim.Platform = approxsim.New(approxsim.DefaultConfig())
		if tier == "rtl" {
			if plat, err = rtlsim.New(rtlsim.DefaultConfig()); err != nil {
				return 0, 0, 0, err
			}
		}
		t0 := time.Now()
		var res *sim.ExecResult
		res, err = plat.Exec(exe, io.Discard)
		host = time.Since(t0)
		if err == nil {
			instrs, cycles, exit = res.Instrs, res.Cycles, res.Exit
		}
	}
	if err == nil && exit != 0 {
		err = fmt.Errorf("exit code %d", exit)
	}
	return instrs, cycles, host, err
}

// matrix is the like-for-like tier x shape table: every tier executes the
// identical program, and the retired-instruction counts must agree.
func (p *probes) matrix() error {
	for _, shape := range programs[:numShapes] {
		exe, err := shape.assemble(p.sz.matrixInstrs, p.seed)
		if err != nil {
			return err
		}
		var want uint64
		equal := true
		for _, tier := range tiers {
			var mips []float64
			for i := 0; i < p.sz.matrixRepeats; i++ {
				instrs, cycles, host, err := execTier(tier, exe)
				if err != nil {
					return fmt.Errorf("%s on %s: %w", shape.name, tier, err)
				}
				mips = append(mips, float64(instrs)/host.Seconds()/1e6)
				if tier == tiers[0] {
					want = instrs
				}
				equal = equal && instrs == want
				if tier == "rtl" {
					p.exact("rtlsim.cycles."+shape.name, cycles)
				}
			}
			p.o.layer["sim."+tier+"."+shape.name+".mips"] = median(mips)
		}
		p.exact("sim.instrs."+shape.name, want)
		p.o.invariant("matrix."+shape.name+".instrs_equal_across_tiers", equal)
	}
	return nil
}

// exact records a count that is both a per-layer metric and a pinned fact.
func (p *probes) exact(name string, v uint64) {
	p.o.layer[name] = float64(v)
	p.o.facts[name] = fmt.Sprint(v)
}

// rtlsimNew times predictor and cache allocation on its own, so it is
// never hidden inside a simulation loop.
func (p *probes) rtlsimNew() error {
	var ms []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := rtlsim.New(rtlsim.DefaultConfig()); err != nil {
			return err
		}
		ms = append(ms, millis(time.Since(t0)))
	}
	p.o.layer["rtlsim.new_ms"] = median(ms)
	return nil
}

// bootJob times one trivial `echo` job through Marshal.Launch on built
// artifacts: the fixed per-job cost of boot, shell and output extraction.
func (p *probes) bootJob() error {
	wl := filepath.Join(p.dir, "boot-wl")
	spec := `{"name":"boot","base":"br-base","command":"echo boot > /output/r.txt","outputs":["/output"]}`
	if err := writeFile(filepath.Join(wl, "boot.json"), []byte(spec), 0o644); err != nil {
		return err
	}
	m, err := firemarshal.New(filepath.Join(p.dir, "boot-work"), wl)
	if err != nil {
		return err
	}
	if _, err := m.Build("boot", firemarshal.BuildOpts{}); err != nil {
		return err
	}
	var ms []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := m.Launch("boot", firemarshal.LaunchOpts{Jobs: 1}); err != nil {
			return err
		}
		ms = append(ms, millis(time.Since(t0)))
	}
	p.o.layer["core.boot_job_ms"] = median(ms)
	return nil
}

// specLoad times resolving the deepest leaf of a 4-deep chain.
func (p *probes) specLoad() error {
	wl := filepath.Join(p.dir, "load-wl")
	base := "br-base"
	for _, name := range []string{"l1", "l2", "l3", "leaf"} {
		doc := fmt.Sprintf(`{"name":%q,"base":%q,"command":"echo %s"}`, name, base, name)
		if err := writeFile(filepath.Join(wl, name+".json"), []byte(doc), 0o644); err != nil {
			return err
		}
		base = name
	}
	var ms []float64
	for i := 0; i < 20; i++ {
		m, err := firemarshal.New(filepath.Join(p.dir, "load-work"), wl)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := m.Loader.Load("leaf"); err != nil {
			return err
		}
		ms = append(ms, millis(time.Since(t0)))
	}
	p.o.layer["spec.load_ms"] = median(ms)
	return nil
}

// randomBlobs returns n pseudo-random payloads of size bytes.
func (p *probes) randomBlobs(n, size int) [][]byte {
	rng := rand.New(rand.NewSource(p.seed))
	blobs := make([][]byte, n)
	for i := range blobs {
		blobs[i] = make([]byte, size)
		rng.Read(blobs[i])
	}
	return blobs
}

func mbPerSec(bytes int, d time.Duration) float64 { return float64(bytes) / 1e6 / d.Seconds() }

// cas times the local store directly: publishing and restoring a task's
// artifacts, and the small-blob Put pattern checkpoint pages make.
func (p *probes) cas() error {
	store, err := cas.Open(filepath.Join(p.dir, "cas-probe"))
	if err != nil {
		return err
	}
	cache := cas.NewCache(store, nil)
	var targets []string
	total := 0
	for i, blob := range p.randomBlobs(p.sz.casArtifacts, p.sz.casBytes) {
		target := filepath.Join(p.dir, "cas-targets", fmt.Sprintf("artifact%d", i))
		if err := writeFile(target, blob, 0o644); err != nil {
			return err
		}
		targets = append(targets, target)
		total += len(blob)
	}
	t0 := time.Now()
	action, err := cache.Publish(hostutil.HashBytes([]byte("probe")), "probe", targets)
	if err != nil {
		return err
	}
	p.o.layer["cas.publish_mb_s"] = mbPerSec(total, time.Since(t0))
	for _, target := range targets {
		if err := os.Remove(target); err != nil {
			return err
		}
	}
	t0 = time.Now()
	if err := cache.Restore(action, targets); err != nil {
		return err
	}
	p.o.layer["cas.restore_mb_s"] = mbPerSec(total, time.Since(t0))

	pages := p.randomBlobs(p.sz.casSmallPuts, 4096)
	t0 = time.Now()
	for _, page := range pages {
		if _, err := store.Put(page); err != nil {
			return err
		}
	}
	p.o.layer["cas.put_small_ops_s"] = float64(len(pages)) / time.Since(t0).Seconds()
	return nil
}

// countingTransport counts HTTP round trips: the difference from the
// number of logical operations is what the client retried.
type countingTransport struct{ n atomic.Int64 }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// casRemote times the cache client against a loopback cache server.
func (p *probes) casRemote() error {
	store, err := cas.Open(filepath.Join(p.dir, "remote-probe"))
	if err != nil {
		return err
	}
	srv := httptest.NewServer(casremote.NewServer(store))
	defer srv.Close()
	client := casremote.NewClient(srv.URL, 0)
	trips := &countingTransport{}
	client.SetTransport(trips)
	ctx := context.Background()

	blobs := p.randomBlobs(p.sz.remoteBlobs, p.sz.casBytes)
	digests := make([]string, len(blobs))
	total, ops := 0, 0
	t0 := time.Now()
	for i, blob := range blobs {
		digests[i] = hostutil.HashBytes(blob)
		if err := client.PutBlob(ctx, digests[i], blob); err != nil {
			return err
		}
		total += len(blob)
		ops++
	}
	p.o.layer["cas_remote.put_mb_s"] = mbPerSec(total, time.Since(t0))
	t0 = time.Now()
	for _, d := range digests {
		if _, err := client.GetBlob(ctx, d); err != nil {
			return err
		}
		ops++
	}
	p.o.layer["cas_remote.get_mb_s"] = mbPerSec(total, time.Since(t0))

	action := &cas.Action{Key: hostutil.HashBytes([]byte("probe")), Task: "probe"}
	if err := client.PutAction(ctx, action); err != nil {
		return err
	}
	ops++
	var rtt []float64
	for i := 0; i < p.sz.remoteActions; i++ {
		t0 := time.Now()
		if _, err := client.GetAction(ctx, action.Key); err != nil {
			return err
		}
		rtt = append(rtt, float64(time.Since(t0).Microseconds()))
		ops++
	}
	p.o.layer["cas_remote.action_rtt_us_p50"] = median(rtt)
	p.o.layer["cas_remote.retries"] = float64(trips.n.Load() - int64(ops))
	return nil
}

// dispatch times the local launcher's own per-job cost on no-op jobs.
func (p *probes) dispatch() error {
	jobs := make([]launcher.Job, p.sz.dispatchJobs)
	for i := range jobs {
		jobs[i] = launcher.Job{
			Name: fmt.Sprintf("noop%d", i),
			Run:  func(context.Context, int) (launcher.Metrics, error) { return launcher.Metrics{}, nil },
		}
	}
	sum := launcher.New(launcher.Options{Workers: parallelism}).Run(context.Background(), jobs)
	if err := sum.Err(); err != nil {
		return err
	}
	p.o.layer["launcher.dispatch_us"] = float64(sum.Wall.Microseconds()) / float64(len(jobs))
	return nil
}

var errPaused = errors.New("paused at checkpoint boundary")

// checkpoint pauses a machine halfway through store_fill, times Capture
// into fresh stores and Restore onto a fresh machine, and checks that the
// restored machine finishes exactly as an uninterrupted one does.
func (p *probes) checkpoint() error {
	var shape program
	for _, s := range programs {
		if s.name == "store_fill" {
			shape = s
		}
	}
	exe, err := shape.assemble(p.sz.matrixInstrs, p.seed)
	if err != nil {
		return err
	}
	whole := bareMachine(exe)
	total, err := sim.RunFunctional(whole)
	if err != nil {
		return err
	}

	m := bareMachine(exe)
	m.CkptEvery = total / 2
	m.CkptFn = func(*sim.Machine) error { return errPaused }
	if _, err := sim.RunFunctional(m); !errors.Is(err, errPaused) {
		return fmt.Errorf("store_fill did not pause at its checkpoint boundary: %v", err)
	}

	var captureMS []float64
	var cp *checkpoint.Checkpoint
	var store *cas.Store
	for i := 0; i < p.sz.captureRepeats; i++ {
		// A fresh store each time: a second capture into the same store
		// would find every page already present.
		if store, err = cas.Open(filepath.Join(p.dir, fmt.Sprintf("ckpt-probe%d", i))); err != nil {
			return err
		}
		t0 := time.Now()
		if cp, _, err = checkpoint.Capture(store, "probe", m); err != nil {
			return err
		}
		captureMS = append(captureMS, millis(time.Since(t0)))
	}
	p.o.layer["checkpoint.capture_ms_p50"] = median(captureMS)
	p.o.layer["checkpoint.bytes_per_snapshot"] = float64(len(cp.Pages) * 4096)

	restored := bareMachine(exe)
	t0 := time.Now()
	if err := cp.Restore(store, restored); err != nil {
		return err
	}
	p.o.layer["checkpoint.restore_ms"] = millis(time.Since(t0))
	if _, err := sim.RunFunctional(restored); err != nil {
		return err
	}
	p.o.invariant("checkpoint.restored_equals_uninterrupted",
		restored.Instret == whole.Instret && restored.Regs == whole.Regs && restored.ExitCode == whole.ExitCode)
	return nil
}
