package core

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"firemarshal/internal/boards"
	"firemarshal/internal/hostutil"
	"firemarshal/internal/launcher"
	"firemarshal/internal/launcher/remote"
	"firemarshal/internal/obs"
	"firemarshal/internal/spec"
)

// LaunchOpts controls the launch command (§III-C).
type LaunchOpts struct {
	// Job selects one job of a multi-job workload ("" runs the root, or
	// every job of a jobs-only workload).
	Job string
	// NoDisk boots the initramfs-embedded binary.
	NoDisk bool
	// Spike forces the Spike functional simulator variant even when the
	// workload doesn't request a custom one.
	Spike bool
	// Trace writes a per-instruction execution trace (the spike -l role)
	// to trace.log in the run directory. Slow; debugging only.
	Trace bool
	// ConsoleTee additionally streams serial output (interactive use).
	// With more than one job in flight the tee is suppressed — interleaved
	// serial output is useless; per-job uartlogs carry the full streams.
	ConsoleTee io.Writer

	// Jobs caps how many job simulations run concurrently
	// (`marshal launch -j N`). <=0 means GOMAXPROCS; 1 runs sequentially.
	// Builds fan out across the same number of workers.
	Jobs int
	// JobTimeout kills any single job attempt exceeding it (0 = none).
	// The kill is cooperative — each machine polls its Stop channel — so
	// a hung job dies without stalling siblings. Timeouts are not retried.
	JobTimeout time.Duration
	// Retries re-attempts transiently-failing jobs with exponential
	// backoff (total attempts = Retries+1).
	Retries int
	// RetryBackoff is the base delay between attempts (default 250ms).
	RetryBackoff time.Duration
	// Context, when non-nil, kills in-flight jobs on cancellation — the
	// second-Ctrl-C path.
	Context context.Context
	// Drain, when closed, stops starting new jobs while in-flight jobs
	// run to completion — the first-Ctrl-C path.
	Drain <-chan struct{}

	// Workers, when non-empty, distributes the launch across a fleet of
	// `marshal worker serve` daemons (`-workers host1:port,host2:port`)
	// instead of local simulation slots. Requires RemoteCache — artifacts,
	// consoles, outputs, and checkpoints all travel through the shared
	// cache; the coordinator journals every worker event, so `-resume`,
	// the manifest, and crash recovery behave exactly as locally.
	Workers []string
	// WorkerLeaseTTL bounds how long a worker may go silent before the
	// coordinator declares it dead and re-leases its jobs; WorkerPoll is
	// the coordinator's event-poll cadence. Zero uses protocol defaults.
	WorkerLeaseTTL time.Duration
	WorkerPoll     time.Duration
	// WorkerTransport, when set, wraps the coordinator's worker-client
	// HTTP transport (chaos fault injection).
	WorkerTransport http.RoundTripper
	// HedgeAfter, when nonzero, duplicates a started job onto an idle
	// healthy worker once its lease is older than this without a terminal
	// event — stragglers stop gating the run; determinism makes the
	// duplicate execution benign (first terminal event wins).
	HedgeAfter time.Duration

	// Resume continues an interrupted run (`marshal launch -resume`): jobs
	// the run journal records as ok carry their results over, jobs with a
	// live checkpoint restore mid-flight, and the rest run from scratch.
	// The compacted manifest is bit-identical to an uninterrupted run's
	// (wall-clock fields aside).
	Resume bool
	// CkptEvery, when nonzero, snapshots each job's machine state into the
	// artifact cache every N retired instructions (`-ckpt-every N`), so a
	// crashed or killed run can resume without losing in-flight work.
	CkptEvery uint64

	// MetricsPath, when set, writes a JSON metrics snapshot there after
	// the run (`marshal launch -metrics FILE`): every counter, gauge, and
	// histogram the run's layers reported into the registry.
	MetricsPath string
}

// RunResult reports one completed launch.
type RunResult struct {
	Target    string
	OutputDir string
	Uartlog   string
	ExitCode  int64
	Cycles    uint64
	Simulator string
}

// Launch builds the workload and runs it in functional simulation,
// collecting outputs and running the post-run hook (§III-C). The spec is
// loaded exactly once; the resolved workload flows through build and
// launch (see BuildWorkload).
func (m *Marshal) Launch(nameOrPath string, opts LaunchOpts) ([]*RunResult, error) {
	w, err := m.Loader.Load(nameOrPath)
	if err != nil {
		return nil, err
	}
	return m.LaunchWorkload(w, opts)
}

// LaunchWorkload builds and launches an already-resolved workload,
// fanning independent jobs across the parallel launcher (§IV-B: parallel
// job simulation turned "two weeks into two days"). Each job gets an
// isolated machine, console buffer, and run directory; results aggregate
// into a JSONL run manifest (ManifestPath) and the LastLaunch summary.
func (m *Marshal) LaunchWorkload(w *spec.Workload, opts LaunchOpts) ([]*RunResult, error) {
	// The whole run — build phase included — traces under one root span.
	// The trace is written next to the manifest even on failure, so an
	// aborted run still leaves a (partial but well-formed) trace behind.
	tracer := obs.NewTracer()
	runSpan := tracer.Start("run")
	m.runSpan = runSpan
	defer func() {
		m.runSpan = nil
		runSpan.End()
		remote.WriteObsFiles(tracer, m.TracePath(w.Name), opts.MetricsPath, m.Obs, m.Log)
	}()

	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	// Remote-cache requests issued anywhere in this run — build-phase
	// restores, checkpoint uploads — inherit the run context, so killing
	// the run aborts its in-flight transfers too.
	cache, err := m.Cache()
	if err != nil {
		return nil, err
	}
	cache.SetContext(ctx)
	defer cache.SetContext(nil)

	if _, err := m.BuildWorkload(w, BuildOpts{NoDisk: opts.NoDisk, Jobs: opts.Jobs}); err != nil {
		return nil, err
	}

	var targets []Target
	if opts.Job != "" {
		tgt, err := FindTarget(w, opts.Job)
		if err != nil {
			return nil, err
		}
		targets = []Target{tgt}
	} else if len(w.Jobs) > 0 {
		// Functional simulation has no inter-job network model (§VI), so
		// multi-job workloads launch their jobs independently.
		targets = Targets(w)[1:]
	} else {
		targets = Targets(w)
	}

	slots := opts.Jobs
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	tee := opts.ConsoleTee
	if slots > 1 && len(targets) > 1 {
		tee = nil
	}

	run := remote.Run{
		ManifestPath: m.ManifestPath(w.Name),
		Resume:       opts.Resume,
		CkptDir:      m.CkptDir(),
		CkptEvery:    opts.CkptEvery,
		Pool: launcher.Options{
			Workers: slots,
			Timeout: opts.JobTimeout,
			Retries: opts.Retries,
			Backoff: opts.RetryBackoff,
			Drain:   opts.Drain,
		},
		Fleet: remote.CoordOptions{
			Workers:    opts.Workers,
			LeaseTTL:   opts.WorkerLeaseTTL,
			Poll:       opts.WorkerPoll,
			Transport:  opts.WorkerTransport,
			HedgeAfter: opts.HedgeAfter,
		},
		Remote: cache.Remote(),
		Obs:    m.Obs,
		Log:    m.Log,
		Span:   runSpan,
	}
	if opts.CkptEvery > 0 || opts.Resume {
		run.CkptStore = cache.Local()
	}
	for _, tgt := range targets {
		run.Jobs = append(run.Jobs, m.launchJob(tgt, opts, tee))
	}
	results, summary, err := remote.Drive(ctx, run)
	if summary == nil {
		return nil, err
	}
	m.LastLaunch = summary
	m.LastManifest = run.ManifestPath

	out := make([]*RunResult, 0, len(targets))
	for i, res := range results {
		if res == nil {
			continue
		}
		job := run.Jobs[i]
		out = append(out, &RunResult{
			Target:    job.Name,
			OutputDir: job.Dir,
			Uartlog:   filepath.Join(job.Dir, "uartlog"),
			ExitCode:  res.ExitCode,
			Cycles:    res.Cycles,
			Simulator: job.Sim,
		})
	}
	if err != nil {
		return out, fmt.Errorf("core: %w", err)
	}
	return out, nil
}

// launchJob declares one target for the launch driver: its built artifacts,
// the functional simulator variant, and the host-local extras its board
// profile and the launch options call for. Device-driver hooks run host-side
// callbacks that exist only in this process; each attempt gets a fresh set.
func (m *Marshal) launchJob(tgt Target, opts LaunchOpts, tee io.Writer) remote.Job {
	w := tgt.Workload
	runDir := m.RunDir(tgt.Name)
	args := append(w.EffectiveQemuArgs(), w.EffectiveSpikeArgs()...)
	job := remote.Job{
		Name:    tgt.Name,
		Bin:     m.BinPath(tgt.Name),
		Img:     m.ImgPath(tgt.Name),
		Sim:     "qemu",
		Outputs: EffectiveOutputs(w),
		Dir:     runDir,
		Post:    func() error { return m.runPostRunHook(w, runDir) },
	}
	if opts.NoDisk {
		job.Bin, job.Img = m.NoDiskBinPath(tgt.Name), ""
	}
	if opts.Spike || w.EffectiveSpike() != "" {
		job.Sim = "spike"
	}
	job.Attach = func(x *remote.Exec) (release func(), err error) {
		x.Tee = tee
		x.Drivers, err = boards.DeviceProfile(w.EffectiveSpike(), boards.ProfileOpts{
			RemotePages: pfaPagesFromArgs(args),
		})
		if err != nil || !opts.Trace {
			return nil, err
		}
		if err := os.MkdirAll(runDir, 0o755); err != nil {
			return nil, err
		}
		traceFile, err := os.Create(filepath.Join(runDir, "trace.log"))
		if err != nil {
			return nil, err
		}
		x.Trace = traceFile
		return func() { traceFile.Close() }, nil
	}
	return job
}

// pfaPagesFromArgs extracts the --pfa-pages=N simulator argument (the
// workload's spike-args), sizing the golden model's emulated remote region.
func pfaPagesFromArgs(args []string) int {
	for _, arg := range args {
		var n int
		if _, err := fmt.Sscanf(arg, "--pfa-pages=%d", &n); err == nil && n > 0 {
			return n
		}
	}
	return 0
}

// runPostRunHook executes the workload's post-run hook against the run
// output directory.
func (m *Marshal) runPostRunHook(w *spec.Workload, runDir string) error {
	hook, dir := EffectivePostRunHook(w)
	if hook == "" {
		return nil
	}
	m.logf("running post-run-hook %s", hook)
	abs, err := filepath.Abs(runDir)
	if err != nil {
		return err
	}
	if _, err := hostutil.RunHostScript(hook, dir, abs); err != nil {
		return fmt.Errorf("core: post-run-hook: %w", err)
	}
	return nil
}
