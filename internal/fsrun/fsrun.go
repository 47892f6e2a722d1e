// Package fsrun executes installed workload configurations on the
// cycle-exact simulator — the role of FireSim's manager. It realizes the
// run phase of §III-E: after `marshal install`, "users interact with the
// simulator normally to launch the workload". Multi-job workloads become
// nodes of a simulated cluster sharing a network fabric; independent jobs
// can run in parallel on the host, the optimization that "reduced the
// runtime for our experiment from about two weeks to roughly two days"
// (§IV-B).
package fsrun

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"firemarshal/internal/boards"
	"firemarshal/internal/cas"
	casremote "firemarshal/internal/cas/remote"
	"firemarshal/internal/hostutil"
	"firemarshal/internal/install"
	"firemarshal/internal/launcher"
	"firemarshal/internal/launcher/remote"
	"firemarshal/internal/netsim"
	"firemarshal/internal/obs"
	"firemarshal/internal/runtest"
	"firemarshal/internal/sim/rtlsim"
)

// Options configures a simulation run.
type Options struct {
	// RTL is the hardware configuration (predictor, caches, ...).
	RTL rtlsim.Config
	// Jobs caps how many independent OS jobs simulate concurrently on the
	// host (`firesim -j N`). <=0 means sequential.
	Jobs int
	// Timeout kills any single job attempt that exceeds it (0 = none).
	// The kill is cooperative: the RTL platform polls its Stop channel
	// between batches, so a hung node dies without stalling siblings.
	Timeout time.Duration
	// Retries re-attempts transiently-failing jobs (total = Retries+1).
	Retries int
	// Context, when non-nil, cancels in-flight simulations.
	Context context.Context
	// Drain, when closed, stops starting new jobs while in-flight ones
	// finish.
	Drain <-chan struct{}
	// ManifestPath, when set, receives the JSONL run manifest for the OS
	// jobs (one record per job, declaration order).
	ManifestPath string
	// Net overrides the network fabric timing (zero value = defaults).
	Net netsim.Config
	// OutputDir receives per-job output directories.
	OutputDir string
	// Log receives progress messages.
	Log io.Writer

	// Workers, when non-empty, simulates OS nodes on a fleet of
	// `marshal worker serve` daemons (`firesim -workers host1:p,host2:p`)
	// instead of local RTL slots. Requires RemoteCache; incompatible with
	// networked topologies (the fabric couples nodes through host memory).
	Workers []string
	// RemoteCache is the shared cache's base URL (required with Workers).
	RemoteCache string
	// WorkerLeaseTTL bounds how long a worker may go silent before the
	// coordinator declares it dead and re-leases its nodes; WorkerPoll is
	// the coordinator's event-poll cadence. Zero uses protocol defaults.
	WorkerLeaseTTL time.Duration
	WorkerPoll     time.Duration

	// Resume continues an interrupted run (`firesim -resume`): nodes the
	// run journal records as ok carry their results over, nodes with a live
	// checkpoint restore mid-flight. Requires ManifestPath for the journal;
	// without one only the checkpoint half applies.
	Resume bool
	// CkptEvery, when nonzero, snapshots each node's machine state every N
	// retired instructions into a store under <OutputDir>/.ckpt, so a
	// killed run can resume cycle-exactly. Nodes on a network fabric run
	// unprotected (cross-node state is not captured).
	CkptEvery uint64

	// Obs is the metrics registry the run reports into (launcher_*,
	// checkpoint_*, sim_rtlsim_*); nil resolves to obs.Default.
	Obs *obs.Registry
	// MetricsPath, when set, receives a JSON metrics snapshot after the
	// run (`firesim -metrics FILE`).
	MetricsPath string
}

// JobResult reports one simulated node.
type JobResult struct {
	Name      string
	ExitCode  int64
	Cycles    uint64
	Stats     rtlsim.Stats
	OutputDir string
	// HostTime is the wall-clock simulation time on the host.
	HostTime time.Duration
}

// Result reports a whole run.
type Result struct {
	Jobs []JobResult
	// Summary is the launcher's per-job scheduling record for the OS jobs
	// (nil when the config has none).
	Summary *launcher.Summary
	// HostTime is the end-to-end wall-clock time.
	HostTime time.Duration
}

// Run simulates every job of an installed configuration.
func Run(cfg *install.Config, opts Options) (*Result, error) {
	if opts.OutputDir == "" {
		return nil, fmt.Errorf("fsrun: no output directory")
	}
	start := time.Now()

	// The run traces under one root span; the trace lands next to the
	// manifest (when one is configured) even when the run aborts.
	tracer := obs.NewTracer()
	runSpan := tracer.Start("run")
	tracePath := ""
	if opts.ManifestPath != "" {
		tracePath = TracePath(opts.ManifestPath)
	}
	defer func() {
		runSpan.End()
		remote.WriteObsFiles(tracer, tracePath, opts.MetricsPath, opts.Obs, opts.Log)
	}()

	// On a networked topology every node carries the fabric's NIC — state
	// coupling nodes through this process — so the kernel's host-local rule
	// keeps such nodes off checkpoints and off a worker fleet.
	var fabric *netsim.Fabric
	if cfg.Topology == "simple" {
		netCfg := opts.Net
		if netCfg.LatencyCycles == 0 && netCfg.BytesPerCycle == 0 {
			netCfg = netsim.DefaultConfig()
		}
		fabric = netsim.New(netCfg)
	}

	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	run := remote.Run{
		CkptDir:   filepath.Join(opts.OutputDir, ".ckpt"),
		CkptEvery: opts.CkptEvery,
		Resume:    opts.Resume,
		Pool:      launcher.Options{Workers: 1, Timeout: opts.Timeout, Drain: opts.Drain},
		Obs:       opts.Obs,
		Log:       opts.Log,
		Span:      runSpan,
	}
	if opts.RemoteCache != "" {
		run.Remote = casremote.NewClient(opts.RemoteCache, 0)
	}

	// Bare-metal jobs run first, one at a time, outside the run's record
	// and unprotected: they set up fabric state (registered memory) that OS
	// nodes depend on.
	var bare, nodes []remote.Job
	for _, job := range cfg.Jobs {
		j := nodeJob(job, fabric, opts)
		if job.Bare {
			bare = append(bare, j)
		} else {
			nodes = append(nodes, j)
		}
	}
	res := &Result{}
	collect := func(jobs []remote.Job, results []*remote.Result) {
		for i, r := range results {
			if r == nil {
				continue
			}
			jr := JobResult{Name: jobs[i].Name, ExitCode: r.ExitCode, Cycles: r.Cycles, OutputDir: jobs[i].Dir, HostTime: r.HostTime}
			if r.Stats != nil {
				jr.Stats = *r.Stats
			}
			res.Jobs = append(res.Jobs, jr)
		}
	}
	run.Jobs = bare
	results, _, err := remote.Drive(ctx, run)
	if err != nil {
		return nil, fmt.Errorf("fsrun: %w", err)
	}
	collect(bare, results)

	// OS jobs fan out across the launcher pool (or the fleet): isolated
	// platforms, per-job timeout/retry, deterministic result order.
	run.Jobs = nodes
	run.ManifestPath = opts.ManifestPath
	run.Pool.Retries = opts.Retries
	run.Pool.Workers = max(opts.Jobs, 1)
	run.Fleet = remote.CoordOptions{Workers: opts.Workers, LeaseTTL: opts.WorkerLeaseTTL, Poll: opts.WorkerPoll}
	if opts.CkptEvery > 0 || opts.Resume {
		// Pointers and blobs live outside the per-job output directories,
		// which every attempt wipes.
		if run.CkptStore, err = cas.Open(filepath.Join(run.CkptDir, "cas")); err != nil {
			return nil, err
		}
	}
	results, summary, err := remote.Drive(ctx, run)
	if summary == nil {
		return nil, err
	}
	res.Summary = summary
	collect(nodes, results)
	res.HostTime = time.Since(start)
	if err != nil {
		return res, fmt.Errorf("fsrun: %w", err)
	}

	if cfg.PostRunHook != "" {
		abs, err := filepath.Abs(opts.OutputDir)
		if err != nil {
			return nil, err
		}
		if _, err := hostutil.RunHostScript(cfg.PostRunHook, cfg.PostRunHookDir, abs); err != nil {
			return nil, fmt.Errorf("fsrun: post-run-hook: %w", err)
		}
	}
	res.HostTime = time.Since(start)
	return res, nil
}

// nodeJob declares one installed job for the launch driver: a node of the
// cycle-exact target, with its SoC's device drivers and — on a networked
// topology — its NIC attached fresh to every in-process attempt.
func nodeJob(job install.JobConfig, fabric *netsim.Fabric, opts Options) remote.Job {
	return remote.Job{
		Name:    job.Name,
		Bin:     job.Bin,
		Img:     job.Img,
		Sim:     "rtl",
		RTL:     opts.RTL,
		Outputs: job.Outputs,
		Dir:     filepath.Join(opts.OutputDir, job.Name),
		Attach: func(x *remote.Exec) (release func(), err error) {
			x.Drivers, err = boards.DeviceProfile(job.Devices, boards.ProfileOpts{
				Fabric:     fabric,
				ServerNode: job.ServerNode,
			})
			if fabric != nil {
				x.Devices = append(x.Devices, &netsim.NIC{Fabric: fabric, NodeName: job.Name})
			}
			return nil, err
		},
	}
}

// TracePath is where a run with the given manifest path writes its span
// trace: the manifest's "manifest.jsonl" suffix — bare (fsrun's default
// name) or as a ".manifest.jsonl" extension — swapped for the trace
// equivalent, or ".trace.jsonl" appended when the manifest is named
// differently.
func TracePath(manifestPath string) string {
	const suffix = "manifest.jsonl"
	if base := filepath.Base(manifestPath); base == suffix || strings.HasSuffix(base, "."+suffix) {
		return manifestPath[:len(manifestPath)-len(suffix)] + "trace.jsonl"
	}
	return manifestPath + ".trace.jsonl"
}

// Verify compares every job's output directory against the config's
// reference directory — the `marshal test --manual` flow of §III-E. A job
// whose short name matches a refDir subdirectory compares against that
// subdirectory; other jobs compare against the top-level reference files
// (sibling jobs' subdirectories are not expected in their outputs).
func Verify(cfg *install.Config, outputDir string) ([]runtest.Failure, error) {
	if cfg.RefDir == "" {
		return nil, fmt.Errorf("fsrun: workload has no reference outputs")
	}
	jobDirs := map[string]bool{}
	for _, job := range cfg.Jobs {
		jobDirs[jobShortName(cfg, job.Name)] = true
	}
	var all []runtest.Failure
	for _, job := range cfg.Jobs {
		jobOut := filepath.Join(outputDir, job.Name)
		if sub := filepath.Join(cfg.RefDir, jobShortName(cfg, job.Name)); dirExists(sub) {
			failures, err := runtest.CompareDir(jobOut, sub)
			if err != nil {
				return nil, err
			}
			all = append(all, failures...)
			continue
		}
		failures, err := runtest.CompareDirFiltered(jobOut, cfg.RefDir, true,
			func(name string) bool { return jobDirs[name] })
		if err != nil {
			return nil, err
		}
		all = append(all, failures...)
	}
	return all, nil
}

func jobShortName(cfg *install.Config, jobName string) string {
	prefix := cfg.Workload + "-"
	if len(jobName) > len(prefix) && jobName[:len(prefix)] == prefix {
		return jobName[len(prefix):]
	}
	return jobName
}

func dirExists(p string) bool {
	info, err := os.Stat(p)
	return err == nil && info.IsDir()
}
