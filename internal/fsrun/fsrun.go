// Package fsrun executes installed workload configurations on the
// cycle-exact simulator — the role of FireSim's manager. It realizes the
// run phase of §III-E: after `marshal install`, "users interact with the
// simulator normally to launch the workload". Multi-job workloads become
// nodes of a simulated cluster: bare-metal memory servers run first, and
// the regions they register become the read-only network fabric the
// others' RDMA devices fetch from. Independent jobs can run in parallel on
// the host, the optimization that "reduced the runtime for our experiment
// from about two weeks to roughly two days" (§IV-B).
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
	// host (`firesim -j N`). <=0 means GOMAXPROCS; 1 runs sequentially.
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
	// instead of local RTL slots. Requires RemoteCache. A node that carries
	// device drivers (a devices profile, such as pfa-rdma reading the
	// fabric) is host-local, and the run is refused naming it.
	Workers []string
	// RemoteCache is the shared cache's base URL (required with Workers).
	RemoteCache string
	// WorkerPoll is the coordinator's heartbeat (event-poll) bound; a
	// worker silent for 100 of them forfeits its nodes. Zero uses the
	// protocol default, 100ms.
	WorkerPoll time.Duration

	// Resume continues an interrupted run (`firesim -resume`): nodes the
	// run journal records as ok carry their results over, nodes with a live
	// checkpoint restore mid-flight. Requires ManifestPath for the journal;
	// without one only the checkpoint half applies.
	Resume bool
	// CkptEvery, when nonzero, snapshots each OS node's machine state every
	// N retired instructions into a store under <OutputDir>/.ckpt, so a
	// killed run can resume cycle-exactly. Nodes with device drivers run
	// unprotected (driver state is not part of a snapshot); memory servers
	// are short, and -resume carries them once they are ok.
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

	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	run := remote.Run{
		CkptDir:   filepath.Join(opts.OutputDir, ".ckpt"),
		CkptEvery: opts.CkptEvery,
		Resume:    opts.Resume,
		Timeout:   opts.Timeout,
		Drain:     opts.Drain,
		Slots:     1,
		Obs:       opts.Obs,
		Log:       opts.Log,
		Span:      runSpan,
	}
	if opts.RemoteCache != "" {
		run.Remote = casremote.NewClient(opts.RemoteCache, 0)
	}
	if opts.ManifestPath != "" {
		run.ManifestPath = serverManifestPath(opts.ManifestPath)
	}

	// Bare-metal jobs — the memory servers — run first, one at a time, as a
	// recorded phase of their own: each lands its NIC's registered regions
	// as an output, and -resume carries a server that finished ok.
	var servers, nodes []install.JobConfig
	for _, job := range cfg.Jobs {
		if job.Bare {
			servers = append(servers, job)
		} else {
			nodes = append(nodes, job)
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
	var fabric *netsim.Fabric
	if len(servers) > 0 {
		run.Jobs = make([]remote.Job, len(servers))
		for i, job := range servers {
			run.Jobs[i] = nodeJob(job, nil, opts)
		}
		results, _, err := remote.Drive(ctx, run)
		if err != nil {
			return nil, fmt.Errorf("fsrun: %w", err)
		}
		collect(run.Jobs, results)
		if fabric, err = buildFabric(run.Jobs, opts.Net); err != nil {
			return nil, err
		}
	}

	// OS jobs fan out across the launcher pool (or the fleet): isolated
	// platforms, per-job timeout/retry, deterministic result order.
	run.Jobs = make([]remote.Job, len(nodes))
	for i, job := range nodes {
		run.Jobs[i] = nodeJob(job, fabric, opts)
	}
	run.ManifestPath = opts.ManifestPath
	run.Retries = opts.Retries
	run.Slots = opts.Jobs
	run.Fleet = remote.CoordOptions{Workers: opts.Workers, Poll: opts.WorkerPoll}
	if opts.CkptEvery > 0 || opts.Resume {
		// Pointers and blobs live outside the per-job output directories,
		// which every attempt wipes.
		var err error
		if run.CkptStore, err = cas.Open(filepath.Join(run.CkptDir, "cas")); err != nil {
			return nil, err
		}
	}
	results, summary, err := remote.Drive(ctx, run)
	if summary == nil {
		return nil, err
	}
	res.Summary = summary
	collect(run.Jobs, results)
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

// regionsFile is the output a memory server lands in its run directory:
// the canonical encoding of the regions it registered with its NIC
// (netsim.NIC.Encode), from which the fabric is built.
const regionsFile = "regions.bin"

// nodeJob declares one installed job for the launch driver: a node of the
// cycle-exact target, with its SoC's device drivers — pfa-rdma's reading
// the fabric — attached fresh to every in-process attempt. A node without
// a devices profile is pure machine state. A memory server (a bare job)
// also gets a fresh NIC per attempt, whose registered regions land as
// regionsFile once the attempt's files are in its run directory.
func nodeJob(job install.JobConfig, fabric *netsim.Fabric, opts Options) remote.Job {
	dir := filepath.Join(opts.OutputDir, job.Name)
	var nic *netsim.NIC
	j := remote.Job{
		Name:    job.Name,
		Bin:     job.Bin,
		Img:     job.Img,
		Sim:     "rtl",
		RTL:     opts.RTL,
		Outputs: job.Outputs,
		Dir:     dir,
		Attach: func(x *remote.Exec) (release func(), err error) {
			if job.Bare {
				nic = &netsim.NIC{}
				x.Devices = append(x.Devices, nic)
			}
			x.Drivers, err = boards.DeviceProfile(job.Devices, boards.ProfileOpts{
				Fabric:     fabric,
				ServerNode: job.ServerNode,
			})
			return nil, err
		},
	}
	if job.Bare {
		j.Post = func() error {
			return hostutil.WriteFileAtomic(filepath.Join(dir, regionsFile), nic.Encode(), 0o644)
		}
	}
	return j
}

// buildFabric decodes every server's landed regions into the fabric the
// nodes read. A server whose file is missing or undecodable fails the run
// by name: no node ever reads an empty fabric in its place.
func buildFabric(servers []remote.Job, cfg netsim.Config) (*netsim.Fabric, error) {
	if cfg == (netsim.Config{}) {
		cfg = netsim.DefaultConfig()
	}
	encoded := make(map[string][]byte, len(servers))
	for _, s := range servers {
		data, err := os.ReadFile(filepath.Join(s.Dir, regionsFile))
		if err != nil {
			return nil, fmt.Errorf("fsrun: memory server %s left no regions: %w", s.Name, err)
		}
		encoded[s.Name] = data
	}
	return netsim.New(cfg, encoded)
}

// TracePath is where a run with the given manifest path writes its span
// trace: the manifest's "manifest.jsonl" suffix — bare (fsrun's default
// name) or as a ".manifest.jsonl" extension — swapped for the trace
// equivalent, or ".trace.jsonl" appended when the manifest is named
// differently.
func TracePath(manifestPath string) string { return besideManifest(manifestPath, "trace.jsonl") }

// serverManifestPath is where the memory servers' phase keeps its own
// manifest (and journal), named as TracePath names the trace, so the
// nodes' manifest holds the nodes alone.
func serverManifestPath(manifestPath string) string {
	return besideManifest(manifestPath, "servers.manifest.jsonl")
}

func besideManifest(manifestPath, name string) string {
	const suffix = "manifest.jsonl"
	if base := filepath.Base(manifestPath); base == suffix || strings.HasSuffix(base, "."+suffix) {
		return manifestPath[:len(manifestPath)-len(suffix)] + name
	}
	return manifestPath + "." + name
}

// Verify compares every job's output directory against the config's
// reference directory — the `marshal test --manual` flow of §III-E — by the
// per-job rule `marshal test` uses (runtest.CompareJob), cleaning outputs as
// the workload's testing.strip says.
func Verify(cfg *install.Config, outputDir string) ([]runtest.Failure, error) {
	if cfg.RefDir == "" {
		return nil, fmt.Errorf("fsrun: workload has no reference outputs")
	}
	var jobs []string
	for _, job := range cfg.Jobs {
		jobs = append(jobs, job.Name)
	}
	var all []runtest.Failure
	for _, job := range cfg.Jobs {
		failures, err := runtest.CompareJob(filepath.Join(outputDir, job.Name), cfg.RefDir, cfg.Workload, job.Name, jobs, cfg.Strip)
		if err != nil {
			return nil, err
		}
		all = append(all, failures...)
	}
	return all, nil
}
