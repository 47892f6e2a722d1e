// Command marshal is the FireMarshal CLI (Table I): build, launch, test,
// and install software workloads for RISC-V full-stack simulation, plus the
// supporting clean, list, and status commands.
//
// Usage:
//
//	marshal [global flags] <command> [command flags] <workload>
//
// Global flags:
//
//	-workdir DIR      artifact/state directory (default ./marshal-work)
//	-workload-dirs    colon-separated workload search path (default .)
//	-cache-dir DIR    artifact-cache directory (default <workdir>/cache)
//	-remote-cache URL remote cache server (default $MARSHAL_REMOTE_CACHE)
//	-v                verbose progress output
//
// Commands:
//
//	build [-nodisk] <workload>          construct the boot binary + image
//	launch [-job J] [-spike] [-resume] [-ckpt-every N] [-metrics FILE] <workload>
//	                                    run in functional simulation
//	test [-manual DIR] <workload>       build, launch, compare outputs
//	install [-nodisk] <workload>        emit cycle-exact simulator config
//	clean <workload>                    drop artifacts and build state
//	list                                list known workloads
//	status <workload>                   show build state for a workload
//	cache stats|gc|verify [-repair]|serve [-hub URL]  manage the artifact cache
//	metrics serve [-addr]               Prometheus endpoint + cache server
//	worker serve [-addr] [-slots N]     distributed-launch worker daemon
//	verify-farm [-seeds RANGE] [-rounds N] [-workers ...]
//	                                    differential-verification farm
//	chaos [-seed N] [-schedule-only] <workload>
//	                                    fault-injected loopback fleet run
//
// Every serve command takes -rate/-burst/-max-inflight backpressure flags:
// over-budget clients get 429 with a Retry-After hint the fleet clients
// honor with jittered backoff.
//
// A distributed launch (`launch -workers host1:port,host2:port`) schedules
// jobs across worker daemons, streaming artifacts, consoles, outputs, and
// checkpoints through the shared -remote-cache server.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"firemarshal/internal/cas"
	"firemarshal/internal/cas/remote"
	"firemarshal/internal/chaos"
	"firemarshal/internal/core"
	"firemarshal/internal/launcher"
	lremote "firemarshal/internal/launcher/remote"
	"firemarshal/internal/obs"
	"firemarshal/internal/ratelimit"
	"firemarshal/internal/spec"
	"firemarshal/internal/verify"
)

// firemarshalWorkload aliases the spec type for the graph renderer.
type firemarshalWorkload = spec.Workload

// drainTimeout bounds how long a serving command waits for in-flight
// requests after SIGINT/SIGTERM before giving up on them.
const drainTimeout = 5 * time.Second

// serveGraceful runs an HTTP server until SIGINT/SIGTERM, then drains
// in-flight requests through http.Server.Shutdown under drainTimeout —
// Ctrl-C no longer truncates a cache transfer or drops a worker reply
// mid-flight. onStop, when non-nil, runs after the listener closes
// (worker shutdown: cancel leases and reap simulation goroutines).
func serveGraceful(name, addr string, h http.Handler, onStop func()) error {
	srv := &http.Server{Addr: addr, Handler: h}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(os.Stderr, "%s: signal — draining in-flight requests (up to %s)\n", name, drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := srv.Shutdown(dctx)
	if onStop != nil {
		onStop()
	}
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	global := flag.NewFlagSet("marshal", flag.ContinueOnError)
	workDir := global.String("workdir", "./marshal-work", "artifact and state directory")
	workloadDirs := global.String("workload-dirs", ".", "colon-separated workload search path")
	cacheDir := global.String("cache-dir", "", "artifact-cache directory (default <workdir>/cache; share it to share builds)")
	remoteCache := global.String("remote-cache", os.Getenv("MARSHAL_REMOTE_CACHE"), "remote cache server URL (default $MARSHAL_REMOTE_CACHE)")
	verbose := global.Bool("v", false, "verbose output")
	global.Usage = func() { usage(global) }
	if err := global.Parse(args); err != nil {
		return 2
	}
	rest := global.Args()
	if len(rest) == 0 {
		usage(global)
		return 2
	}
	cmd, rest := rest[0], rest[1:]

	m, err := core.New(*workDir, filepath.SplitList(*workloadDirs)...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal:", err)
		return 1
	}
	if *verbose {
		m.Log = os.Stderr
	}
	m.CacheDir = *cacheDir
	m.RemoteCache = *remoteCache

	switch cmd {
	case "build":
		return cmdBuild(m, rest)
	case "launch":
		return cmdLaunch(m, rest)
	case "test":
		return cmdTest(m, rest)
	case "install":
		return cmdInstall(m, rest)
	case "clean":
		return cmdClean(m, rest)
	case "list":
		return cmdList(m)
	case "status":
		return cmdStatus(m, rest)
	case "graph":
		return cmdGraph(m, rest)
	case "cache":
		return cmdCache(m, rest)
	case "metrics":
		return cmdMetrics(m, rest)
	case "worker":
		return cmdWorker(m, rest)
	case "verify-farm":
		return cmdVerifyFarm(m, rest)
	case "chaos":
		return cmdChaos(m, rest)
	default:
		fmt.Fprintf(os.Stderr, "marshal: unknown command %q\n", cmd)
		usage(global)
		return 2
	}
}

func usage(fs *flag.FlagSet) {
	fmt.Fprint(os.Stderr, `usage: marshal [flags] <command> [command flags] <workload>

Commands (Table I):
  build     Construct the filesystem image and boot-binary
  launch    Launch this workload in functional simulation
            (-resume continues an interrupted run; -ckpt-every N snapshots
            machine state every N instructions for crash-safe resumption)
  test      Build and launch the workload and compare its outputs against a reference
  install   Set up a cycle-exact RTL simulator to launch this workload
  clean     Remove built artifacts and state for a workload
  list      List known workloads
  status    Show build status for a workload
  graph     Show a workload's inheritance chain and jobs
  cache     Manage the artifact cache: stats | gc | verify [-repair] |
            serve [-addr] [-hub URL]
            (verify -repair quarantines corrupt blobs and refetches
            referenced blobs from -remote-cache; serve -hub makes this
            server a write-through edge of a central cache; serve also
            answers Prometheus scrapes on /metrics)
  metrics   serve [-addr] [-hub URL]: cache serve on the metrics port
  worker    serve [-addr] [-slots N]: execute distributed-launch jobs
            (launch -workers a:1,b:2 schedules across such daemons)
  verify-farm  Run the differential-verification farm: generate workloads,
            lockstep-compare simulator tiers, bisect divergences to the
            exact instruction, dedup by signature (-workers shards the
            corpus across a fleet; exits 1 if any divergence is found)
  chaos     Run the workload on clean and fault-injected loopback fleets
            and assert bit-identical results (-seed names the schedule;
            -schedule-only prints it for replay diffing)

Serve commands accept -rate/-burst/-max-inflight per-client backpressure.

Flags:
`)
	fs.PrintDefaults()
}

func oneWorkload(fs *flag.FlagSet, args []string) (string, bool) {
	if err := fs.Parse(args); err != nil {
		return "", false
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "marshal: expected exactly one workload argument")
		return "", false
	}
	return fs.Arg(0), true
}

func cmdBuild(m *core.Marshal, args []string) int {
	fs := flag.NewFlagSet("build", flag.ContinueOnError)
	noDisk := fs.Bool("nodisk", false, "embed the rootfs in the initramfs (no disk device)")
	wl, ok := oneWorkload(fs, args)
	if !ok {
		return 2
	}
	results, err := m.Build(wl, core.BuildOpts{NoDisk: *noDisk})
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal build:", err)
		return 1
	}
	for _, res := range results {
		fmt.Printf("built %s\n", res.Target)
		if res.Bin != "" {
			fmt.Printf("  bin: %s\n", res.Bin)
		}
		if res.Img != "" {
			fmt.Printf("  img: %s\n", res.Img)
		}
		if res.NoDiskBin != "" {
			fmt.Printf("  bin(nodisk): %s\n", res.NoDiskBin)
		}
	}
	return 0
}

func cmdLaunch(m *core.Marshal, args []string) int {
	fs := flag.NewFlagSet("launch", flag.ContinueOnError)
	job := fs.String("job", "", "launch a specific job of a multi-job workload")
	spike := fs.Bool("spike", false, "use the Spike functional simulator variant")
	noDisk := fs.Bool("nodisk", false, "boot the initramfs-embedded binary")
	trace := fs.Bool("trace", false, "write a per-instruction trace to trace.log (slow)")
	var jobs int
	fs.IntVar(&jobs, "j", 0, "max concurrent job simulations (0 = GOMAXPROCS, 1 = sequential)")
	fs.IntVar(&jobs, "jobs", 0, "alias for -j")
	timeout := fs.Duration("timeout", 0, "per-job simulation timeout, e.g. 30s (0 = none)")
	retries := fs.Int("retries", 0, "retry attempts for transiently-failing jobs (with backoff)")
	resume := fs.Bool("resume", false, "continue an interrupted run: carry jobs the journal records as ok, restore in-flight jobs from their latest checkpoint")
	ckptEvery := fs.Uint64("ckpt-every", 0, "snapshot each job's machine state every N retired instructions (0 = off)")
	metrics := fs.String("metrics", "", "write a JSON metrics snapshot to FILE after the run")
	workers := fs.String("workers", "", "comma-separated `marshal worker serve` addresses: distribute jobs across a fleet (requires -remote-cache)")
	wl, ok := oneWorkload(fs, args)
	if !ok {
		return 2
	}

	ctx, drain, stop := launcher.TwoStageInterrupt("marshal")
	defer stop()

	results, err := m.Launch(wl, core.LaunchOpts{
		Job:         *job,
		Spike:       *spike,
		NoDisk:      *noDisk,
		Trace:       *trace,
		ConsoleTee:  os.Stdout,
		Jobs:        jobs,
		JobTimeout:  *timeout,
		Retries:     *retries,
		Context:     ctx,
		Drain:       drain,
		Resume:      *resume,
		CkptEvery:   *ckptEvery,
		MetricsPath: *metrics,
		Workers:     lremote.SplitAddrs(*workers),
	})
	for _, res := range results {
		fmt.Printf("\n%s: exit=%d cycles=%d outputs=%s\n", res.Target, res.ExitCode, res.Cycles, res.OutputDir)
	}
	if s := m.LastLaunch; s != nil {
		fmt.Printf("\n%s", launcher.FormatTable(s))
		fmt.Printf("manifest: %s\n", m.LastManifest)
	}
	if *metrics != "" {
		fmt.Printf("metrics: %s\n", *metrics)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal launch:", err)
		return 1
	}
	return 0
}

func cmdTest(m *core.Marshal, args []string) int {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	manual := fs.String("manual", "", "compare an existing output directory instead of running")
	wl, ok := oneWorkload(fs, args)
	if !ok {
		return 2
	}
	results, err := m.Test(wl, core.TestOpts{Manual: *manual})
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal test:", err)
		return 1
	}
	failed := false
	for _, res := range results {
		if res.Passed {
			fmt.Printf("PASS %s\n", res.Target)
			continue
		}
		failed = true
		fmt.Printf("FAIL %s\n", res.Target)
		for _, f := range res.Failures {
			fmt.Printf("  %s\n", f)
		}
	}
	if failed {
		return 1
	}
	return 0
}

func cmdInstall(m *core.Marshal, args []string) int {
	fs := flag.NewFlagSet("install", flag.ContinueOnError)
	simName := fs.String("simulator", "firesim", "target RTL simulator connector")
	noDisk := fs.Bool("nodisk", false, "install the initramfs-embedded binaries")
	wl, ok := oneWorkload(fs, args)
	if !ok {
		return 2
	}
	dir, err := m.Install(wl, core.InstallOpts{Simulator: *simName, NoDisk: *noDisk})
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal install:", err)
		return 1
	}
	fmt.Printf("installed to %s\n", dir)
	fmt.Printf("run it with: firesim -config %s -output <dir>\n", dir)
	return 0
}

func cmdClean(m *core.Marshal, args []string) int {
	fs := flag.NewFlagSet("clean", flag.ContinueOnError)
	wl, ok := oneWorkload(fs, args)
	if !ok {
		return 2
	}
	gc, err := m.Clean(wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal clean:", err)
		return 1
	}
	fmt.Printf("cache gc: removed %d actions, %d blobs, %d stale temp files, reclaimed %d bytes\n",
		gc.ActionsRemoved, gc.BlobsRemoved, gc.TempsRemoved, gc.BytesReclaimed)
	return 0
}

// cmdCache manages the content-addressed artifact cache.
func cmdCache(m *core.Marshal, args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "marshal cache: expected a subcommand: stats | gc | verify | serve")
		return 2
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "stats":
		return cmdCacheStats(m)
	case "gc":
		gc, err := m.CacheGC()
		if err != nil {
			fmt.Fprintln(os.Stderr, "marshal cache gc:", err)
			return 1
		}
		fmt.Printf("removed %d actions, %d blobs, %d stale temp files, reclaimed %d bytes\n",
			gc.ActionsRemoved, gc.BlobsRemoved, gc.TempsRemoved, gc.BytesReclaimed)
		return 0
	case "verify":
		return cmdCacheVerify(m, rest)
	case "serve":
		return cmdCacheServe(m, "cache serve", ":8414", rest)
	default:
		fmt.Fprintf(os.Stderr, "marshal cache: unknown subcommand %q (want stats | gc | verify | serve)\n", sub)
		return 2
	}
}

func openLocalStore(m *core.Marshal) (*cas.Store, error) {
	c, err := m.Cache()
	if err != nil {
		return nil, err
	}
	return c.Local(), nil
}

func cmdCacheStats(m *core.Marshal) int {
	store, err := openLocalStore(m)
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal cache stats:", err)
		return 1
	}
	u, err := store.Usage()
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal cache stats:", err)
		return 1
	}
	fmt.Printf("cache dir: %s\n", store.Dir())
	fmt.Printf("blobs:     %d (%d bytes)\n", u.Blobs, u.BlobBytes)
	fmt.Printf("actions:   %d\n", u.Actions)
	return 0
}

func cmdCacheVerify(m *core.Marshal, args []string) int {
	fs := flag.NewFlagSet("cache verify", flag.ContinueOnError)
	repair := fs.Bool("repair", false, "quarantine corrupt blobs and refetch referenced blobs from -remote-cache")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *repair {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		problems, healed, unhealed, err := m.CacheRepair(ctx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "marshal cache verify -repair:", err)
			return 1
		}
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Printf("repair: %d blob(s) healed from remote, %d unrecoverable\n", healed, unhealed)
		if unhealed > 0 {
			return 1
		}
		return 0
	}
	problems, err := m.CacheVerify()
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal cache verify:", err)
		return 1
	}
	if len(problems) == 0 {
		fmt.Println("cache OK")
		return 0
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	return 1
}

// limitFlags registers the per-client backpressure flags every serve
// command shares; wrap applies them (a zero configuration wraps nothing).
func limitFlags(fs *flag.FlagSet) (wrap func(http.Handler) http.Handler) {
	rate := fs.Float64("rate", 0, "per-client sustained requests/sec; over-budget requests get 429 + Retry-After (0 = unlimited)")
	burst := fs.Int("burst", 0, "per-client burst size (default 2x -rate)")
	inflight := fs.Int("max-inflight", 0, "max concurrently-served requests across all clients (0 = unlimited)")
	return func(h http.Handler) http.Handler {
		return ratelimit.New(ratelimit.Options{RPS: *rate, Burst: *burst, MaxInFlight: *inflight}).Middleware(h)
	}
}

// cmdCacheServe runs the HTTP remote-cache server over this checkout's
// store, so other machines can point -remote-cache (or
// $MARSHAL_REMOTE_CACHE) at it, with a Prometheus /metrics endpoint beside
// the cache API so one scrape target covers the server's activity and its
// store usage. `cache serve` and `metrics serve` are this one function under
// two names and two default ports.
func cmdCacheServe(m *core.Marshal, name, defaultAddr string, args []string) int {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	addr := fs.String("addr", defaultAddr, "listen address")
	hub := fs.String("hub", "", "central cache URL; makes this server a write-through edge (PUTs replicate upward, GET misses read through, hub outages degrade to local-only)")
	limit := limitFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	store, err := openLocalStore(m)
	if err != nil {
		fmt.Fprintf(os.Stderr, "marshal %s: %v\n", name, err)
		return 1
	}
	srv := remote.NewServer(store)
	srv.SetObs(m.Obs)
	if *hub != "" {
		hc, err := m.HubCache(*hub)
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal %s: %v\n", name, err)
			return 1
		}
		srv.SetHub(hc)
		fmt.Printf("write-through hub: %s\n", *hub)
	}
	// Store usage is point-in-time, not event-counted; the refresh hook
	// pulls it into gauges right before each scrape.
	refresh := func() {
		if u, err := store.Usage(); err == nil {
			m.Obs.Gauge("cas_store_blobs").Set(float64(u.Blobs))
			m.Obs.Gauge("cas_store_blob_bytes").Set(float64(u.BlobBytes))
			m.Obs.Gauge("cas_store_actions").Set(float64(u.Actions))
		}
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(m.Obs, refresh))
	mux.Handle("/", srv)
	fmt.Printf("serving artifact cache %s and /metrics on %s\n", store.Dir(), *addr)
	if err := serveGraceful("marshal "+name, *addr, limit(mux), nil); err != nil {
		fmt.Fprintf(os.Stderr, "marshal %s: %v\n", name, err)
		return 1
	}
	return 0
}

// cmdMetrics exposes the observability surface: `metrics serve` is `cache
// serve` on the metrics port.
func cmdMetrics(m *core.Marshal, args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "marshal metrics: expected a subcommand: serve")
		return 2
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "serve":
		return cmdCacheServe(m, "metrics serve", ":8415", rest)
	default:
		fmt.Fprintf(os.Stderr, "marshal metrics: unknown subcommand %q (want serve)\n", sub)
		return 2
	}
}

// cmdWorker runs the distributed-launch worker daemon: it serves the
// fleet protocol and executes leased jobs against the shared remote cache.
func cmdWorker(m *core.Marshal, args []string) int {
	if len(args) == 0 || args[0] != "serve" {
		fmt.Fprintln(os.Stderr, "marshal worker: expected a subcommand: serve")
		return 2
	}
	return cmdWorkerServe(m, args[1:])
}

func cmdWorkerServe(m *core.Marshal, args []string) int {
	fs := flag.NewFlagSet("worker serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8416", "listen address")
	slots := fs.Int("slots", 1, "concurrent simulation slots (leases beyond it queue)")
	timeout := fs.Duration("timeout", 0, "default per-attempt timeout for leases that carry none")
	retries := fs.Int("retries", 0, "default retry attempts for leases that carry none")
	limit := limitFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cache, err := m.Cache()
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal worker serve:", err)
		return 1
	}
	rem := cache.Remote()
	if rem == nil {
		fmt.Fprintln(os.Stderr, "marshal worker serve: a worker needs the fleet's shared cache: set -remote-cache (or $MARSHAL_REMOTE_CACHE) to a `marshal cache serve` server")
		return 1
	}
	w := lremote.NewWorker(lremote.WorkerConfig{
		Runner: &lremote.ArtifactRunner{
			Store:   cache.Local(),
			Remote:  rem,
			CkptDir: m.CkptDir(),
			Obs:     m.Obs,
			Log:     os.Stderr,
		},
		Slots:   *slots,
		Timeout: *timeout,
		Retries: *retries,
		Obs:     m.Obs,
		Log:     os.Stderr,
	})
	fmt.Printf("worker: serving on %s (slots=%d, shared cache=%s)\n", *addr, *slots, m.RemoteCache)
	if err := serveGraceful("marshal worker", *addr, limit(w), w.Close); err != nil {
		fmt.Fprintln(os.Stderr, "marshal worker serve:", err)
		return 1
	}
	return 0
}

// parseSeeds parses a -seeds list: comma-separated integers and
// inclusive ranges, e.g. "1,2,10-14".
func parseSeeds(s string) ([]int64, error) {
	var seeds []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		// Split on a dash AFTER the first character so negative seeds
		// ("-3", "-5--1") still parse.
		if i := strings.Index(part[1:], "-"); i >= 0 {
			lo, err := strconv.ParseInt(part[:i+1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad seed range %q", part)
			}
			hi, err := strconv.ParseInt(part[i+2:], 10, 64)
			if err != nil || hi < lo {
				return nil, fmt.Errorf("bad seed range %q", part)
			}
			for v := lo; v <= hi; v++ {
				seeds = append(seeds, v)
			}
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", part)
		}
		seeds = append(seeds, v)
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("empty seed list")
	}
	return seeds, nil
}

// cmdVerifyFarm runs one differential-verification farm session and
// reports its findings. Exit status: 0 when every workload agreed across
// tiers, 1 when any divergence signature was found, 2 on usage errors.
func cmdVerifyFarm(m *core.Marshal, args []string) int {
	fs := flag.NewFlagSet("verify-farm", flag.ContinueOnError)
	opts := core.VerifyOpts{Params: verify.Params{Seeds: []int64{1, 2, 3, 4, 5, 6, 7, 8}}}
	fs.Func("seeds", "corpus seeds: comma `list` and inclusive ranges, e.g. 1,2,10-14 (default 1-8)", func(s string) (err error) {
		opts.Seeds, err = parseSeeds(s)
		return err
	})
	fs.IntVar(&opts.Rounds, "rounds", 1, "coverage-guided mutation rounds after the seed round")
	fs.IntVar(&opts.Mutations, "mutations", 0, "mutants per round (0 = one per seed)")
	fs.IntVar(&opts.MaxEntries, "max-entries", 0, "stop after N corpus entries (0 = unbounded)")
	fs.Uint64Var(&opts.MaxInstrs, "max-instrs", 0, "per-workload instruction budget (0 = default)")
	fs.Uint64Var(&opts.CkptEvery, "ckpt-every", 0, "bisector coarse checkpoint interval (0 = default)")
	fs.IntVar(&opts.RTLEvery, "rtl-every", 0, "cycle-exact spot-check every Nth clean entry (0 = off)")
	fs.Int64Var(&opts.FarmSeed, "farm-seed", 0, "mutation RNG seed (fixed => byte-identical manifests)")
	fs.Func("inject-fault", "seeded-fault self-test: `tier:instr:reg:xor`, e.g. fast:5000:x27:0x1", func(s string) (err error) {
		opts.Fault, err = verify.ParseFault(s)
		return err
	})
	fs.IntVar(&opts.Jobs, "j", 0, "evaluation parallelism (0 = GOMAXPROCS)")
	fs.IntVar(&opts.Jobs, "jobs", 0, "alias for -j")
	fs.DurationVar(&opts.Timeout, "timeout", 0, "time-box the whole session, e.g. 5m (0 = none)")
	fs.StringVar(&opts.Out, "out", "", "manifest path (default <workdir>/verify/farm.jsonl)")
	workers := fs.String("workers", "", "comma-separated worker addresses: shard the corpus across a fleet (requires -remote-cache)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "marshal verify-farm: unexpected arguments (the farm generates its own workloads)")
		return 2
	}
	opts.Workers = lremote.SplitAddrs(*workers)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := m.VerifyFarm(ctx, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal verify-farm:", err)
		return 1
	}

	fmt.Printf("verify-farm: %d entries, %d divergences, %d unique signatures\n",
		res.Entries, res.Divergences, len(res.Signatures))
	fmt.Print(res.Coverage.Report())
	fmt.Printf("manifest: %s\n", res.Manifest)
	if len(res.Signatures) == 0 {
		fmt.Println("PASS: all tiers agree on every workload")
		return 0
	}
	sigs := make([]string, 0, len(res.Signatures))
	for sig := range res.Signatures {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		fmt.Printf("FAIL %s: %d hit(s)", sig, res.Signatures[sig])
		if d, ok := res.Repros[sig]; ok {
			fmt.Printf(", repro %s", d)
		}
		fmt.Println()
	}
	return 1
}

// cmdChaos runs the chaos gate: a clean loopback worker fleet and a
// fault-injected one, asserting the workload survives the schedule with
// bit-identical results. -schedule-only prints the seed's deterministic
// fault schedule without running anything — diffing two invocations is
// the replay check.
func cmdChaos(m *core.Marshal, args []string) int {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "fault-schedule seed (same seed = same schedule)")
	workers := fs.Int("workers", 3, "loopback fleet size")
	scheduleOnly := fs.Bool("schedule-only", false, "print the seed's fault schedule and exit (no fleet)")
	hedgeAfter := fs.Duration("hedge-after", 0, "straggler-hedging threshold (default 250ms)")
	slowDelay := fs.Duration("slow-delay", 0, "injected delay on the slow worker's leases (default 2s)")
	timeout := fs.Duration("timeout", 0, "per-job simulation timeout (0 = none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *scheduleOnly {
		plan := chaos.DefaultPlan(*seed)
		fmt.Printf("seed %d fingerprint %s\n", *seed, plan.Fingerprint())
		for _, site := range []string{"coord-cache", "coord-worker", "worker0-cache", "worker0-store"} {
			plan.Describe(os.Stdout, site, 32)
		}
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "marshal chaos: expected exactly one workload argument")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	_, err := m.Chaos(ctx, fs.Arg(0), core.ChaosOpts{
		Seed:         *seed,
		Workers:      *workers,
		HedgeAfter:   *hedgeAfter,
		SlowJobDelay: *slowDelay,
		JobTimeout:   *timeout,
		Out:          os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal chaos:", err)
		return 1
	}
	return 0
}

func cmdList(m *core.Marshal) int {
	fmt.Println("built-in workloads:")
	for _, name := range m.Loader.Builtins() {
		fmt.Printf("  %s\n", name)
	}
	fmt.Println("search path:")
	for _, dir := range m.Loader.SearchPath {
		fmt.Printf("  %s\n", dir)
		entries, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".json") || strings.HasSuffix(e.Name(), ".yaml") {
				fmt.Printf("    %s\n", e.Name())
			}
		}
	}
	return 0
}

func cmdGraph(m *core.Marshal, args []string) int {
	fs := flag.NewFlagSet("graph", flag.ContinueOnError)
	wl, ok := oneWorkload(fs, args)
	if !ok {
		return 2
	}
	w, err := m.Loader.Load(wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal graph:", err)
		return 1
	}
	chain := w.Chain()
	for i, c := range chain {
		indent := strings.Repeat("  ", i)
		details := describeWorkload(c)
		fmt.Printf("%s%s%s\n", indent, c.Name, details)
	}
	for _, job := range w.Jobs {
		base := w.Name + " (implicit)"
		if job.Base != "" {
			base = job.Base
		}
		fmt.Printf("%sjob %s <- %s%s\n", strings.Repeat("  ", len(chain)), job.Name, base, describeWorkload(job))
	}
	return 0
}

// describeWorkload summarizes the options a workload adds over its base.
func describeWorkload(w *firemarshalWorkload) string {
	var opts []string
	if w.Command != "" {
		opts = append(opts, "command")
	}
	if w.Run != "" {
		opts = append(opts, "run")
	}
	if w.Overlay != "" {
		opts = append(opts, "overlay")
	}
	if len(w.Files) > 0 {
		opts = append(opts, "files")
	}
	if w.HostInit != "" {
		opts = append(opts, "host-init")
	}
	if w.GuestInit != "" {
		opts = append(opts, "guest-init")
	}
	if w.Linux != nil {
		opts = append(opts, "linux")
	}
	if w.Firmware != nil {
		opts = append(opts, "firmware")
	}
	if w.Spike != "" {
		opts = append(opts, "spike")
	}
	if w.Bin != "" {
		opts = append(opts, "bin")
	}
	if w.Img != "" {
		opts = append(opts, "img")
	}
	if w.Distro != "" {
		opts = append(opts, "distro="+w.Distro)
	}
	if len(opts) == 0 {
		return ""
	}
	return "  [" + strings.Join(opts, " ") + "]"
}

func cmdStatus(m *core.Marshal, args []string) int {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	wl, ok := oneWorkload(fs, args)
	if !ok {
		return 2
	}
	w, err := m.Loader.Load(wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal status:", err)
		return 1
	}
	for _, tgt := range core.Targets(w) {
		fmt.Printf("%s:\n", tgt.Name)
		for _, p := range []struct{ label, path string }{
			{"bin", m.BinPath(tgt.Name)},
			{"img", m.ImgPath(tgt.Name)},
			{"bin(nodisk)", m.NoDiskBinPath(tgt.Name)},
		} {
			if info, err := os.Stat(p.path); err == nil {
				fmt.Printf("  %-12s %s (%d bytes)\n", p.label, p.path, info.Size())
			} else {
				fmt.Printf("  %-12s (not built)\n", p.label)
			}
		}
	}
	return 0
}
