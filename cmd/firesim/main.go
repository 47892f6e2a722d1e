// Command firesim is the cycle-exact simulator manager: it consumes
// workload configurations produced by `marshal install` and simulates each
// job on the FireSim-role RTL platform. Users provide the hardware
// configuration here (branch predictor, caches), exactly as §IV-B.1
// describes: "Users now interact with their RTL simulator as usual,
// providing their hardware configuration and any other simulation
// parameters they wish."
//
// Usage:
//
//	firesim -config DIR -output DIR [-predictor tage] [-j N] [-verify]
//	        [-resume] [-ckpt-every N] [-metrics FILE]
//	        [-workers HOST:PORT,... -remote-cache URL]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"firemarshal/internal/fsrun"
	"firemarshal/internal/hostutil"
	"firemarshal/internal/install"
	"firemarshal/internal/launcher"
	"firemarshal/internal/launcher/remote"
	"firemarshal/internal/netsim"
	"firemarshal/internal/sim/rtlsim"
)

// kib is a size in bytes, set by a flag given in KiB.
type kib int

func (k *kib) String() string { return strconv.Itoa(int(*k) >> 10) }

func (k *kib) Set(s string) error {
	n, err := strconv.Atoi(s)
	*k = kib(n << 10)
	return err
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) (code int) {
	fs := flag.NewFlagSet("firesim", flag.ContinueOnError)
	configDir := fs.String("config", "", "installed workload directory (from `marshal install`)")
	outputDir := fs.String("output", "", "directory for per-job run outputs")
	// The hardware flags set the one configuration the run simulates.
	rtl := rtlsim.DefaultConfig()
	fs.StringVar(&rtl.Predictor, "predictor", rtl.Predictor, "branch predictor: bimodal, gshare, tage, static")
	fs.Var((*kib)(&rtl.ICache.SizeBytes), "icache-kib", "L1 instruction cache size (`KiB`)")
	fs.Var((*kib)(&rtl.DCache.SizeBytes), "dcache-kib", "L1 data cache size (`KiB`)")
	var jobs int
	fs.IntVar(&jobs, "j", 0, "number of concurrent job simulations (0 = GOMAXPROCS, 1 = sequential)")
	fs.IntVar(&jobs, "jobs", 0, "alias for -j")
	timeout := fs.Duration("timeout", 0, "per-job simulation timeout (0 = none)")
	retries := fs.Int("retries", 0, "retry transiently-failing jobs up to N times")
	resume := fs.Bool("resume", false, "continue an interrupted run: carry nodes the journal records as ok, restore in-flight nodes from their latest checkpoint")
	ckptEvery := fs.Uint64("ckpt-every", 0, "snapshot each node's machine state every N retired instructions (0 = off)")
	metrics := fs.String("metrics", "", "write a JSON metrics snapshot to FILE after the run")
	workers := fs.String("workers", "", "comma-separated `marshal worker serve` addresses: simulate nodes on a worker fleet")
	remoteCache := fs.String("remote-cache", os.Getenv("MARSHAL_REMOTE_CACHE"), "shared cache server URL, required with -workers (default $MARSHAL_REMOTE_CACHE)")
	netLatency := fs.Uint64("net-latency", 0, "network one-way latency in cycles (0 = default)")
	netBandwidth := fs.Uint64("net-bandwidth", 0, "network bandwidth in bytes/cycle (0 = default)")
	verify := fs.Bool("verify", false, "compare outputs against the workload's reference directory")
	verbose := fs.Bool("v", false, "verbose output")
	cpuprofile := fs.String("cpuprofile", "", "write a host CPU profile of the simulation to this file")
	memprofile := fs.String("memprofile", "", "write a host heap profile to this file at exit (flushed even when the run is interrupted and drained)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *configDir == "" || *outputDir == "" {
		fmt.Fprintln(os.Stderr, "firesim: -config and -output are required")
		fs.PrintDefaults()
		return 2
	}

	cfg, err := install.Load(*configDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "firesim:", err)
		return 1
	}

	// Two-stage Ctrl-C, as in `marshal launch`: a drained run still
	// returns through the deferred profile flushes below.
	ctx, drain, stop := launcher.TwoStageInterrupt("firesim")
	defer stop()

	opts := fsrun.Options{
		RTL:          rtl,
		Jobs:         jobs,
		Timeout:      *timeout,
		Retries:      *retries,
		OutputDir:    *outputDir,
		ManifestPath: filepath.Join(*outputDir, "manifest.jsonl"),
		Resume:       *resume,
		Context:      ctx,
		Drain:        drain,
		CkptEvery:    *ckptEvery,
		MetricsPath:  *metrics,
		Workers:      remote.SplitAddrs(*workers),
		RemoteCache:  *remoteCache,
	}
	if *netLatency != 0 || *netBandwidth != 0 {
		opts.Net = netsim.Config{LatencyCycles: *netLatency, BytesPerCycle: *netBandwidth}
	}
	if *verbose {
		opts.Log = os.Stderr
	}
	// A profile is collected in memory and replaces its file at exit; an
	// empty file written first fails an unwritable path before the run, and
	// a write that fails at exit all the same fails the exit status.
	writeProfile := func(flag, path string, prof []byte) bool {
		err := hostutil.WriteFileAtomic(path, prof, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "firesim: %s: %v\n", flag, err)
			code = 1
		}
		return err == nil
	}
	if *cpuprofile != "" {
		if !writeProfile("cpuprofile", *cpuprofile, nil) {
			return 1
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintln(os.Stderr, "firesim: cpuprofile:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			writeProfile("cpuprofile", *cpuprofile, prof.Bytes())
		}()
	}
	if *memprofile != "" {
		if !writeProfile("memprofile", *memprofile, nil) {
			return 1
		}
		defer func() {
			runtime.GC() // materialize up-to-date allocation stats
			var prof bytes.Buffer
			if err := pprof.WriteHeapProfile(&prof); err != nil {
				fmt.Fprintln(os.Stderr, "firesim: memprofile:", err)
				code = 1
				return
			}
			writeProfile("memprofile", *memprofile, prof.Bytes())
		}()
	}
	res, runErr := fsrun.Run(cfg, opts)
	if res == nil {
		fmt.Fprintln(os.Stderr, "firesim:", runErr)
		return 1
	}
	fmt.Printf("workload %s: %d node(s) simulated in %s\n", cfg.Workload, len(res.Jobs), res.HostTime.Round(time.Millisecond))
	for _, job := range res.Jobs {
		fmt.Printf("  %-24s exit=%-3d cycles=%-12d ipc=%.3f mispredict=%.4f outputs=%s\n",
			job.Name, job.ExitCode, job.Cycles, job.Stats.IPC(), job.Stats.MispredictRate(), job.OutputDir)
	}
	if res.Summary != nil && len(res.Summary.Jobs) > 0 {
		fmt.Printf("\n%s", launcher.FormatTable(res.Summary))
		fmt.Printf("manifest: %s\n", opts.ManifestPath)
	}
	if *metrics != "" {
		fmt.Printf("metrics: %s\n", *metrics)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "firesim:", runErr)
		return 1
	}

	if *verify {
		failures, err := fsrun.Verify(cfg, *outputDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "firesim verify:", err)
			return 1
		}
		if len(failures) > 0 {
			for _, f := range failures {
				fmt.Printf("VERIFY FAIL: %s\n", f)
			}
			return 1
		}
		fmt.Println("VERIFY PASS")
	}
	return 0
}
