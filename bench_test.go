// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, per the experiment index in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark regenerates the corresponding result (printing the
// series/rows once) and reports headline numbers as benchmark metrics.
// Absolute values are properties of this reproduction's simulators; the
// shapes — who wins, by what factor, where the crossovers are — are the
// paper's.
package firemarshal

import (
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"firemarshal/internal/asm"
	"firemarshal/internal/boards"
	"firemarshal/internal/cas"
	"firemarshal/internal/cas/remote"
	"firemarshal/internal/core"
	"firemarshal/internal/isa"
	"firemarshal/internal/obs"
	"firemarshal/internal/pfa"
	"firemarshal/internal/sim"
	"firemarshal/internal/sim/approxsim"
	"firemarshal/internal/sim/bpred"
	"firemarshal/internal/sim/funcsim"
	"firemarshal/internal/sim/rtlsim"
	"firemarshal/internal/workgen"
)

var printOnce sync.Map

// once prints a result block a single time per benchmark name, so repeated
// b.N iterations do not spam the output.
func once(name string, f func()) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		f()
	}
}

func mustAssemble(b testing.TB, src string) *isa.Executable {
	b.Helper()
	exe, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return exe
}

// benchMarshal builds a Marshal over temp dirs with the given workload
// files ({name: content}; .sh files are written executable).
func benchMarshal(b *testing.B, files map[string]string) (*core.Marshal, string) {
	b.Helper()
	wlDir := b.TempDir()
	for name, content := range files {
		p := filepath.Join(wlDir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			b.Fatal(err)
		}
		mode := os.FileMode(0o644)
		if strings.HasSuffix(name, ".sh") || strings.HasSuffix(name, ".bin") {
			mode = 0o755
		}
		if err := os.WriteFile(p, []byte(content), mode); err != nil {
			b.Fatal(err)
		}
	}
	m, err := core.New(b.TempDir(), wlDir)
	if err != nil {
		b.Fatal(err)
	}
	return m, wlDir
}

// ---------------------------------------------------------------------------
// Fig. 2 — the typical FireMarshal flow: build -> launch -> collect ->
// compare against known-good outputs.
// ---------------------------------------------------------------------------

func BenchmarkFig2Workflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, _ := benchMarshal(b, map[string]string{
			"w.json":       `{"name":"w","base":"br-base","command":"echo fig2-flow > /output/r.txt; echo fig2-console","outputs":["/output/r.txt"],"testing":{"refDir":"refs"}}`,
			"refs/uartlog": "fig2-console\n",
			"refs/r.txt":   "fig2-flow\n",
		})
		results, err := m.Test("w", core.TestOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if !results[0].Passed {
			b.Fatalf("workflow comparison failed: %+v", results[0].Failures)
		}
	}
}

// ---------------------------------------------------------------------------
// Fig. 3 — build outputs: boot binary + disk image, and the --no-disk
// variant with the rootfs embedded in the initramfs.
// ---------------------------------------------------------------------------

func BenchmarkFig3Build(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, _ := benchMarshal(b, map[string]string{
			"w.json": `{"name":"w","base":"br-base","command":"echo x"}`,
		})
		results, err := m.Build("w", core.BuildOpts{NoDisk: true})
		if err != nil {
			b.Fatal(err)
		}
		res := results[0]
		if res.Bin == "" || res.Img == "" || res.NoDiskBin == "" {
			b.Fatal("missing Fig. 3 outputs")
		}
		if i == 0 {
			binSize := fileSize(b, res.Bin)
			imgSize := fileSize(b, res.Img)
			ndSize := fileSize(b, res.NoDiskBin)
			once("fig3", func() {
				fmt.Printf("\nFig3: boot-binary=%dB disk-image=%dB nodisk-binary=%dB (nodisk embeds the image)\n",
					binSize, imgSize, ndSize)
			})
			b.ReportMetric(float64(ndSize)/float64(binSize), "nodisk/bin-size-ratio")
		}
	}
}

func fileSize(b *testing.B, p string) int64 {
	info, err := os.Stat(p)
	if err != nil {
		b.Fatal(err)
	}
	return info.Size()
}

// ---------------------------------------------------------------------------
// Fig. 5 — PFA latency microbenchmark: per-step remote-page-fault latency,
// hardware PFA vs the software-paging baseline over the same network.
// ---------------------------------------------------------------------------

func BenchmarkFig5PFALatency(b *testing.B) {
	const pages = 32
	backend := &pfa.GoldenBackend{Latency: 1200}
	for i := 0; i < b.N; i++ {
		// Hardware path.
		rtl, err := rtlsim.New(rtlsim.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		dev, err := pfa.NewDevice(pfa.DefaultTiming(), backend, boards.PFARemoteBase, pages*pfa.PageSize)
		if err != nil {
			b.Fatal(err)
		}
		rtl.AddDevice(dev)
		rtl.AddHook(dev)
		var hwOut strings.Builder
		if _, err := rtl.Exec(mustAssemble(b, workgen.PFAClientSource(pages)), &hwOut); err != nil {
			b.Fatal(err)
		}
		hw := dev.TotalStats()

		// Software baseline path (emulated PFA in the fault handler).
		rtl2, _ := rtlsim.New(rtlsim.DefaultConfig())
		base, err := pfa.NewBaseline(pfa.DefaultBaselineTiming(), backend, boards.PFARemoteBase, pages*pfa.PageSize)
		if err != nil {
			b.Fatal(err)
		}
		rtl2.AddHook(base)
		var swOut strings.Builder
		if _, err := rtl2.Exec(mustAssemble(b, workgen.PFABaselineClientSource(pages)), &swOut); err != nil {
			b.Fatal(err)
		}
		sw := base.TotalStats()

		hwPer := float64(hw.TotalCycles()) / float64(hw.Faults)
		swPer := float64(sw.TotalCycles()) / float64(sw.Faults)
		if i == 0 {
			once("fig5", func() {
				fmt.Printf("\nFig5: per-step remote-page-fault latency, cycles/fault over %d faults\n", hw.Faults)
				fmt.Printf("%-12s %10s %10s %10s %10s %10s\n", "config", "detect", "walk", "fetch", "install", "total")
				fmt.Printf("%-12s %10.0f %10.0f %10.0f %10.0f %10.0f\n", "pfa",
					per(hw.DetectCycles, hw.Faults), per(hw.WalkCycles, hw.Faults),
					per(hw.RDMACycles, hw.Faults), per(hw.InstallCycles, hw.Faults), hwPer)
				fmt.Printf("%-12s %10.0f %10.0f %10.0f %10.0f %10.0f\n", "sw-paging",
					per(sw.DetectCycles, sw.Faults), per(sw.WalkCycles, sw.Faults),
					per(sw.RDMACycles, sw.Faults), per(sw.InstallCycles, sw.Faults), swPer)
				fmt.Printf("critical-path overhead beyond the raw fetch: pfa=%.0f sw=%.0f cycles (%.1fx)\n",
					hwPer-1200, swPer-1200, (swPer-1200)/(hwPer-1200))
			})
			b.ReportMetric(hwPer, "pfa-cycles/fault")
			b.ReportMetric(swPer, "sw-cycles/fault")
			b.ReportMetric(swPer/hwPer, "sw/pfa-ratio")
		}
		if swPer <= hwPer {
			b.Fatal("baseline must be slower than the PFA")
		}
	}
}

func per(total, n uint64) float64 { return float64(total) / float64(n) }

// ---------------------------------------------------------------------------
// Fig. 6 / Listings 2-3 — SPEC2017 intspeed on the reference dataset:
// Gshare (BOOM v2) vs TAGE, per-benchmark score.
// ---------------------------------------------------------------------------

func BenchmarkFig6BranchPredictors(b *testing.B) {
	suite := workgen.IntSpeedSuite()
	exes := make([]*isa.Executable, len(suite))
	for i, bench := range suite {
		exes[i] = mustAssemble(b, bench.Source("ref"))
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		type result struct {
			cycles     uint64
			mispredict float64
		}
		scores := map[string]map[string]result{}
		for _, predictor := range []string{"gshare", "tage"} {
			scores[predictor] = map[string]result{}
			for i, bench := range suite {
				cfg := rtlsim.DefaultConfig()
				cfg.Predictor = predictor
				p, err := rtlsim.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := p.Exec(exes[i], io.Discard)
				if err != nil {
					b.Fatal(err)
				}
				scores[predictor][bench.Name] = result{cycles: res.Cycles, mispredict: p.Stats().MispredictRate()}
			}
		}
		if n == 0 {
			ratioSum := 0.0
			wins := 0
			once("fig6", func() {
				fmt.Printf("\nFig6: intspeed (ref dataset) score by branch predictor\n")
				fmt.Printf("%-20s %12s %12s %9s %9s %8s\n", "benchmark", "gshare-score", "tage-score", "gsh-miss", "tage-miss", "speedup")
			})
			for _, bench := range suite {
				g := scores["gshare"][bench.Name]
				t := scores["tage"][bench.Name]
				gScore := bench.RefSeconds / (float64(g.cycles) / 1e9)
				tScore := bench.RefSeconds / (float64(t.cycles) / 1e9)
				ratio := tScore / gScore
				ratioSum += ratio
				if ratio >= 1.0 {
					wins++
				}
				once("fig6-"+bench.Name, func() {
					fmt.Printf("%-20s %12.2f %12.2f %9.4f %9.4f %8.3f\n",
						bench.Name, gScore, tScore, g.mispredict, t.mispredict, ratio)
				})
			}
			b.ReportMetric(ratioSum/float64(len(suite)), "mean-tage/gshare-score")
			b.ReportMetric(float64(wins), "tage-wins-of-10")
			if wins < 7 {
				b.Fatalf("TAGE should win most benchmarks, won %d/10", wins)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// §IV-B speedup — running the 10 intspeed jobs as parallel FireSim nodes
// ("reduced the runtime for our experiment from about two weeks to roughly
// two days"). Measured as host wall clock serial vs parallel.
// ---------------------------------------------------------------------------

func BenchmarkJobParallelism(b *testing.B) {
	m, wlDir := specWorkload(b, "test")
	dir, err := m.Install("intspeed", core.InstallOpts{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := loadInstalled(b, dir)
	_ = wlDir
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serial, err := RunInstalled(cfg, SimOptions{RTL: DefaultRTLConfig(), Jobs: 1, OutputDir: filepath.Join(b.TempDir(), "s")})
		if err != nil {
			b.Fatal(err)
		}
		parallel, err := RunInstalled(cfg, SimOptions{RTL: DefaultRTLConfig(), Jobs: runtime.GOMAXPROCS(0), OutputDir: filepath.Join(b.TempDir(), "p")})
		if err != nil {
			b.Fatal(err)
		}
		speedup := float64(serial.HostTime) / float64(parallel.HostTime)
		// The paper ran each job on its own FireSim FPGA node: completion
		// time drops from the sum of node times to the max ("from about two
		// weeks to roughly two days"). Model that from simulated cycles,
		// which is host-independent; the measured host speedup is
		// additionally bounded by runtime.NumCPU.
		var sumCycles, maxCycles uint64
		for _, job := range serial.Jobs {
			sumCycles += job.Cycles
			if job.Cycles > maxCycles {
				maxCycles = job.Cycles
			}
		}
		cluster := float64(sumCycles) / float64(maxCycles)
		if i == 0 {
			once("parallel", func() {
				fmt.Printf("\nJobParallelism: 10 intspeed jobs serial=%v parallel=%v host-speedup=%.2fx (%d CPU)\n",
					serial.HostTime.Round(1000000), parallel.HostTime.Round(1000000), speedup, runtime.NumCPU())
				fmt.Printf("  cluster model: sum(node cycles)=%d max=%d -> %.1fx fewer sim-days with one FPGA per job\n",
					sumCycles, maxCycles, cluster)
			})
			b.ReportMetric(speedup, "host-speedup")
			b.ReportMetric(cluster, "cluster-speedup")
		}
		if cluster < 2 {
			b.Fatalf("cluster-parallel speedup %.2f implausibly low", cluster)
		}
	}
}

func specWorkload(b *testing.B, dataset string) (*core.Marshal, string) {
	b.Helper()
	files := map[string]string{
		"overlay/intspeed.sh": workgen.IntSpeedRunScript(),
	}
	var jobs []string
	for _, bench := range workgen.IntSpeedSuite() {
		exe := mustAssemble(b, bench.Source(dataset))
		files["overlay/spec/bin/"+bench.Name+".bin"] = string(isa.EncodeExecutable(exe))
		jobs = append(jobs, fmt.Sprintf(`    {"name": %q, "command": "/intspeed.sh %s --threads 1"}`, bench.Name, bench.Name))
	}
	files["intspeed.json"] = fmt.Sprintf(`{
  "name": "intspeed", "base": "buildroot", "overlay": "overlay",
  "rootfs-size": "3GiB", "outputs": ["/output"],
  "jobs": [
%s
  ]}`, strings.Join(jobs, ",\n"))
	m, wlDir := benchMarshal(b, files)
	// The overlay writes "<name>.bin"; the dispatcher expects "<name>".
	for _, bench := range workgen.IntSpeedSuite() {
		oldPath := filepath.Join(wlDir, "overlay/spec/bin", bench.Name+".bin")
		if err := os.Rename(oldPath, strings.TrimSuffix(oldPath, ".bin")); err != nil {
			b.Fatal(err)
		}
		os.Chmod(strings.TrimSuffix(oldPath, ".bin"), 0o755)
	}
	return m, wlDir
}

func loadInstalled(b *testing.B, dir string) *InstalledConfig {
	b.Helper()
	cfg, err := LoadInstalled(dir)
	if err != nil {
		b.Fatal(err)
	}
	return cfg
}

// ---------------------------------------------------------------------------
// Fig. 7 — education flow: the tile sweep on the accelerator, with the
// determinism check grading depends on.
// ---------------------------------------------------------------------------

func BenchmarkFig7Education(b *testing.B) {
	const n = 64
	for i := 0; i < b.N; i++ {
		cyclesFor := func(tile int) (uint64, uint64) {
			run := func() uint64 {
				rtl, err := rtlsim.New(rtlsim.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				drivers, err := boards.DeviceProfile("gemmini", boards.ProfileOpts{})
				if err != nil {
					b.Fatal(err)
				}
				for _, d := range drivers {
					if err := d.Attach(rtl); err != nil {
						b.Fatal(err)
					}
				}
				res, err := rtl.Exec(mustAssemble(b, workgen.MatmulSource(n, tile)), io.Discard)
				if err != nil {
					b.Fatal(err)
				}
				return res.Cycles
			}
			return run(), run()
		}
		naive1, naive2 := cyclesFor(1)
		tiled1, tiled2 := cyclesFor(16)
		if naive1 != naive2 || tiled1 != tiled2 {
			b.Fatal("cycle counts not repeatable")
		}
		if tiled1 >= naive1 {
			b.Fatal("tiling should reduce cycles")
		}
		if i == 0 {
			once("fig7", func() {
				fmt.Printf("\nFig7: matmul %dx%d — naive(tile=1)=%d cycles, tiled(tile=16)=%d cycles (%.2fx); repeat runs cycle-exact\n",
					n, n, naive1, tiled1, float64(naive1)/float64(tiled1))
			})
			b.ReportMetric(float64(naive1)/float64(tiled1), "tiled-speedup")
		}
	}
}

// ---------------------------------------------------------------------------
// §III-B — dependency tracking: incremental no-op rebuild vs clean build.
// ---------------------------------------------------------------------------

// chainFiles is the 4-deep inheritance chain shared by the rebuild and
// cache benchmarks. Every level does the representative per-workload work
// of §III-B: a kernel config fragment (custom kernel build) and a
// guest-init script that boots the image in functional simulation and runs
// real software in the guest — the base level does the expensive one-time
// setup (a ref-dataset compute job standing in for compiling packages
// inside the guest), children run a quick smoke check. A cache restore
// skips all of it.
func chainFiles(b *testing.B) map[string]string {
	b.Helper()
	bench := workgen.IntSpeedSuite()[0]
	setup := string(isa.EncodeExecutable(mustAssemble(b, bench.Source("ref"))))
	smoke := string(isa.EncodeExecutable(mustAssemble(b, bench.Source("test"))))
	return map[string]string{
		"p1.kfrag":           "CONFIG_PFA=y\n",
		"overlay1/setup.bin": setup,
		"init1.sh":           "#!/bin/sh\n/setup.bin\necho init p1 > /etc/p1\n",
		"p1.json":            `{"name":"p1","base":"br-base","linux":{"config":"p1.kfrag"},"overlay":"overlay1","guest-init":"init1.sh","command":"echo 1"}`,
		"p2.kfrag":           "CONFIG_ICENET=y\n",
		"overlay2/smoke.bin": smoke,
		"init2.sh":           "#!/bin/sh\n/setup.bin\n/smoke.bin\necho init p2 > /etc/p2\n",
		"p2.json":            `{"name":"p2","base":"p1","linux":{"config":"p2.kfrag"},"overlay":"overlay2","guest-init":"init2.sh","command":"echo 2"}`,
		"p3.kfrag":           "CONFIG_DEBUG_INFO=y\n",
		"init3.sh":           "#!/bin/sh\n/smoke.bin\necho init p3 > /etc/p3\n",
		"p3.json":            `{"name":"p3","base":"p2","linux":{"config":"p3.kfrag"},"guest-init":"init3.sh","command":"echo 3"}`,
		"initw.sh":           "#!/bin/sh\n/smoke.bin\necho init w > /etc/w\n",
		"w.json":             `{"name":"w","base":"p3","guest-init":"initw.sh","command":"echo leaf"}`,
	}
}

// benchChainMarshal builds a Marshal over the chain workloads with an
// explicit workload dir, cache dir, and remote URL (either may be "").
func benchChainMarshal(b *testing.B, wlDir, cacheDir, remoteURL string) *core.Marshal {
	b.Helper()
	m, err := core.New(b.TempDir(), wlDir)
	if err != nil {
		b.Fatal(err)
	}
	m.CacheDir = cacheDir
	m.RemoteCache = remoteURL
	return m
}

func BenchmarkIncrementalRebuild(b *testing.B) {
	wlDir := b.TempDir()
	for name, content := range chainFiles(b) {
		p := filepath.Join(wlDir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			b.Fatal(err)
		}
		mode := os.FileMode(0o644)
		if strings.HasSuffix(name, ".sh") || strings.HasSuffix(name, ".bin") {
			mode = 0o755
		}
		if err := os.WriteFile(p, []byte(content), mode); err != nil {
			b.Fatal(err)
		}
	}

	// cold: full build with an empty cache every iteration.
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := benchChainMarshal(b, wlDir, b.TempDir(), "")
			if _, err := m.Build("w", core.BuildOpts{}); err != nil {
				b.Fatal(err)
			}
			if len(m.LastBuildStats.Executed) == 0 {
				b.Fatal("cold build executed nothing")
			}
		}
	})

	// noop: rebuild in place; the state DB skips everything.
	b.Run("noop", func(b *testing.B) {
		m := benchChainMarshal(b, wlDir, b.TempDir(), "")
		if _, err := m.Build("w", core.BuildOpts{}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Build("w", core.BuildOpts{}); err != nil {
				b.Fatal(err)
			}
			if len(m.LastBuildStats.Executed) != 0 {
				b.Fatal("no-op rebuild executed tasks")
			}
		}
	})

	// warm-cache: a fresh checkout every iteration, restored entirely from
	// a shared local action cache (zero build actions run).
	b.Run("warm-cache", func(b *testing.B) {
		cacheDir := b.TempDir()
		coldStart := time.Now()
		seed := benchChainMarshal(b, wlDir, cacheDir, "")
		if _, err := seed.Build("w", core.BuildOpts{}); err != nil {
			b.Fatal(err)
		}
		coldTime := time.Since(coldStart)
		b.ResetTimer()
		var warmTotal time.Duration
		for i := 0; i < b.N; i++ {
			m := benchChainMarshal(b, wlDir, cacheDir, "")
			start := time.Now()
			if _, err := m.Build("w", core.BuildOpts{}); err != nil {
				b.Fatal(err)
			}
			warmTotal += time.Since(start)
			if len(m.LastBuildStats.Executed) != 0 {
				b.Fatal("warm-cache rebuild executed tasks")
			}
			if len(m.LastBuildStats.Restored) == 0 {
				b.Fatal("warm-cache rebuild restored nothing")
			}
		}
		warm := warmTotal / time.Duration(b.N)
		speedup := float64(coldTime) / float64(warm)
		b.ReportMetric(speedup, "cold/warm-speedup")
		once("warm-cache", func() {
			fmt.Printf("\nIncrementalRebuild: cold=%v warm-cache=%v (%.1fx faster; zero build actions on warm)\n",
				coldTime, warm, speedup)
		})
	})

	// remote-hit: a fresh checkout AND fresh local cache every iteration,
	// restored from the HTTP remote-cache server.
	b.Run("remote-hit", func(b *testing.B) {
		serverStore, err := cas.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(remote.NewServer(serverStore))
		defer srv.Close()
		seed := benchChainMarshal(b, wlDir, b.TempDir(), srv.URL)
		if _, err := seed.Build("w", core.BuildOpts{}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := benchChainMarshal(b, wlDir, b.TempDir(), srv.URL)
			if _, err := m.Build("w", core.BuildOpts{}); err != nil {
				b.Fatal(err)
			}
			if len(m.LastBuildStats.Executed) != 0 {
				b.Fatal("remote-hit rebuild executed tasks")
			}
			if m.LastBuildStats.Cache.RemoteHits == 0 {
				b.Fatal("remote-hit rebuild did not touch the remote")
			}
		}
	})
}

// BenchmarkCASRestore measures raw artifact-restore throughput out of the
// content-addressed store: publish once, restore b.N times.
func BenchmarkCASRestore(b *testing.B) {
	store, err := cas.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	cache := cas.NewCache(store, nil)
	srcDir := b.TempDir()
	var targets []string
	const artifacts = 8
	const artifactSize = 256 << 10
	payload := make([]byte, artifactSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	for i := 0; i < artifacts; i++ {
		p := filepath.Join(srcDir, fmt.Sprintf("artifact%d", i))
		if err := os.WriteFile(p, append(payload, byte(i)), 0o644); err != nil {
			b.Fatal(err)
		}
		targets = append(targets, p)
	}
	key := strings.Repeat("ab", 32)
	action, err := cache.Publish(key, "bench", targets)
	if err != nil {
		b.Fatal(err)
	}
	dstDir := b.TempDir()
	var restored []string
	for i := range targets {
		restored = append(restored, filepath.Join(dstDir, filepath.Base(targets[i])))
	}
	b.SetBytes(int64(artifacts * (artifactSize + 1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cache.Restore(action, restored); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCleanBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, _ := benchMarshal(b, map[string]string{
			"p1.json": `{"name":"p1","base":"br-base","command":"echo 1"}`,
			"p2.json": `{"name":"p2","base":"p1","command":"echo 2"}`,
			"p3.json": `{"name":"p3","base":"p2","command":"echo 3"}`,
			"w.json":  `{"name":"w","base":"p3","command":"echo leaf"}`,
		})
		if _, err := m.Build("w", core.BuildOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation — TAGE storage budget sweep (DESIGN.md ablation 2).
// ---------------------------------------------------------------------------

func BenchmarkTageBudget(b *testing.B) {
	bench := workgen.IntSpeedSuite()[6] // 631.deepsjeng_s: branch-heavy
	exe := mustAssemble(b, bench.Source("test"))
	for i := 0; i < b.N; i++ {
		if i == 0 {
			once("tage-budget-hdr", func() {
				fmt.Printf("\nTageBudget: 631.deepsjeng_s cycles by tagged-table size\n")
			})
		}
		prev := uint64(0)
		for _, bits := range []uint{6, 8, 10, 12} {
			cfg := rtlsim.DefaultConfig()
			cfg.Predictor = "tage"
			p, err := rtlsim.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			// Rebuild with a custom TAGE budget.
			tcfg := bpred.DefaultTageConfig()
			tcfg.TableBits = bits
			custom, err := bpred.NewTage(tcfg)
			if err != nil {
				b.Fatal(err)
			}
			replacePredictor(p, custom)
			res, err := p.Exec(exe, io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				bits := bits
				cycles := res.Cycles
				once(fmt.Sprintf("tage-budget-%d", bits), func() {
					fmt.Printf("  2^%d entries/table: %d cycles\n", bits, cycles)
				})
			}
			prev = res.Cycles
		}
		_ = prev
	}
}

// replacePredictor swaps the platform's branch predictor (test/bench
// support; production code selects predictors by name).
func replacePredictor(p *rtlsim.Platform, pred bpred.Predictor) {
	p.SetPredictor(pred)
}

// ---------------------------------------------------------------------------
// Ablation — D$ size sweep on the memory-bound benchmark (DESIGN.md 3).
// ---------------------------------------------------------------------------

func BenchmarkCacheSweep(b *testing.B) {
	bench := workgen.IntSpeedSuite()[2] // 605.mcf_s: pointer chasing
	exe := mustAssemble(b, bench.Source("test"))
	for i := 0; i < b.N; i++ {
		var last uint64
		for _, kib := range []int{4, 16, 64, 256} {
			cfg := rtlsim.DefaultConfig()
			cfg.DCache.SizeBytes = kib << 10
			p, err := rtlsim.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			res, err := p.Exec(exe, io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				kib := kib
				cycles := res.Cycles
				hitRate := float64(p.Stats().DCacheHits) / float64(p.Stats().DCacheHits+p.Stats().DCacheMisses)
				once(fmt.Sprintf("cache-%d", kib), func() {
					fmt.Printf("CacheSweep: 605.mcf_s D$=%3dKiB cycles=%d hit-rate=%.3f\n", kib, cycles, hitRate)
				})
			}
			last = res.Cycles
		}
		_ = last
	}
}

// ---------------------------------------------------------------------------
// Ablation — functional vs cycle-exact simulation speed (DESIGN.md 4): the
// gap that motivates developing on QEMU and saving FireSim for evaluation.
// ---------------------------------------------------------------------------

func BenchmarkFuncVsRTLSpeed(b *testing.B) {
	bench := workgen.IntSpeedSuite()[0]
	exe := mustAssemble(b, bench.Source("ref"))
	b.Run("functional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := funcsim.New(funcsim.Config{})
			res, err := p.Exec(exe, io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Instrs), "instrs")
		}
	})
	b.Run("cycle-exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := rtlsim.New(rtlsim.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			res, err := p.Exec(exe, io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Instrs), "instrs")
		}
	})
}

// ---------------------------------------------------------------------------
// Ablation — content-hash vs timestamp dependency tracking (DESIGN.md 1):
// touching a file without changing content must not rebuild.
// ---------------------------------------------------------------------------

func BenchmarkDepTrackingHashVsStamp(b *testing.B) {
	m, wlDir := benchMarshal(b, map[string]string{
		"frag.kfrag": "CONFIG_PFA=y\n",
		"w.json":     `{"name":"w","base":"br-base","linux":{"config":"frag.kfrag"},"command":"echo x"}`,
	})
	if _, err := m.Build("w", core.BuildOpts{}); err != nil {
		b.Fatal(err)
	}
	frag := filepath.Join(wlDir, "frag.kfrag")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Touch: rewrite identical content (new mtime). A timestamp-based
		// tracker would rebuild the kernel; the hash-based one must not.
		if err := os.WriteFile(frag, []byte("CONFIG_PFA=y\n"), 0o644); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Build("w", core.BuildOpts{}); err != nil {
			b.Fatal(err)
		}
		if len(m.LastBuildStats.Executed) != 0 {
			b.Fatal("content-unchanged touch triggered a rebuild")
		}
	}
}

// parseCyclesField is shared output-parsing support for benches.
func parseCyclesField(b *testing.B, csv string, idx int) uint64 {
	b.Helper()
	fields := strings.Split(strings.TrimSpace(csv), ",")
	if len(fields) <= idx {
		b.Fatalf("bad csv %q", csv)
	}
	v, err := strconv.ParseUint(fields[idx], 10, 64)
	if err != nil {
		b.Fatalf("bad csv %q: %v", csv, err)
	}
	return v
}

// ---------------------------------------------------------------------------
// Ablation — network latency sweep (DESIGN.md follow-on): the PFA's
// end-to-end fault latency tracks the fabric, while its non-network
// overhead stays constant — the opposite of the software path, whose
// kernel overhead dominates regardless of the network.
// ---------------------------------------------------------------------------

func BenchmarkNetLatencySweep(b *testing.B) {
	const pages = 16
	exe := mustAssemble(b, workgen.PFAClientSource(pages))
	for i := 0; i < b.N; i++ {
		for _, lat := range []uint64{200, 1200, 5000} {
			backend := &pfa.GoldenBackend{Latency: lat}
			rtl, err := rtlsim.New(rtlsim.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			dev, err := pfa.NewDevice(pfa.DefaultTiming(), backend, boards.PFARemoteBase, pages*pfa.PageSize)
			if err != nil {
				b.Fatal(err)
			}
			rtl.AddDevice(dev)
			rtl.AddHook(dev)
			if _, err := rtl.Exec(exe, io.Discard); err != nil {
				b.Fatal(err)
			}
			st := dev.TotalStats()
			perFault := float64(st.TotalCycles()) / float64(st.Faults)
			overhead := perFault - float64(lat)
			if i == 0 {
				lat := lat
				once(fmt.Sprintf("netsweep-%d", lat), func() {
					fmt.Printf("NetLatencySweep: fetch=%5d cycles -> fault=%6.0f cycles (pfa overhead %3.0f, constant)\n",
						lat, perFault, overhead)
				})
				if overhead != 35 {
					b.Fatalf("pfa non-network overhead should be constant 35 cycles, got %.0f", overhead)
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// §II-A — the simulator spectrum: functional vs cycle-approximate vs
// cycle-exact, measuring both host speed and timing accuracy on the
// intspeed suite. "The general trade-off across the spectrum of simulators
// is between modeling detail and performance."
// ---------------------------------------------------------------------------

func BenchmarkSimulatorSpectrum(b *testing.B) {
	suite := workgen.IntSpeedSuite()[:4] // a representative slice
	exes := make([]*isa.Executable, len(suite))
	for i, bench := range suite {
		exes[i] = mustAssemble(b, bench.Source("ref"))
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		type row struct {
			instrs   uint64
			cycles   uint64
			hostTime time.Duration
		}
		measure := func(run func(exe *isa.Executable) (*sim.ExecResult, error)) row {
			var r row
			start := time.Now()
			for _, exe := range exes {
				res, err := run(exe)
				if err != nil {
					b.Fatal(err)
				}
				r.instrs += res.Instrs
				r.cycles += res.Cycles
			}
			r.hostTime = time.Since(start)
			return r
		}
		functional := measure(func(exe *isa.Executable) (*sim.ExecResult, error) {
			return funcsim.New(funcsim.Config{}).Exec(exe, io.Discard)
		})
		approx := measure(func(exe *isa.Executable) (*sim.ExecResult, error) {
			return approxsim.New(approxsim.DefaultConfig()).Exec(exe, io.Discard)
		})
		exact := measure(func(exe *isa.Executable) (*sim.ExecResult, error) {
			p, err := rtlsim.New(rtlsim.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			return p.Exec(exe, io.Discard)
		})
		if n == 0 {
			mips := func(r row) float64 { return float64(r.instrs) / r.hostTime.Seconds() / 1e6 }
			cpiErr := func(r row) float64 {
				return 100 * (float64(r.cycles) - float64(exact.cycles)) / float64(exact.cycles)
			}
			once("spectrum", func() {
				fmt.Printf("\nSimulatorSpectrum (4 intspeed benchmarks, ref dataset):\n")
				fmt.Printf("%-14s %10s %14s %12s\n", "platform", "Minstr/s", "est. cycles", "cycle error")
				fmt.Printf("%-14s %10.1f %14d %11.1f%%\n", "qemu (func)", mips(functional), functional.cycles, cpiErr(functional))
				fmt.Printf("%-14s %10.1f %14d %11.1f%%\n", "gem5 (approx)", mips(approx), approx.cycles, cpiErr(approx))
				fmt.Printf("%-14s %10.1f %14d %11s\n", "firesim (RTL)", mips(exact), exact.cycles, "exact")
			})
			b.ReportMetric(mips(functional)/mips(exact), "func/exact-speed")
			b.ReportMetric(cpiErr(approx), "approx-cycle-error-%")
			// Spectrum shape: functional fastest, approximate in between or
			// comparable, exact slowest; approximate error far below the
			// functional platform's (which undercounts every stall).
			if !(mips(functional) > mips(exact)) {
				b.Fatal("functional must be faster than cycle-exact")
			}
			if abs(cpiErr(approx)) >= abs(cpiErr(functional)) {
				b.Fatalf("approx error (%.1f%%) should beat functional (%.1f%%)", cpiErr(approx), cpiErr(functional))
			}
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ---------------------------------------------------------------------------
// Interpreter hot loop — simulated MIPS of the functional fast path, the
// reference StepInto loop, and the cycle-exact platform on one mixed
// ALU/load/store/branch workload. Throughput is judged by the benchmark
// harness (`go run ./benchmark`) on paired runs; what a number here could
// only hint at, that the functional loop allocates nothing in its steady
// state, TestSimMIPSLoopAllocatesNothing pins on any host.
// ---------------------------------------------------------------------------

const mipsWorkloadSrc = `
_start:
    li s0, 0
    li s1, 100000
    la s2, arr
    li s3, 0
loop:
    add t0, s3, s0
    xor t1, t0, s0
    slli t2, t1, 3
    srli t3, t2, 2
    andi t4, s0, 255
    slli t4, t4, 3
    add t5, s2, t4
    ld t6, 0(t5)
    add t6, t6, t1
    sd t6, 0(t5)
    add s3, s3, t6
    andi t0, s0, 7
    beqz t0, skip
    addi s3, s3, 1
skip:
    addi s0, s0, 1
    blt s0, s1, loop
    li a0, 0
    li a7, 93
    ecall
.data
.align 3
arr: .space 2048
`

// mipsMachine loads exe on a bare machine and returns it with a reset
// that restores the entry state, so one machine runs the workload again
// and again and the steady state exercises only the interpreter loop.
func mipsMachine(exe *isa.Executable) (*sim.Machine, func()) {
	m := sim.NewMachine()
	m.Console = io.Discard
	m.Devices = []sim.Device{&sim.UART{}}
	m.SyscallFn = sim.BareSyscalls()
	m.MaxInstrs = 500_000_000
	m.LoadExecutable(exe, sim.DefaultStackTop)
	pc0, regs0 := m.PC, m.Regs
	return m, func() {
		m.PC, m.Regs, m.Halted = pc0, regs0, false
		m.Instret, m.Now = 0, 0
	}
}

// TestSimMIPSLoopAllocatesNothing: a warmed functional run of the mixed
// workload allocates nothing, with and without obs counter shards
// attached (the wiring funcsim uses). The shards flush once per ~1 Mi
// instructions, so an allocation there, or anywhere in the loop, shows as
// a nonzero count here, whatever the host's speed.
func TestSimMIPSLoopAllocatesNothing(t *testing.T) {
	exe := mustAssemble(t, mipsWorkloadSrc)
	reg := obs.NewRegistry()
	for _, c := range []struct {
		name           string
		instrs, cycles *obs.Shard
	}{
		{"bare", nil, nil},
		{"obs", reg.Counter("sim_funcsim_instrs_total").Shard(), reg.Counter("sim_funcsim_cycles_total").Shard()},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, reset := mipsMachine(exe)
			allocs := testing.AllocsPerRun(3, func() {
				reset()
				if c.instrs != nil {
					// Re-attach after the counter reset so the flush
					// deltas restart from the fresh baselines.
					m.AttachObs(c.instrs, c.cycles)
				}
				if _, err := sim.RunFunctional(m); err != nil || m.ExitCode != 0 {
					t.Fatalf("run: err %v, exit code %d", err, m.ExitCode)
				}
			})
			if allocs != 0 {
				t.Errorf("a warmed functional run allocates %.0f times, want 0", allocs)
			}
			if c.instrs != nil && reg.Counter("sim_funcsim_instrs_total").Value() == 0 {
				t.Error("the attached shards saw no instructions")
			}
		})
	}
}

func BenchmarkSimMIPS(b *testing.B) {
	exe := mustAssemble(b, mipsWorkloadSrc)
	runLoop := func(b *testing.B, run func(m *sim.Machine) (uint64, error)) {
		m, reset := mipsMachine(exe)
		var instrs uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reset()
			n, err := run(m)
			if err != nil {
				b.Fatal(err)
			}
			if m.ExitCode != 0 {
				b.Fatalf("exit code %d", m.ExitCode)
			}
			instrs += n
		}
		b.StopTimer()
		b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "sim-MIPS")
	}
	b.Run("functional", func(b *testing.B) { runLoop(b, sim.RunFunctional) })
	b.Run("reference", func(b *testing.B) { runLoop(b, sim.RunReference) })
	b.Run("cycle-exact", func(b *testing.B) {
		// Each run gets a cold platform, built with the clock stopped:
		// predictor and cache allocation is rtlsim.New's cost, not the
		// retire loop's.
		b.ReportAllocs()
		var instrs uint64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p, err := rtlsim.New(rtlsim.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			res, err := p.Exec(exe, io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			instrs += res.Instrs
		}
		b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "sim-MIPS")
	})
}
