// SPEC2017 case study (§IV-B, Listings 2-3, Fig. 6): provide the intspeed
// benchmark suite as a reusable FireMarshal workload and use it to compare
// two branch predictors on the same hardware platform.
//
// The flow mirrors the paper's user experience (§IV-B.1):
//
//  1. "Install SPEC": the suite binaries are cross-compiled (generated and
//     assembled here — SPEC itself is licensed software).
//  2. Write the workload: ten jobs, one per benchmark, differing only in
//     the command (Listing 2).
//  3. marshal build, marshal install.
//  4. Run the RTL simulation twice — once with the Gshare predictor (BOOM
//     v2) and once with TAGE — with jobs simulated in parallel.
//  5. The post-run processing combines per-benchmark results into a CSV
//     like Listing 3 and prints the score comparison (Fig. 6's data).
//
// Run with: go run ./examples/spec2017
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"firemarshal"
	"firemarshal/internal/asm"
	"firemarshal/internal/isa"
	"firemarshal/internal/workgen"
)

func main() {
	scratch, err := os.MkdirTemp("", "marshal-spec-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(scratch)
	wlDir := filepath.Join(scratch, "workloads")
	binDir := filepath.Join(wlDir, "overlay", "intspeed", "spec", "bin")
	os.MkdirAll(binDir, 0o755)

	// Step 1-2: cross-compile the suite (Speckle's role) into the overlay.
	suite := workgen.IntSpeedSuite()
	for _, b := range suite {
		exe, err := asm.Assemble(b.Source("test"), asm.Options{})
		if err != nil {
			log.Fatalf("%s: %v", b.Name, err)
		}
		if err := os.WriteFile(filepath.Join(binDir, b.Name), isa.EncodeExecutable(exe), 0o755); err != nil {
			log.Fatal(err)
		}
	}
	os.WriteFile(filepath.Join(wlDir, "overlay", "intspeed", "intspeed.sh"),
		[]byte(workgen.IntSpeedRunScript()), 0o755)

	// The workload of Listing 2: ten jobs, one per benchmark, each
	// differing only in the command option.
	var jobs []string
	for _, b := range suite {
		jobs = append(jobs, fmt.Sprintf(
			`    { "name": %q, "command": "/intspeed.sh %s --threads 1" }`, b.Name, b.Name))
	}
	workload := fmt.Sprintf(`{
  "name": "intspeed",
  "base": "buildroot",
  "overlay": "overlay/intspeed",
  "rootfs-size": "3GiB",
  "outputs": ["/output"],
  "jobs": [
%s
  ]
}`, strings.Join(jobs, ",\n"))
	os.WriteFile(filepath.Join(wlDir, "intspeed.json"), []byte(workload), 0o644)
	fmt.Println("intspeed.json (Listing 2):")
	fmt.Println(firstLines(workload, 10), "  ...")

	m, err := firemarshal.New(filepath.Join(scratch, "work"), wlDir)
	if err != nil {
		log.Fatal(err)
	}

	// Step 3: marshal build + install (one command each).
	fmt.Println("\n== marshal build intspeed.json && marshal install intspeed.json ==")
	dir, err := m.Install("intspeed", firemarshal.InstallOpts{})
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := firemarshal.LoadInstalled(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("installed %d jobs (each becomes a FireSim node, run in parallel)\n", len(cfg.Jobs))

	// Step 4: run under both branch predictors.
	type row struct {
		cycles uint64
		score  float64
	}
	results := map[string]map[string]row{} // predictor -> bench -> row
	for _, predictor := range []string{"gshare", "tage"} {
		rtl := firemarshal.DefaultRTLConfig()
		rtl.Predictor = predictor
		simRes, err := firemarshal.RunInstalled(cfg, firemarshal.SimOptions{
			RTL:       rtl,
			Jobs:      runtime.GOMAXPROCS(0),
			OutputDir: filepath.Join(scratch, "sim-"+predictor),
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: simulated %d nodes in %s (host wall clock)\n",
			predictor, len(simRes.Jobs), simRes.HostTime.Round(1000000))

		// Step 5: combine per-benchmark results (the post-run-hook's job).
		results[predictor] = map[string]row{}
		for _, job := range simRes.Jobs {
			data, err := os.ReadFile(filepath.Join(job.OutputDir, "output", "results.csv"))
			if err != nil {
				log.Fatalf("%s: %v", job.Name, err)
			}
			fields := strings.Split(strings.TrimSpace(string(data)), ",")
			name := fields[0]
			cycles, _ := strconv.ParseUint(fields[1], 10, 64)
			ref := refSeconds(suite, name)
			realTime := float64(cycles) / 1e9 // 1 GHz
			results[predictor][name] = row{cycles: cycles, score: ref / realTime}
		}
	}

	// Listing 3 style CSV for the TAGE configuration.
	fmt.Println("\nname,RealTime,score   (TAGE configuration, Listing 3 format)")
	var names []string
	for name := range results["tage"] {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := results["tage"][name]
		fmt.Printf("%s,%.6f,%.2f\n", name, float64(r.cycles)/1e9, r.score)
	}

	// Fig. 6: per-benchmark score comparison.
	fmt.Println("\nFig. 6 — intspeed score by branch predictor (higher is better):")
	fmt.Printf("%-20s %10s %10s %8s\n", "benchmark", "gshare", "tage", "tage/gsh")
	var gMean float64
	wins := 0
	for _, name := range names {
		g, t := results["gshare"][name], results["tage"][name]
		ratio := t.score / g.score
		gMean += ratio
		if ratio >= 1 {
			wins++
		}
		fmt.Printf("%-20s %10.2f %10.2f %8.3f\n", name, g.score, t.score, ratio)
	}
	fmt.Printf("\nTAGE wins on %d/%d benchmarks (mean ratio %.3f)\n", wins, len(names), gMean/float64(len(names)))
}

func refSeconds(suite []workgen.Benchmark, name string) float64 {
	for _, b := range suite {
		if b.Name == name {
			return b.RefSeconds
		}
	}
	return 1
}

func firstLines(s string, n int) string {
	lines := strings.Split(s, "\n")
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
