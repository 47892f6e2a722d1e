// Command benchmark is the repository's benchmark: it drives FireMarshal
// from outside, through the public functions each layer exports, over five
// fixed-size workloads, and reports three end-to-end timings plus a failure
// count per workload and, from a separate traced run, per-layer metrics.
// README.md in this directory is the manual.
//
//	go run ./benchmark                      every workload: warm-up, R timed runs, one traced run
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//
// The last form is one measurement for an external driver; it ends with a
// single JSON line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is everything measured on one workload.
type workloadResult struct {
	EndToEnd  map[string]summary     `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	// Checked says what outputs were compared with: "golden" for a pinned
	// seed, otherwise "self-consistency".
	Checked string `json:"checked"`
}

// result is the file a complete invocation writes.
type result struct {
	Env       map[string]string         `json:"env"`
	Workloads map[string]workloadResult `json:"workloads"`
}

func main() {
	os.Exit(run(os.Stdout, os.Args[1:]))
}

// run is the whole command: it prints to stdout and returns the exit code.
func run(stdout io.Writer, args []string) int {
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	seed := fl.Int64("seed", 1, "workload seed: feeds kernel data tables and overlay payload bytes only")
	runs := fl.Int("runs", 5, "runs per workload; each reports the trimmed mean of its repetitions")
	only := fl.String("workload", "", "run one workload (default: all five)")
	out := fl.String("out", "", "result file (default <dir>/result.json)")
	scale := fl.String("scale", "full", "fixed sizes to run at: full or smoke")
	dir := fl.String("dir", filepath.Join("benchmark", "out"), "directory for scratch trees, traces and the result file")
	goldenDir := fl.String("golden", "", "golden tree to check against (default: the embedded one, full scale only)")
	update := fl.Bool("update-golden", false, "rewrite the seed's goldens under -golden (default benchmark/golden) from this run")
	compare := fl.Bool("compare", false, "compare two result files: -compare a.json b.json")
	secs := fl.Int("seconds", 15, "how long one run measures: it repeats set-up and the fixed-size scenario until then")
	trace := fl.Int("trace", -1, "driver mode, one run ending in a JSON line: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fl.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(stdout, fl.Arg(0), fl.Arg(1))
	}

	sz, ok := scaleByName(*scale)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown scale %q\n", *scale)
		return 2
	}
	c := &config{sz: sz, seed: *seed, dir: *dir, references: map[string]facts{}}
	switch {
	case *update:
		c.updateGolden = *goldenDir
		if c.updateGolden == "" {
			c.updateGolden = filepath.Join("benchmark", "golden")
		}
		*runs = 1
	case *goldenDir != "" || sz.name == "full":
		c.goldens = openGoldens(*goldenDir, *seed)
	}

	selected := workloads
	if *only != "" {
		w, ok := workloadByName(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *only)
			return 2
		}
		selected = []workload{w}
	}

	driver := *trace >= 0
	if driver && len(selected) != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace needs -workload")
		return 2
	}
	res := result{Env: environment(*seed, *runs, sz), Workloads: map[string]workloadResult{}}
	failed := false
	for _, w := range selected {
		p := protocol{runs: *runs, seconds: float64(*secs), warmup: true, tracedReps: 5}
		if driver {
			p.runs, p.tracedReps = 1, 5**trace
		}
		wr, err := c.measure(stdout, w, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		res.Workloads[w.name] = wr
		printWorkload(stdout, w.name, wr)
		failed = failed || wr.Failed > 0
	}

	if driver {
		// The contract's last line: end-to-end metrics with tracing off,
		// per-layer metrics from the traced run.
		wr := res.Workloads[selected[0].name]
		metrics := map[string]metricValue{}
		if *trace == 1 {
			metrics = wr.PerLayer
		} else {
			for _, d := range endToEnd {
				metrics[d.name] = metricValue{Value: wr.EndToEnd[d.name].Median, Unit: d.unit}
			}
		}
		line, _ := json.Marshal(map[string]any{
			"correct": wr.Failed == 0, "attempted": wr.Attempted, "failed": wr.Failed, "metrics": metrics,
		})
		fmt.Fprintln(stdout, string(line))
	} else {
		path := *out
		if path == "" {
			path = filepath.Join(*dir, "result.json")
		}
		data, _ := json.MarshalIndent(res, "", " ")
		if err := writeFile(path, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# result written to %s\n", path)
	}
	if failed {
		return 1
	}
	return 0
}

// protocol is how one workload is measured. A run repeats the fixed-size
// scenario, each repetition after its own set-up in fresh directories,
// for `seconds` of wall time, and reports each timing as the mean over
// its repetitions with the fastest and the slowest left out: time per
// repetition, the inverse of throughput. A median is no use here: on this
// host the page-cache-heavy scenarios alternate between a fast and a slow
// repetition, and the median of an even mixture lands on either side
// (README.md has the measurements). A smoke-scale warm-up precedes the
// runs; a few traced repetitions and the single-layer probes follow them.
type protocol struct {
	runs    int
	seconds float64
	warmup  bool
	// tracedReps is how many traced repetitions follow the runs (0: none);
	// the one nearest their trimmed mean supplies the spans.
	tracedReps int
}

// timedRun makes one run: repetitions, set-up included, until `seconds`
// have passed (at least one), and the trimmed mean of each timing.
func (c *config) timedRun(w workload, seconds float64, wr *workloadResult) (setupS, wallS, cpuS float64, err error) {
	var setups, walls, cpus []float64
	for t0 := time.Now(); len(walls) == 0 || time.Since(t0).Seconds() < seconds; {
		s, err := c.runOnce(w, c.sz, false)
		if err != nil {
			return 0, 0, 0, err
		}
		setups, walls, cpus = append(setups, s.setupS), append(walls, s.wallS), append(cpus, s.cpuS)
		wr.add(s.attempted, s.failed, s.errs)
	}
	return trimmedMean(setups), trimmedMean(walls), trimmedMean(cpus), nil
}

func (c *config) measure(stdout io.Writer, w workload, p protocol) (workloadResult, error) {
	wr := workloadResult{EndToEnd: map[string]summary{}, Checked: "self-consistency"}
	if c.goldens.workload(w.name) != nil {
		wr.Checked = "golden"
	}
	fmt.Fprintf(stdout, "# %s: seed %d, scale %s, outputs checked against %s\n", w.name, c.seed, c.sz.name, wr.Checked)

	if p.warmup {
		// One untimed pass over every code path at smoke size, so the
		// first repetition does not pay for lazy initialisation.
		warm := *c
		warm.updateGolden = ""
		if _, err := warm.runOnce(w, smokeScale, false); err != nil {
			return wr, fmt.Errorf("warm-up: %w", err)
		}
	}

	values := map[string][]float64{}
	for i := 0; i < p.runs; i++ {
		setupS, wallS, cpuS, err := c.timedRun(w, p.seconds, &wr)
		if err != nil {
			return wr, err
		}
		values["setup_s"] = append(values["setup_s"], setupS)
		values["wall_s"] = append(values["wall_s"], wallS)
		values["cpu_s"] = append(values["cpu_s"], cpuS)
	}
	for _, d := range endToEnd {
		wr.EndToEnd[d.name] = summarize(d.unit, values[d.name])
	}
	if p.tracedReps == 0 {
		return wr, nil
	}

	// The traced run: the same scenario with the span recorder on, then
	// the single-layer probes.
	traced := make([]sample, p.tracedReps)
	walls := make([]float64, p.tracedReps)
	for i := range traced {
		rep, err := c.runOnce(w, c.sz, true)
		if err != nil {
			return wr, err
		}
		wr.add(rep.attempted, rep.failed, rep.errs)
		traced[i], walls[i] = rep, rep.wallS
	}
	tracedWall := trimmedMean(walls)
	s := traced[0]
	for _, rep := range traced {
		if math.Abs(rep.wallS-tracedWall) < math.Abs(s.wallS-tracedWall) {
			s = rep
		}
	}
	if err := writeJSONL(filepath.Join(c.dir, w.name+".trace.jsonl"), s.spans); err != nil {
		return wr, err
	}
	probeDir := filepath.Join(c.dir, "tmp", "probes")
	defer os.RemoveAll(probeDir)
	po := runProbes(c.sz, c.seed, probeDir)
	if c.updateGolden != "" {
		if err := writeFactsFile(filepath.Join(c.updateGolden, fmt.Sprint(c.seed), "probes.json"), po.facts); err != nil {
			return wr, err
		}
	}
	po.check(c.goldens.probes(), "golden")
	wr.add(po.attempted, po.failed, po.errs)

	layer := s.layer
	for k, v := range po.layer {
		layer[k] = v
	}
	byLayer, rootS, err := layerSelfSeconds(s.spans)
	if err != nil {
		return wr, fmt.Errorf("%s trace: %w", w.name, err)
	}
	for _, l := range selfLayers {
		layer["self."+l+"_s"] = byLayer[l]
	}
	layer["host.peak_rss_mb"] = peakRSSMiB()
	layer["bench.trace_overhead_ratio"] = tracedWall/wr.EndToEnd["wall_s"].Median - 1
	layer["bench.attributed_ratio"] = 1 - byLayer[layerBench]/rootS
	wr.PerLayer = map[string]metricValue{}
	for _, d := range perLayer {
		wr.PerLayer[d.name] = metricValue{Value: layer[d.name], Unit: d.unit}
	}
	return wr, nil
}

func (wr *workloadResult) add(attempted, failed int, errs []string) {
	wr.Attempted += attempted
	wr.Failed += failed
	wr.Errors = append(wr.Errors, errs...)
}

// printWorkload prints one line per metric: name workload value unit.
func printWorkload(w io.Writer, name string, wr workloadResult) {
	for _, d := range endToEnd {
		s := wr.EndToEnd[d.name]
		fmt.Fprintf(w, "%s %s %.6g %s  (q1 %.6g q3 %.6g min %.6g max %.6g n %d)\n",
			d.name, name, s.Median, d.unit, s.Q1, s.Q3, s.Min, s.Max, s.N)
	}
	fmt.Fprintf(w, "%s %s %.6g ratio  (%d failed of %d attempted)\n",
		failRatio, name, float64(wr.Failed)/float64(max(wr.Attempted, 1)), wr.Failed, wr.Attempted)
	for _, d := range perLayer {
		if v, ok := wr.PerLayer[d.name]; ok {
			fmt.Fprintf(w, "%s %s %.6g %s\n", d.name, name, v.Value, v.Unit)
		}
	}
	for _, e := range wr.Errors {
		fmt.Fprintf(w, "# FAIL %s: %s\n", name, e)
	}
}

// environment records where and how the numbers were taken.
func environment(seed int64, runs int, sz sizes) map[string]string {
	env := map[string]string{
		"cpu":        cpuModel(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     "unknown",
		"seed":       fmt.Sprint(seed),
		"runs":       fmt.Sprint(runs),
		"scale":      sz.name,
		"date":       time.Now().UTC().Format("2006-01-02"),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	return env
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}
