package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesCode holds BENCHMARK.json to the contract's limits
// and to the metric and workload tables the program emits from.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	if n := len(m.Workloads); n < 2 || n > 5 {
		t.Errorf("%d workloads, want 2..5", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", m.RunSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not of the contract's form", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range m.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q) in the manifest, %q (%q) in the program", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got []manifestMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("manifest declares %d %s metrics, the program %d", len(got), kind, len(want))
		}
		for i, g := range got {
			unique(g.Name)
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q is not of the contract's form", g.Name, g.Unit)
			}
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s metric %d is %+v in the manifest, %+v in the program", kind, i, g, w)
			}
		}
	}
	same("end-to-end", m.EndToEnd, endToEnd)
	same("per-layer", m.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
}

// smokeRun measures one workload at smoke scale, traced, into dir.
func smokeRun(t *testing.T, w workload, dir string) (workloadResult, string) {
	t.Helper()
	c := &config{sz: smokeScale, seed: 1, dir: dir, references: map[string]facts{}}
	var out bytes.Buffer
	wr, err := c.measure(&out, w, protocol{runs: 1, tracedReps: 1})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	printWorkload(&out, w.name, wr)
	return wr, out.String()
}

// exactCounts are the per-layer metrics that are counts of simulated or
// scheduled work: identical on every run of one commit.
func exactCounts(wr workloadResult, prefixes ...string) map[string]float64 {
	out := map[string]float64{}
	for name, v := range wr.PerLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				out[name] = v.Value
			}
		}
	}
	return out
}

// TestEveryWorkloadAtSmokeScale runs all five scenarios end to end and
// checks what each emits: every declared metric exactly once, no failed
// operation, a well-formed span tree, and exact counts that repeat.
func TestEveryWorkloadAtSmokeScale(t *testing.T) {
	m := readManifest(t)
	var matrix map[string]float64
	for _, w := range workloads {
		dir := t.TempDir()
		wr, printed := smokeRun(t, w, dir)
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, wr.Failed, wr.Attempted, wr.Errors)
		}

		lines := map[string]int{}
		sc := bufio.NewScanner(strings.NewReader(printed))
		for sc.Scan() {
			if f := strings.Fields(sc.Text()); len(f) >= 4 && f[1] == w.name {
				lines[f[0]]++
			}
		}
		for _, d := range append(append([]manifestMetric{}, m.EndToEnd...), m.PerLayer...) {
			if lines[d.Name] != 1 {
				t.Errorf("%s: metric %s printed %d times, want once", w.name, d.Name, lines[d.Name])
			}
		}
		if lines[failRatio] != 1 {
			t.Errorf("%s: %s printed %d times, want once", w.name, failRatio, lines[failRatio])
		}

		// The trace file is the span tree; self times must be computable
		// and non-negative, and most of the root must be attributed.
		var spans []span
		data, err := os.ReadFile(filepath.Join(dir, w.name+".trace.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
			var s span
			if err := json.Unmarshal(line, &s); err != nil {
				t.Fatalf("%s trace: %v", w.name, err)
			}
			spans = append(spans, s)
		}
		self, err := selfTimes(spans)
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		roots := 0
		for _, s := range spans {
			if s.Parent == 0 {
				roots++
			}
			if self[s.ID] < 0 {
				t.Errorf("%s: span %s has negative self time", w.name, s.Name)
			}
		}
		if roots != 1 || len(spans) < 2 {
			t.Errorf("%s: %d spans with %d roots", w.name, len(spans), roots)
		}

		// The probes ride along with every traced run, so the matrix's
		// exact counts must agree from one workload's run to the next.
		got := exactCounts(wr, "sim.instrs.", "rtlsim.cycles.")
		if len(got) != 2*numShapes {
			t.Errorf("%s: %d matrix counts, want %d", w.name, len(got), 2*numShapes)
		}
		if matrix == nil {
			matrix = got
		}
		for name, v := range got {
			if v <= 0 || v != matrix[name] {
				t.Errorf("%s: %s = %v, an earlier run had %v", w.name, name, v, matrix[name])
			}
		}
		for _, tier := range tiers {
			for _, shape := range programs[:numShapes] {
				if wr.PerLayer["sim."+tier+"."+shape.name+".mips"].Value <= 0 {
					t.Errorf("%s: matrix cell %s x %s did not run", w.name, tier, shape.name)
				}
			}
		}

		if w.name == "build_churn" {
			again, _ := smokeRun(t, w, t.TempDir())
			first := exactCounts(wr, "dag.")
			for name, v := range exactCounts(again, "dag.") {
				if v != first[name] {
					t.Errorf("%s = %v on the second run, %v on the first", name, v, first[name])
				}
			}
			if first["dag.executed_noop"] != 0 || first["dag.executed_cold"] == 0 || first["dag.restored_warm"] == 0 {
				t.Errorf("dag counts %v: want a no-op build that executes nothing, a cold one and a warm restore that do work", first)
			}
		}
	}
}

// TestGoldenMismatchFails pins a smoke-scale golden, checks a clean run
// against it passes, then corrupts first a pinned fact and then a
// reference file `marshal test` reads: each must fail the run.
func TestGoldenMismatchFails(t *testing.T) {
	golden, dir := t.TempDir(), t.TempDir()
	args := func(extra ...string) []string {
		return append([]string{"-scale", "smoke", "-workload", "func_launch", "-golden", golden, "-dir", dir, "-seconds", "0"}, extra...)
	}
	var out bytes.Buffer
	if code := run(&out, args("-update-golden")); code != 0 {
		t.Fatalf("pinning the golden: exit %d\n%s", code, out.String())
	}

	lastLine := func() map[string]any {
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var v map[string]any
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
		}
		return v
	}
	out.Reset()
	if code := run(&out, args("-trace", "0")); code != 0 {
		t.Fatalf("clean run against its own golden: exit %d\n%s", code, out.String())
	}
	if v := lastLine(); v["correct"] != true || v["failed"] != 0.0 || v["attempted"].(float64) < 1 {
		t.Fatalf("clean run reported %v", v)
	}
	if !strings.Contains(out.String(), "checked against golden") {
		t.Errorf("the run does not say it checked against the golden:\n%s", out.String())
	}

	corrupt := func(rel string, edit func(string) string) func() {
		path := filepath.Join(golden, "1", "func_launch", filepath.FromSlash(rel))
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		changed := edit(string(orig))
		if changed == string(orig) {
			t.Fatalf("corrupting %s changed nothing", rel)
		}
		if err := os.WriteFile(path, []byte(changed), 0o644); err != nil {
			t.Fatal(err)
		}
		return func() { os.WriteFile(path, orig, 0o644) }
	}
	for _, c := range []struct{ what, rel, old, new string }{
		{"a pinned cycle count", "facts.json", `"job.divide.cycles": "`, `"job.divide.cycles": "9`},
		{"a reference output", "refs/stream/output/result.csv", "stream,", "stream,9"},
	} {
		restore := corrupt(c.rel, func(s string) string { return strings.Replace(s, c.old, c.new, 1) })
		out.Reset()
		if code := run(&out, args("-trace", "0")); code == 0 {
			t.Errorf("with %s corrupted the run still exits 0", c.what)
		}
		if v := lastLine(); v["correct"] != false || v["failed"].(float64) < 1 {
			t.Errorf("with %s corrupted the run reported %v", c.what, v)
		}
		restore()
	}
}

// TestCompareVerdicts checks the comparator's four verdicts and its exit
// code on synthetic results.
func TestCompareVerdicts(t *testing.T) {
	sum := func(vals ...float64) summary { return summarize("s", vals) }
	for _, c := range []struct {
		name string
		a, b summary
		want string
	}{
		{"same", sum(1.00, 1.01, 1.02, 1.01, 1.00), sum(1.01, 1.02, 1.01, 1.00, 1.02), verdictSame},
		{"worse", sum(1.00, 1.01, 1.02, 1.01, 1.00), sum(1.20, 1.21, 1.22, 1.21, 1.20), verdictWorse},
		{"better", sum(1.00, 1.01, 1.02, 1.01, 1.00), sum(0.80, 0.81, 0.82, 0.81, 0.80), verdictBetter},
		{"unresolved", sum(1.00, 1.30, 0.90, 1.20, 1.05), sum(1.10, 1.25, 0.95, 1.15, 1.00), verdictUnresolved},
	} {
		if got := verdict(c.a, c.b, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}

	mk := func(wall summary, failed int) *result {
		wr := workloadResult{EndToEnd: map[string]summary{}, Attempted: 10, Failed: failed}
		for _, d := range endToEnd {
			wr.EndToEnd[d.name] = wall
		}
		return &result{Workloads: map[string]workloadResult{"func_launch": wr}}
	}
	base := sum(1.00, 1.01, 1.02, 1.01, 1.00)
	var out bytes.Buffer
	if code := compareResults(&out, mk(base, 0), mk(base, 0)); code != 0 {
		t.Errorf("identical results: exit %d\n%s", code, out.String())
	}
	if code := compareResults(&out, mk(base, 0), mk(sum(1.3, 1.3, 1.31, 1.3, 1.3), 0)); code == 0 {
		t.Error("a 30% slowdown exits 0")
	}
	if code := compareResults(&out, mk(base, 0), mk(base, 1)); code == 0 {
		t.Error("a fail_ratio increase exits 0")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, med, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || med != 13.5 || q3 != 31.0 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}

func TestTrimmedMean(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{9, 1, 2, 3}, 2.5}, // 1 and 9 left out
		{[]float64{4, 2}, 3},
		{[]float64{7}, 7},
	} {
		if got := trimmedMean(c.in); got != c.want {
			t.Errorf("trimmedMean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
