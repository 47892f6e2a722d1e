package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of one (end-to-end metric, workload) row.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// verdict judges candidate b against base a for a lower-is-better metric
// that may worsen by at most bound (a share of a's median):
//
//   - unresolved: either side's quartile range is wider than the bound and
//     the two ranges overlap, so the runs cannot tell the sides apart;
//   - worse: b's median exceeds a's by more than the bound;
//   - better: b's median is below a's by more than a's own quartile range
//     and the ranges do not overlap;
//   - same: otherwise.
func verdict(a, b summary, bound float64) string {
	if a.Median <= 0 {
		return verdictUnresolved
	}
	overlap := a.Q1 <= b.Q3 && b.Q1 <= a.Q3
	spread := (a.Q3 - a.Q1) / a.Median
	if b.Median > 0 && (b.Q3-b.Q1)/b.Median > spread {
		spread = (b.Q3 - b.Q1) / b.Median
	}
	switch {
	case spread > bound && overlap:
		return verdictUnresolved
	case b.Median > a.Median*(1+bound):
		return verdictWorse
	case !overlap && a.Median-b.Median > a.Q3-a.Q1:
		return verdictBetter
	}
	return verdictSame
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per (end-to-end metric, workload) of base
// file a against candidate b and returns the exit code: non-zero on any
// "worse" row or any fail_ratio increase.
func compareFiles(w io.Writer, pathA, pathB string) int {
	var loaded [2]*result
	for i, path := range []string{pathA, pathB} {
		r, err := readResult(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
		loaded[i] = r
	}
	return compareResults(w, loaded[0], loaded[1])
}

func compareResults(w io.Writer, a, b *result) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tbase median [q1, q3]\tcandidate median [q1, q3]\tratio (candidate/base)\tbound\tverdict")
	code := 0
	for _, wl := range workloads {
		ra, okA := a.Workloads[wl.name]
		rb, okB := b.Workloads[wl.name]
		if !okA || !okB {
			continue
		}
		for _, d := range endToEnd {
			sa, sb := ra.EndToEnd[d.name], rb.EndToEnd[d.name]
			v := verdict(sa, sb, d.bound)
			if v == verdictWorse {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %s\t%.4g [%.4g, %.4g] %s\t%.3f of %.4g\t+%.0f%%\t%s\n",
				d.name, wl.name, sa.Median, sa.Q1, sa.Q3, d.unit, sb.Median, sb.Q1, sb.Q3, d.unit,
				sb.Median/sa.Median, sa.Median, d.bound*100, v)
		}
		// fail_ratio is bounded absolutely: any increase is worse.
		fa := float64(ra.Failed) / float64(max(ra.Attempted, 1))
		fb := float64(rb.Failed) / float64(max(rb.Attempted, 1))
		v := verdictSame
		switch {
		case fb > fa:
			v, code = verdictWorse, 1
		case fb < fa:
			v = verdictBetter
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g (%d of %d)\t%.4g (%d of %d)\t%+.4g absolute\t0\t%s\n",
			failRatio, wl.name, fa, ra.Failed, ra.Attempted, fb, rb.Failed, rb.Attempted, fb-fa, v)
	}
	tw.Flush()
	return code
}
