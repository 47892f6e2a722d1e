package main

import (
	"slices"
	"sort"
	"syscall"
	"time"
)

// quartiles returns the first quartile, median and third quartile of
// values by the method of Python's statistics.quantiles(values, n=4)
// (exclusive), which the acceptance rule for this benchmark is written
// in. Fewer than two values have no spread: all three are the value.
func quartiles(values []float64) (q1, med, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	_, med, _ := quartiles(values)
	return med
}

// trimmedMean is the mean of values with the smallest and the largest
// left out (the plain mean of fewer than three).
func trimmedMean(values []float64) float64 {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	if len(xs) >= 3 {
		xs = xs[1 : len(xs)-1]
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(len(xs), 1))
}

// summary is the distribution of one metric on one workload.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(unit string, values []float64) summary {
	s := summary{Unit: unit, N: len(values), Values: values}
	if len(values) == 0 {
		return s
	}
	s.Q1, s.Median, s.Q3 = quartiles(values)
	s.Min, s.Max = slices.Min(values), slices.Max(values)
	return s
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is the process's high-water resident set, in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
