package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported
// percentile. A tail read from fewer samples than this is a guess, so
// percentile refuses it.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of xs by nearest rank,
// together with the sample count it was read from. It refuses a
// percentile with fewer than minBeyond samples beyond it: p50 needs 20
// samples, p99 needs 1000.
func percentile(xs []float64, p float64) (float64, int, error) {
	n := len(xs)
	if p <= 0 || p >= 1 {
		return 0, n, fmt.Errorf("percentile %g outside (0,1)", p)
	}
	if beyond := int(math.Floor(float64(n) * (1 - p))); beyond < minBeyond {
		return 0, n, fmt.Errorf("p%g needs %d samples beyond it; %d samples leave %d",
			p*100, minBeyond, n, beyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(n))) - 1
	return s[rank], n, nil
}

// median is the middle of xs (the mean of the two middle values for an
// even count). It summarizes a handful of repetitions, where a tail
// percentile would be meaningless; it returns NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// windowRates bins completion timestamps (ns since the start of the
// timed region), each completing per units of work, into fixed windows
// of width ns over [0, span) and returns each whole window's rate in
// units per second. A partial trailing window is dropped so every rate
// covers the same length of time.
func windowRates(at []int64, per float64, width, span int64) []float64 {
	n := int(span / width)
	if n <= 0 {
		return nil
	}
	sums := make([]float64, n)
	for _, t := range at {
		if w := int(t / width); t >= 0 && w < n {
			sums[w] += per
		}
	}
	for i := range sums {
		sums[i] /= float64(width) / 1e9
	}
	return sums
}
