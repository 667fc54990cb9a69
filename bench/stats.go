package main

import (
	"math"
	"sort"
)

// numWindows is how many equal windows a measured run is cut into. Every
// percentile and rate metric is the median of the per-window values, so
// one window disturbed by a neighbour on the shared host moves nothing.
const numWindows = 5

// numSetups is how many times a run sets the system up; setup_s is the
// median of the timed set-ups, so a cold first one moves nothing. A
// quick run sets up quickSetups times.
const (
	numSetups   = 5
	quickSetups = 2
)

// percentile returns the p-quantile (0 < p < 1) of sorted by the
// nearest-rank rule; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// opTailPercentile is the percentile reported under the fixed name
// op_p95_ms. A tail percentile needs at least ten samples beyond it, or
// it is one or two outliers: p95 has that from 200 ops in the window set
// on; with fewer the run reports p90 and says so. It never reports above
// p95, so the metric means the same on every workload fast enough.
func opTailPercentile(n int) float64 {
	if float64(n)*(1-0.95) >= 10 {
		return 0.95
	}
	return 0.90
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vals, n=4) (the default, exclusive method) gives
// them — the driver that accepts the benchmark uses that function, so
// `repeat` and `compare` must agree with it. Needs at least two values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run (or window-to-window) noise a bound has to clear.
func spread(vals []float64) float64 {
	med := median(vals)
	if med == 0 || len(vals) < 2 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return math.Abs((q3 - q1) / med)
}
