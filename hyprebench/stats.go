package main

import (
	"math"
	"slices"
	"time"
)

// quantiles returns the nearest-rank q-quantiles of xs: for each q the
// smallest sample v such that at least ceil(q·n) samples are <= v. The
// percentiles are exact over the raw samples (no histogram buckets); xs is
// not modified. An empty input yields zeros.
func quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		return out
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	for i, q := range qs {
		out[i] = sorted[rank(len(sorted), q)]
	}
	return out
}

// rank is the 0-based nearest-rank index of quantile q among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	return max(0, min(n-1, r))
}

// median is the 0.5 nearest-rank quantile.
func median(xs []float64) float64 { return quantiles(xs, 0.5)[0] }

// mean is the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// meanInts is the arithmetic mean of whole numbers (0 for none).
func meanInts(xs []int) float64 {
	s := 0
	for _, x := range xs {
		s += x
	}
	return frac(float64(s), float64(len(xs)))
}

// ms and us convert durations to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// inf marks a failed request's latency: it misses every limit.
var inf = math.Inf(1)

// finite replaces an infinite percentile (more failures than the tail
// beyond it) with worst, the phase's wall time, so the record stays JSON.
func finite(x, worst float64) float64 {
	if math.IsInf(x, 0) {
		return worst
	}
	return x
}
