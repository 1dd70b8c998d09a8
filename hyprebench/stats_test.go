package main

import (
	"math/rand"
	"testing"
)

// oracleQuantile is the nearest-rank definition taken literally: the
// smallest sample v with at least ceil(q·n) samples <= v.
func oracleQuantile(xs []float64, q float64) float64 {
	need := 0
	for need < len(xs) && float64(need) < q*float64(len(xs)) {
		need++
	}
	need = max(need, 1)
	best := 0.0
	found := false
	for _, v := range xs {
		count := 0
		for _, w := range xs {
			if w <= v {
				count++
			}
		}
		if count >= need && (!found || v < best) {
			best, found = v, true
		}
	}
	return best
}

func TestQuantilesMatchSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	qs := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for trial := range 200 {
		n := 1 + rng.Intn(300)
		xs := make([]float64, n)
		for i := range xs {
			// Few distinct values half the time, so ties are exercised.
			if trial%2 == 0 {
				xs[i] = float64(rng.Intn(7))
			} else {
				xs[i] = rng.ExpFloat64()
			}
		}
		before := append([]float64(nil), xs...)
		got := quantiles(xs, qs...)
		for i, q := range qs {
			if want := oracleQuantile(xs, q); got[i] != want {
				t.Fatalf("trial %d n=%d q=%v: got %v want %v", trial, n, q, got[i], want)
			}
		}
		for i := range xs {
			if xs[i] != before[i] {
				t.Fatal("quantiles reordered its input")
			}
		}
	}
}

func TestQuantilesP99NeedsTheTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// 1000 samples: p99 is the 990th value, with exactly ten beyond it.
	if got := quantiles(xs, 0.99)[0]; got != 990 {
		t.Fatalf("p99 = %v, want 990", got)
	}
	xs = append(xs, inf)
	if got := quantiles(xs, 1)[0]; got != inf {
		t.Fatalf("a failed sample must count as infinitely slow, max = %v", got)
	}
}
