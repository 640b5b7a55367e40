package main

import (
	"math"
	"testing"
)

// A tail percentile is reported only when at least ten samples lie beyond
// it: p99 needs 1000 samples, p90 needs 100.
func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{1000, 0.99, true, 990},
		{999, 0.99, false, 0},
		{1500, 0.99, true, 1485},
		{100, 0.90, true, 90},
		{99, 0.90, false, 0},
		{10, 0.5, false, 0},
		{0, 0.99, false, 0},
	} {
		got, ok := tailQuantile(seq(tc.n), tc.q)
		if ok != tc.ok || got != tc.want {
			t.Errorf("tailQuantile(n=%d, q=%g) = %g, %v; want %g, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0.5: 3, 0.2: 1, 0.21: 2, 1: 5, 0: 1} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%g) = %g, want %g", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples is not 0")
	}
}

// quartiles must give the numbers Python's statistics.quantiles(xs, n=4)
// gives, the spread rule the benchmark is accepted by.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{4, 2}, [3]float64{1.5, 3, 4.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		got := quartiles(tc.xs)
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
}
