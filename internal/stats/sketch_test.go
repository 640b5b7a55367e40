package stats

import (
	"math"
	"testing"

	"videodvfs/internal/sim"
)

// The sketch's whole contract: every quantile estimate is within alpha
// relative error of the exact empirical quantile.
func TestSketchRelativeAccuracy(t *testing.T) {
	const alpha = 0.01
	s := NewSketch(alpha)
	rng := sim.NewRNG(42)
	values := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// A heavy-ish mix: exponential bulk plus a uniform tail, spanning
		// several orders of magnitude like per-viewer joule totals do.
		v := rng.Exp(1.0/30) + rng.Uniform(0, 5)
		values = append(values, v)
		s.Add(v)
	}
	for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		got := s.Quantile(q)
		want := Percentile(values, 100*q)
		if math.Abs(got-want) > alpha*want+1e-9 {
			t.Errorf("q=%.2f: sketch %v, exact %v (rel err %.4f > %v)",
				q, got, want, math.Abs(got-want)/want, alpha)
		}
	}
	if s.N() != len(values) {
		t.Errorf("N = %d, want %d", s.N(), len(values))
	}
}

// Merging per-shard sketches must be exactly equivalent to one sketch
// having seen the whole stream — the property cohort determinism across
// worker counts rests on.
func TestSketchMergeEquivalence(t *testing.T) {
	whole := NewSketch(0.01)
	shards := []*Sketch{NewSketch(0.01), NewSketch(0.01), NewSketch(0.01)}
	rng := sim.NewRNG(7)
	for i := 0; i < 9999; i++ {
		v := rng.Exp(0.2)
		whole.Add(v)
		shards[i%3].Add(v)
	}
	merged := NewSketch(0.01)
	for _, sh := range shards {
		if err := merged.Merge(sh); err != nil {
			t.Fatal(err)
		}
	}
	if merged.N() != whole.N() || merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("merged n/min/max %d/%v/%v, whole %d/%v/%v",
			merged.N(), merged.Min(), merged.Max(), whole.N(), whole.Min(), whole.Max())
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.999, 1} {
		if m, w := merged.Quantile(q), whole.Quantile(q); m != w {
			t.Errorf("q=%v: merged %v != whole %v (merge must be exact)", q, m, w)
		}
	}
}

func TestSketchEdgeCases(t *testing.T) {
	s := NewSketch(0.01)
	if s.Quantile(0.5) != 0 || s.N() != 0 || s.Mean() != 0 {
		t.Error("empty sketch must read as zeros")
	}
	s.Add(math.NaN())
	s.Add(math.Inf(1))
	if s.N() != 0 {
		t.Errorf("non-finite values counted: N = %d", s.N())
	}
	s.Add(0)
	s.Add(-3) // clamps to the zero bucket
	s.Add(10)
	if got := s.Quantile(0); got != -3 {
		t.Errorf("q=0 = %v, want exact min -3", got)
	}
	if got := s.Quantile(1); got != 10 {
		t.Errorf("q=1 = %v, want exact max 10", got)
	}
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("median = %v, want 0 (two of three in the zero bucket)", got)
	}

	other := NewSketch(0.5)
	other.Add(1)
	if err := s.Merge(other); err == nil {
		t.Error("merging mismatched-accuracy sketches must error")
	}
	if err := s.Merge(nil); err != nil {
		t.Errorf("nil merge: %v", err)
	}
}
