package stats

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"videodvfs/internal/sim"
)

// Merging an empty sketch must be an exact no-op in both directions —
// the case a fleet hits whenever one worker's shard subset contributed
// no samples to a metric.
func TestSketchMergeEmpty(t *testing.T) {
	s := NewSketch(0.01)
	for _, v := range []float64{1, 2, 3, 0.5} {
		s.Add(v)
	}
	before := s.State()
	if err := s.Merge(NewSketch(0.01)); err != nil {
		t.Fatalf("merge empty: %v", err)
	}
	after := s.State()
	if after.N != before.N || after.Sum != before.Sum || after.Min != before.Min || after.Max != before.Max {
		t.Fatalf("merging an empty sketch changed state: %+v vs %+v", after, before)
	}

	empty := NewSketch(0.01)
	if err := empty.Merge(s); err != nil {
		t.Fatalf("merge into empty: %v", err)
	}
	if empty.N() != s.N() || empty.Min() != s.Min() || empty.Max() != s.Max() {
		t.Fatalf("empty.Merge(s) = n/min/max %d/%v/%v, want %d/%v/%v",
			empty.N(), empty.Min(), empty.Max(), s.N(), s.Min(), s.Max())
	}
	if got := empty.Quantile(0); got != 0.5 {
		t.Errorf("q=0 after merge = %v, want exact min 0.5", got)
	}
	if got := empty.Quantile(1); got != 3 {
		t.Errorf("q=1 after merge = %v, want exact max 3", got)
	}
}

// A mismatched-accuracy merge must fail with the typed sentinel so
// callers (MergeParts, a fleet controller) can branch on it.
func TestSketchMergeAccuracyMismatchTyped(t *testing.T) {
	a, b := NewSketch(0.01), NewSketch(0.02)
	b.Add(1)
	err := a.Merge(b)
	if err == nil {
		t.Fatal("mismatched-alpha merge returned nil")
	}
	if !errors.Is(err, ErrSketchAccuracyMismatch) {
		t.Fatalf("err = %v, want errors.Is(_, ErrSketchAccuracyMismatch)", err)
	}
	// Same accuracy never trips the sentinel, even through a wire round
	// trip (gamma is serialized verbatim, not recomputed from alpha).
	rt, rerr := SketchFromState(b.State())
	if rerr != nil {
		t.Fatalf("round trip: %v", rerr)
	}
	if err := b.Merge(rt); err != nil {
		t.Fatalf("same-gamma merge after round trip: %v", err)
	}
}

// State/SketchFromState must be an exact round trip, including through
// JSON — the wire format fleet cohort merges ride on.
func TestSketchStateRoundTrip(t *testing.T) {
	s := NewSketch(0.01)
	rng := sim.NewRNG(3)
	for i := 0; i < 5000; i++ {
		s.Add(rng.Exp(0.1))
	}
	s.Add(0)
	s.Add(-2) // zero-bucket clamp

	wire, err := json.Marshal(s.State())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var st SketchState
	if err := json.Unmarshal(wire, &st); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	back, err := SketchFromState(st)
	if err != nil {
		t.Fatalf("from state: %v", err)
	}
	if back.N() != s.N() || back.Mean() != s.Mean() || back.Min() != s.Min() || back.Max() != s.Max() {
		t.Fatalf("round trip lost counters: n/mean/min/max %d/%v/%v/%v, want %d/%v/%v/%v",
			back.N(), back.Mean(), back.Min(), back.Max(), s.N(), s.Mean(), s.Min(), s.Max())
	}
	for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
		if g, w := back.Quantile(q), s.Quantile(q); g != w {
			t.Errorf("q=%v: round trip %v != original %v", q, g, w)
		}
	}
}

// An empty sketch's state must serialize (its ±Inf min/max sentinels are
// not JSON-encodable, so State maps them to zeros) and reconstruct to a
// sketch that still tracks exact extremes from the first Add.
func TestSketchStateEmpty(t *testing.T) {
	st := NewSketch(0.01).State()
	if st.Min != 0 || st.Max != 0 || st.N != 0 {
		t.Fatalf("empty state = %+v, want zero min/max/n", st)
	}
	if _, err := json.Marshal(st); err != nil {
		t.Fatalf("empty state must be JSON-encodable: %v", err)
	}
	back, err := SketchFromState(st)
	if err != nil {
		t.Fatalf("from empty state: %v", err)
	}
	back.Add(7)
	if back.Min() != 7 || back.Max() != 7 {
		t.Fatalf("restored empty sketch lost its extreme sentinels: min/max %v/%v", back.Min(), back.Max())
	}
}

func TestSketchFromStateRejectsCorruptState(t *testing.T) {
	good := func() SketchState {
		s := NewSketch(0.01)
		s.Add(1)
		s.Add(2)
		return s.State()
	}
	cases := map[string]func(*SketchState){
		"gamma<=1":     func(st *SketchState) { st.Gamma = 1 },
		"gamma NaN":    func(st *SketchState) { st.Gamma = math.NaN() },
		"zero bin":     func(st *SketchState) { st.Bins[999] = 0 },
		"count drift":  func(st *SketchState) { st.N = 17 },
		"sum NaN":      func(st *SketchState) { st.Sum = math.NaN() },
		"min > max":    func(st *SketchState) { st.Min, st.Max = 5, 1 },
		"inf extremes": func(st *SketchState) { st.Min = math.Inf(-1) },
	}
	for name, corrupt := range cases {
		st := good()
		corrupt(&st)
		if _, err := SketchFromState(st); err == nil {
			t.Errorf("%s: SketchFromState accepted corrupt state %+v", name, st)
		}
	}
}
