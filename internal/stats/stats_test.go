package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestOnlineMomentsMatchClosedForm(t *testing.T) {
	var o Online
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		o.Add(x)
	}
	if o.N() != 8 {
		t.Fatalf("N = %d", o.N())
	}
	if !almost(o.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", o.Mean())
	}
	// Population variance of this classic set is 4; unbiased = 32/7.
	if !almost(o.Var(), 32.0/7.0, 1e-12) {
		t.Fatalf("Var = %v, want %v", o.Var(), 32.0/7.0)
	}
	if o.Min() != 2 || o.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", o.Min(), o.Max())
	}
}

func TestOnlineEmptyAndSingle(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Var() != 0 || o.CI95() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
	o.Add(3)
	if o.Mean() != 3 || o.Var() != 0 {
		t.Fatalf("single sample: mean=%v var=%v", o.Mean(), o.Var())
	}
}

func TestOnlineMatchesBatchProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		var o Online
		for i, r := range raw {
			xs[i] = float64(r)
			o.Add(xs[i])
		}
		return almost(o.Mean(), Mean(xs), 1e-6) && almost(o.Std(), Std(xs), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5}, {-5, 10}, {200, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-12) {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestPercentilesBatchAgreesWithSingle(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7, 2, 8}
	got := Percentiles(xs, 10, 50, 90)
	for i, p := range []float64{10, 50, 90} {
		if !almost(got[i], Percentile(xs, p), 1e-12) {
			t.Fatalf("Percentiles disagrees at P%v", p)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestEWMAConverges(t *testing.T) {
	e := NewEWMA(0.5)
	e.Add(10)
	if e.Value() != 10 {
		t.Fatalf("first sample should initialize: %v", e.Value())
	}
	for i := 0; i < 50; i++ {
		e.Add(20)
	}
	if !almost(e.Value(), 20, 1e-6) {
		t.Fatalf("EWMA did not converge: %v", e.Value())
	}
}

func TestEWMAAlphaClamping(t *testing.T) {
	for _, alpha := range []float64{-1, 0, 2} {
		e := NewEWMA(alpha)
		e.Add(1)
		e.Add(3)
		v := e.Value()
		if v < 1 || v > 3 {
			t.Fatalf("alpha %v: value %v out of sample range", alpha, v)
		}
	}
}

func TestTimeWeightedMean(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 100) // 100 for 2s
	w.Set(2, 50)  // 50 for 8s
	got := w.Finish(10)
	want := (100*2 + 50*8) / 10.0
	if !almost(got, want, 1e-12) {
		t.Fatalf("mean = %v, want %v", got, want)
	}
	if !almost(w.Integral(), 600, 1e-12) {
		t.Fatalf("integral = %v, want 600", w.Integral())
	}
	if w.Min() != 50 || w.Max() != 100 {
		t.Fatalf("min/max = %v/%v", w.Min(), w.Max())
	}
}

func TestTimeWeightedZeroSpan(t *testing.T) {
	var w TimeWeighted
	if w.Mean() != 0 {
		t.Fatal("empty mean should be 0")
	}
	w.Set(5, 42)
	if got := w.Finish(5); got != 0 {
		t.Fatalf("zero-span mean = %v, want 0", got)
	}
}

func TestTimeWeightedNonMonotonicClamped(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 10)
	w.Set(2, 20)
	w.Set(1, 30) // goes backward: treated as t=2
	got := w.Finish(4)
	want := (10*2 + 30*2) / 4.0
	if !almost(got, want, 1e-12) {
		t.Fatalf("mean = %v, want %v", got, want)
	}
}

func TestHistogramBinning(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 1.9, 2, 5, 9.9, -4, 12} {
		h.Add(x)
	}
	counts := h.Counts()
	// bins: [0,2) [2,4) [4,6) [6,8) [8,10); -4→bin0, 12→bin4.
	want := []int{3, 1, 1, 0, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	if h.N() != 7 {
		t.Fatalf("N = %d", h.N())
	}
}

func TestHistogramInvalidConfig(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Fatal("want error for zero bins")
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Fatal("want error for hi == lo")
	}
}

// Property: percentile output is always within [min, max] of the sample.
func TestPercentileBoundsProperty(t *testing.T) {
	f := func(raw []int8, praw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r)
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		p := float64(praw) / 255 * 100
		got := Percentile(xs, p)
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileIgnoresNaN(t *testing.T) {
	finite := []float64{1, 2, 3, 4, 5}
	withNaN := []float64{math.NaN(), 1, 2, math.NaN(), 3, 4, 5, math.NaN()}
	for _, p := range []float64{0, 25, 50, 90, 100} {
		want := Percentile(finite, p)
		got := Percentile(withNaN, p)
		if got != want {
			t.Errorf("p%.0f: NaN-laced slice gave %v, finite subset gives %v", p, got, want)
		}
	}
}

func TestPercentileAllNaNPropagates(t *testing.T) {
	xs := []float64{math.NaN(), math.NaN()}
	if got := Percentile(xs, 50); !math.IsNaN(got) {
		t.Errorf("all-NaN input: got %v, want NaN", got)
	}
	for _, v := range Percentiles(xs, 10, 50, 99) {
		if !math.IsNaN(v) {
			t.Errorf("Percentiles all-NaN input: got %v, want NaN", v)
		}
	}
}

func TestPercentilesIgnoreNaN(t *testing.T) {
	withNaN := []float64{5, math.NaN(), 1, 3, 2, 4}
	got := Percentiles(withNaN, 0, 50, 100)
	want := []float64{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Percentiles[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestHistogramOutOfRangeCounters(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-3, -0.1, 2, 5, 9.9, 10, 42, math.NaN()} {
		h.Add(x)
	}
	if got := h.Under(); got != 2 {
		t.Errorf("Under() = %d, want 2", got)
	}
	if got := h.Over(); got != 2 {
		t.Errorf("Over() = %d, want 2", got)
	}
	if got := h.NaNs(); got != 1 {
		t.Errorf("NaNs() = %d, want 1", got)
	}
	if got := h.N(); got != 7 {
		t.Errorf("N() = %d, want 7 (NaN excluded)", got)
	}
	// Clamping semantics unchanged: out-of-range samples still land in
	// the edge bins.
	counts := h.Counts()
	if counts[0] != 2 {
		t.Errorf("bin 0 = %d, want 2 (underflow clamped)", counts[0])
	}
	if counts[4] != 3 {
		t.Errorf("last bin = %d, want 3 (9.9 plus two overflows)", counts[4])
	}
}

func TestHistogramNaNDoesNotTouchBins(t *testing.T) {
	h, err := NewHistogram(0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(math.NaN())
	for i, c := range h.Counts() {
		if c != 0 {
			t.Errorf("bin %d = %d after NaN-only input, want 0", i, c)
		}
	}
	if h.N() != 0 {
		t.Errorf("N() = %d after NaN-only input, want 0", h.N())
	}
}

// TestHistogramInfSamples pins the ±Inf handling: non-finite samples are
// tallied as under/over and land in the edge bins by value comparison —
// they must never reach the float→int bin conversion, whose result for
// out-of-range floats is implementation-specific per the Go spec.
func TestHistogramInfSamples(t *testing.T) {
	h, err := NewHistogram(0, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(math.Inf(1))
	h.Add(math.Inf(-1))
	h.Add(5)
	if h.N() != 3 {
		t.Fatalf("N = %d, want 3", h.N())
	}
	if h.Under() != 1 || h.Over() != 1 {
		t.Fatalf("under/over = %d/%d, want 1/1", h.Under(), h.Over())
	}
	counts := h.Counts()
	if counts[0] != 1 || counts[len(counts)-1] != 1 || counts[2] != 1 {
		t.Fatalf("counts = %v, want -Inf in bin 0, +Inf in last bin, 5 in bin 2", counts)
	}
	if got := 0 + counts[0] + counts[1] + counts[2] + counts[3]; got != h.N() {
		t.Fatalf("bins sum to %d, N = %d", got, h.N())
	}
}

// TestHistogramAddTotalConservation: every non-NaN sample lands in
// exactly one bin, whatever its value.
func TestHistogramAddTotalConservation(t *testing.T) {
	h, _ := NewHistogram(-1, 1, 7)
	f := func(xs []float64) bool {
		before := 0
		for _, c := range h.Counts() {
			before += c
		}
		n := 0
		for _, x := range xs {
			h.Add(x)
			if !math.IsNaN(x) {
				n++
			}
		}
		after := 0
		for _, c := range h.Counts() {
			after += c
		}
		return after-before == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
