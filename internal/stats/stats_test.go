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
		// The batch reference: a two-pass mean and unbiased deviation.
		var o Online
		var sum float64
		for _, r := range raw {
			o.Add(float64(r))
			sum += float64(r)
		}
		mean := sum / float64(len(raw))
		var ss float64
		for _, r := range raw {
			ss += (float64(r) - mean) * (float64(r) - mean)
		}
		std := 0.0
		if len(raw) > 1 {
			std = math.Sqrt(ss / float64(len(raw)-1))
		}
		return almost(o.Mean(), mean, 1e-6) && almost(o.Std(), std, 1e-6)
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
