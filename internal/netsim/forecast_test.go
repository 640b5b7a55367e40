package netsim

import (
	"math"
	"testing"

	"videodvfs/internal/sim"
)

// repeat spells a periodic step pattern out over [0, end): the pattern's
// steps, shifted by each whole period.
func repeat(pattern []Step, period, end sim.Time) Steps {
	var s Steps
	for base := sim.Time(0); base < end; base += period {
		for _, st := range pattern {
			s.Trace = append(s.Trace, Step{Start: base + st.Start, Bps: st.Bps})
		}
	}
	return s
}

// TestOraclePredictMatchesRate pins the oracle contract: predictions are
// exactly the underlying model's rates, over every model shape.
func TestOraclePredictMatchesRate(t *testing.T) {
	steps := repeat([]Step{{Start: 0, Bps: 4e6}, {Start: 5 * sim.Second, Bps: 1e6}}, 8*sim.Second, 48*sim.Second)
	markov, err := GenMarkovTrace(LTEStates(), 60*sim.Second, sim.Stream(3, "bw/lte"))
	if err != nil {
		t.Fatal(err)
	}
	models := []Bandwidth{Constant{Bps: 6e6}, steps, markov}
	for _, bw := range models {
		o := Oracle{BW: bw, Lookahead: 20 * sim.Second}
		if o.Horizon() != 20*sim.Second {
			t.Fatalf("horizon %v", o.Horizon())
		}
		for at := sim.Time(0); at < 40*sim.Second; at += 700 * sim.Millisecond {
			wr, wu := bw.Rate(at)
			gr, gu := o.Predict(at)
			if gr != wr || gu != wu {
				t.Fatalf("%T: Predict(%v) = (%v, %v), want (%v, %v)", bw, at, gr, gu, wr, wu)
			}
		}
	}
}

// TestNoisyDeterministicPerPiece pins the noisy forecast's determinism
// contract: the same piece always reports the same (noisy) rate, no matter
// how many times or in what order it is queried, and different seeds lie
// differently.
func TestNoisyDeterministicPerPiece(t *testing.T) {
	base := Oracle{BW: repeat([]Step{{Start: 0, Bps: 4e6}, {Start: 5 * sim.Second, Bps: 1e6}}, 10*sim.Second, 40*sim.Second),
		Lookahead: 30 * sim.Second}
	n1, err := NewNoisy(base, 0.3, 42)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := NewNoisy(base, 0.3, 42)
	if err != nil {
		t.Fatal(err)
	}
	times := []sim.Time{0, 6 * sim.Second, 2 * sim.Second, 12 * sim.Second, 0, 6 * sim.Second}
	got := make([]float64, len(times))
	for i, at := range times {
		got[i], _ = n1.Predict(at)
	}
	// Reverse query order on a fresh twin: identical answers.
	for i := len(times) - 1; i >= 0; i-- {
		r, until := n2.Predict(times[i])
		if r != got[i] {
			t.Fatalf("Predict(%v) order-dependent: %v vs %v", times[i], r, got[i])
		}
		if until <= times[i] {
			t.Fatalf("Predict(%v): until %v does not advance", times[i], until)
		}
	}
	// Same piece, same answer.
	if got[0] != got[4] || got[1] != got[5] {
		t.Fatalf("same piece predicted differently: %v", got)
	}
	// Different pieces with the same true rate still draw independent noise
	// (repeated copies of the 4e6 piece).
	if got[0] == got[3] {
		t.Fatalf("repeated pieces drew identical noise %v — keying broken", got[0])
	}
	// A different seed lies differently.
	n3, err := NewNoisy(base, 0.3, 43)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := n3.Predict(0); r == got[0] {
		t.Fatalf("seed 43 matched seed 42's noise %v", r)
	}
	// Noise is multiplicative and finite, and zero rates stay zero.
	for at := sim.Time(0); at < 30*sim.Second; at += 330 * sim.Millisecond {
		r, _ := n1.Predict(at)
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			t.Fatalf("Predict(%v) = %v not a finite non-negative rate", at, r)
		}
	}
}

// TestNoisyZeroErrorIsTransparent pins that RelErr 0 reproduces the base
// forecast exactly, and that zero-rate (outage) pieces are never perturbed.
func TestNoisyZeroErrorIsTransparent(t *testing.T) {
	base := Oracle{BW: repeat([]Step{{Start: 0, Bps: 4e6}, {Start: 2 * sim.Second, Bps: 0}}, 4*sim.Second, 16*sim.Second),
		Lookahead: 10 * sim.Second}
	n, err := NewNoisy(base, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := NewNoisy(base, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for at := sim.Time(0); at < 12*sim.Second; at += 250 * sim.Millisecond {
		wr, wu := base.Predict(at)
		gr, gu := n.Predict(at)
		if gr != wr || gu != wu {
			t.Fatalf("RelErr=0 Predict(%v) = (%v, %v), want (%v, %v)", at, gr, gu, wr, wu)
		}
		if wr == 0 {
			if r, _ := noisy.Predict(at); r != 0 {
				t.Fatalf("outage at %v predicted as %v — zero rates must stay zero", at, r)
			}
		}
	}
	if n.Horizon() != base.Horizon() {
		t.Fatalf("horizon %v, want %v", n.Horizon(), base.Horizon())
	}
}

// TestNewNoisyRejectsBadError pins constructor validation.
func TestNewNoisyRejectsBadError(t *testing.T) {
	base := Oracle{BW: Constant{Bps: 1e6}, Lookahead: 10 * sim.Second}
	for _, bad := range []float64{math.NaN(), math.Inf(1), -0.1} {
		if _, err := NewNoisy(base, bad, 1); err == nil {
			t.Fatalf("NewNoisy accepted relErr %v", bad)
		}
	}
	if _, err := NewNoisy(nil, 0.1, 1); err == nil {
		t.Fatal("NewNoisy accepted nil base")
	}
}
