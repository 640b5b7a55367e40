package abr

import (
	"math"
	"testing"
	"testing/quick"
)

var ladder = []float64{0.8e6, 1.5e6, 4e6, 8e6}

func TestFixedClamps(t *testing.T) {
	s := State{Rates: ladder}
	if got := (Fixed{Rung: 2}).NextRung(s); got != 2 {
		t.Fatalf("fixed rung = %d", got)
	}
	if got := (Fixed{Rung: -3}).NextRung(s); got != 0 {
		t.Fatalf("negative rung clamped to %d", got)
	}
	if got := (Fixed{Rung: 99}).NextRung(s); got != 3 {
		t.Fatalf("oversized rung clamped to %d", got)
	}
}

func TestRateBasedPicksHighestAffordable(t *testing.T) {
	a := RateBased{}
	cases := []struct {
		tput float64
		want int
	}{
		{0, 0},                     // no estimate → lowest
		{1e6, 0},                   // 0.85 Mbps budget < 1.5
		{2e6, 1},                   // 1.7 budget ≥ 1.5
		{5e6, 2},                   // 4.25 ≥ 4
		{20e6, 3},                  // plenty
		{0.9e6 / 0.85 * 1.0001, 0}, // just above 0.9: budget ≈0.9 < 1.5 but ≥0.8
	}
	for _, c := range cases {
		got := a.NextRung(State{ThroughputBps: c.tput, Rates: ladder})
		if got != c.want {
			t.Errorf("throughput %.1f Mbps → rung %d, want %d", c.tput/1e6, got, c.want)
		}
	}
}

func TestBufferBasedRegions(t *testing.T) {
	a := BufferBased{}
	cases := []struct {
		buf  float64
		want int
	}{
		{0, 0}, {4.9, 0}, {5, 0}, // reservoir
		{15, 3}, {30, 3}, // cushion
	}
	for _, c := range cases {
		got := a.NextRung(State{BufferSec: c.buf, Rates: ladder})
		if got != c.want {
			t.Errorf("buffer %.1fs → rung %d, want %d", c.buf, got, c.want)
		}
	}
	// Mid-cushion monotonicity.
	prev := 0
	for buf := 5.0; buf <= 15; buf += 0.5 {
		got := a.NextRung(State{BufferSec: buf, Rates: ladder})
		if got < prev {
			t.Fatalf("rung decreased with rising buffer at %.1fs", buf)
		}
		prev = got
	}
}

func TestNewByName(t *testing.T) {
	for _, name := range []string{"fixed", "rate", "bba"} {
		a, err := New(name)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if a.Name() != name {
			t.Fatalf("New(%s).Name() = %s", name, a.Name())
		}
	}
	if _, err := New("mpc"); err == nil {
		t.Fatal("want error for unknown algorithm")
	}
}

// Property: every algorithm returns a valid rung for any state, and the
// adaptive ones return rung 0 for an empty ladder.
func TestAllAlgorithmsReturnValidRungs(t *testing.T) {
	for _, a := range []Algorithm{RateBased{}, BufferBased{}} {
		if got := a.NextRung(State{ThroughputBps: 10e6, BufferSec: 100}); got != 0 {
			t.Fatalf("%s on an empty ladder = rung %d, want 0", a.Name(), got)
		}
	}
	algos := []Algorithm{Fixed{Rung: 2}, RateBased{}, BufferBased{}}
	f := func(tputRaw uint32, bufRaw uint16, lastRaw int8) bool {
		s := State{
			ThroughputBps: float64(tputRaw),
			BufferSec:     float64(bufRaw) / 100,
			LastRung:      int(lastRaw),
			Rates:         ladder,
		}
		for _, a := range algos {
			r := a.NextRung(s)
			if r < 0 || r >= len(ladder) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestColdStartContract audits every shipped algorithm against the
// documented cold-start contract: with an unwarmed (0), NaN, or infinite
// throughput estimate and an empty buffer — exactly the State the player
// passes before the first segment completes — no algorithm may derive a
// rung from the degenerate estimate. RateBased and BufferBased must return
// the lowest rung; Fixed pins its configured rung by design.
func TestColdStartContract(t *testing.T) {
	rates := []float64{1e6, 2.5e6, 5e6, 8e6}
	colds := []float64{0, math.NaN(), math.Inf(1), math.Inf(-1), -1e6}
	for _, tput := range colds {
		s := State{ThroughputBps: tput, BufferSec: 0, LastRung: -1, Rates: rates}
		if got := (RateBased{}).NextRung(s); got != 0 {
			t.Errorf("RateBased cold start (tput=%v) = rung %d, want 0", tput, got)
		}
		if got := (BufferBased{}).NextRung(s); got != 0 {
			t.Errorf("BufferBased cold start (tput=%v) = rung %d, want 0", tput, got)
		}
		if got := (Fixed{Rung: 2}).NextRung(s); got != 2 {
			t.Errorf("Fixed cold start (tput=%v) = rung %d, want its pinned 2", tput, got)
		}
	}
	// The guard is cold-start-only: a warmed estimate still climbs.
	warm := State{ThroughputBps: 10e6, BufferSec: 20, LastRung: 0, Rates: rates}
	if got := (RateBased{}).NextRung(warm); got != 3 {
		t.Errorf("RateBased warm = rung %d, want 3", got)
	}
}
