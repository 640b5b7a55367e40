package cpu

import (
	"math"
	"testing"

	"videodvfs/internal/sim"
)

func newDomain(t *testing.T, n int) (*sim.Engine, *Domain) {
	t.Helper()
	eng := sim.NewEngine()
	d, err := NewDomain(eng, testModel(0), n)
	if err != nil {
		t.Fatal(err)
	}
	return eng, d
}

func TestDomainValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewDomain(eng, testModel(0), 0); err == nil {
		t.Fatal("want error for zero cores")
	}
	if _, err := NewDomain(eng, Model{Name: "bad"}, 2); err == nil {
		t.Fatal("want error for invalid model")
	}
}

func TestDomainSharedClock(t *testing.T) {
	eng, d := newDomain(t, 3)
	d.SetOPP(1)
	for i, c := range d.Cores() {
		if c.OPP() != 1 {
			t.Fatalf("core %d OPP %d, want 1", i, c.OPP())
		}
	}
	eng.Run()
}

func TestDomainParallelExecution(t *testing.T) {
	eng, d := newDomain(t, 2)
	// Two 1e9-cycle jobs at 1 GHz: in parallel they finish at t=1 s; a
	// single core would need 2 s.
	var done []sim.Time
	for i := 0; i < 2; i++ {
		if err := d.Submit(Job{Cycles: 1e9, OnDone: func(now sim.Time) { done = append(done, now) }}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(done) != 2 {
		t.Fatalf("completed %d jobs", len(done))
	}
	for _, at := range done {
		if math.Abs(float64(at-sim.Second)) > 1e-9 {
			t.Fatalf("job finished at %v, want 1s (parallel)", at)
		}
	}
}

func TestDomainLeastLoadedPlacement(t *testing.T) {
	eng, d := newDomain(t, 2)
	// Saturate core selection: 4 equal jobs → 2 per core.
	for i := 0; i < 4; i++ {
		if err := d.Submit(Job{Cycles: 5e8}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	for i, c := range d.Cores() {
		if got := c.Cycles(PrioDecode); got != 1e9 {
			t.Fatalf("core %d ran %.2g cycles, want 1e9 (balanced)", i, got)
		}
	}
}

func TestDomainAggregatedPower(t *testing.T) {
	eng, d := newDomain(t, 2)
	// Idle: 2 × 0.1 W.
	if math.Abs(d.Power()-0.2) > 1e-12 {
		t.Fatalf("idle power %v, want 0.2", d.Power())
	}
	var last float64
	d.OnPower(func(_ sim.Time, w float64) { last = w })
	if err := d.Submit(Job{Cycles: 1e8}); err != nil {
		t.Fatal(err)
	}
	// One busy (1.0) + one idle (0.1).
	if math.Abs(last-1.1) > 1e-12 {
		t.Fatalf("power callback %v, want 1.1", last)
	}
	eng.Run()
	if math.Abs(last-0.2) > 1e-12 {
		t.Fatalf("final power %v, want 0.2", last)
	}
}

func TestDomainBusyTimeAggregates(t *testing.T) {
	eng, d := newDomain(t, 2)
	for i := 0; i < 2; i++ {
		if err := d.Submit(Job{Cycles: 1e9}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	var busy sim.Time
	for _, c := range d.Cores() {
		busy += c.BusyTime()
	}
	if math.Abs(float64(busy-2*sim.Second)) > 1e-9 {
		t.Fatalf("busy time %v, want 2s total", busy)
	}
}
