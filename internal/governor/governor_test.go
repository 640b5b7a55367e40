package governor

import (
	"testing"

	"videodvfs/internal/cpu"
	"videodvfs/internal/sim"
)

// rig is a core plus a synthetic periodic load for driving governors.
type rig struct {
	eng  *sim.Engine
	core *cpu.Core
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine()
	core, err := cpu.NewCore(eng, cpu.DeviceFlagship())
	if err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, core: core}
}

// periodicLoad submits a job of `cycles` every `period` for `n` periods,
// producing a duty cycle that depends on the core's frequency.
func (r *rig) periodicLoad(period sim.Time, cycles float64, n int) {
	var step func(i int)
	step = func(i int) {
		if i >= n {
			r.eng.Stop()
			return
		}
		if err := r.core.Submit(cpu.Job{Cycles: cycles}); err != nil {
			panic(err)
		}
		r.eng.Schedule(period, func() { step(i + 1) })
	}
	step(0)
}

// mustNew builds a registry governor by name.
func mustNew(t *testing.T, name string) Governor {
	t.Helper()
	g, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPerformancePinsMax(t *testing.T) {
	r := newRig(t)
	g := mustNew(t, "performance")
	if err := g.Attach(r.eng, r.core); err != nil {
		t.Fatal(err)
	}
	defer g.Detach()
	if r.core.OPP() != r.core.Model().MaxIdx() {
		t.Fatalf("OPP = %d, want max", r.core.OPP())
	}
	r.periodicLoad(10*sim.Millisecond, 1e6, 100)
	r.eng.Run()
	if r.core.OPP() != r.core.Model().MaxIdx() {
		t.Fatalf("performance moved off max: %d", r.core.OPP())
	}
}

func TestPowersavePinsMin(t *testing.T) {
	r := newRig(t)
	r.core.SetOPP(5)
	g := mustNew(t, "powersave")
	if err := g.Attach(r.eng, r.core); err != nil {
		t.Fatal(err)
	}
	defer g.Detach()
	r.periodicLoad(10*sim.Millisecond, 30e6, 100) // heavy load
	r.eng.Run()
	if r.core.OPP() != 0 {
		t.Fatalf("powersave moved off min: %d", r.core.OPP())
	}
}

func TestDoubleAttachRejected(t *testing.T) {
	r := newRig(t)
	govs := []Governor{mustNew(t, "performance"), mustNew(t, "powersave"), mustNew(t, "ondemand")}
	for _, g := range govs {
		if err := g.Attach(r.eng, r.core); err != nil {
			t.Fatalf("%s first attach: %v", g.Name(), err)
		}
		if err := g.Attach(r.eng, r.core); err == nil {
			t.Fatalf("%s: second attach should fail", g.Name())
		}
		g.Detach()
	}
}

func TestOndemandJumpsToMaxOnHighLoad(t *testing.T) {
	r := newRig(t)
	g := mustNew(t, "ondemand")
	if err := g.Attach(r.eng, r.core); err != nil {
		t.Fatal(err)
	}
	defer g.Detach()
	// Saturating load at fmin: each 20 ms window is 100% busy.
	r.periodicLoad(20*sim.Millisecond, 50e6, 50)
	r.eng.Run()
	res := r.core.FreqResidency()
	if res[r.core.Model().MaxIdx()] == 0 {
		t.Fatalf("ondemand never reached fmax under saturating load; residency %v", res)
	}
}

func TestOndemandDropsOnIdle(t *testing.T) {
	r := newRig(t)
	g := mustNew(t, "ondemand")
	if err := g.Attach(r.eng, r.core); err != nil {
		t.Fatal(err)
	}
	defer g.Detach()
	r.core.SetOPP(r.core.Model().MaxIdx())
	// No load at all: after the down-factor holds, it should fall to fmin.
	r.eng.Schedule(sim.Second, func() { r.eng.Stop() })
	r.eng.Run()
	if r.core.OPP() != 0 {
		t.Fatalf("ondemand idle OPP = %d, want 0", r.core.OPP())
	}
}

func TestOndemandProportionalBand(t *testing.T) {
	r := newRig(t)
	g := mustNew(t, "ondemand")
	if err := g.Attach(r.eng, r.core); err != nil {
		t.Fatal(err)
	}
	defer g.Detach()
	// ~40% load at fmax: 18 M cycles every 20 ms window at 2.265 GHz.
	// Ondemand oscillates between its proportional band and fmax (it
	// saturates at the proportional frequency, trips up_threshold, and
	// jumps back up) — the exact over-provisioning the paper targets.
	r.core.SetOPP(r.core.Model().MaxIdx())
	r.periodicLoad(20*sim.Millisecond, 18e6, 200)
	r.eng.Run()
	res := r.core.FreqResidency()
	var total, atMax, mid sim.Time
	for idx, d := range res {
		total += d
		if idx == r.core.Model().MaxIdx() {
			atMax += d
		} else if idx > 0 {
			mid += d
		}
	}
	if atMax >= total {
		t.Fatalf("ondemand pinned at fmax the whole run (residency %v)", res)
	}
	if mid == 0 {
		t.Fatalf("ondemand never used the proportional band (residency %v)", res)
	}
}

func TestConservativeStepsGradually(t *testing.T) {
	r := newRig(t)
	g := mustNew(t, "conservative")
	if err := g.Attach(r.eng, r.core); err != nil {
		t.Fatal(err)
	}
	defer g.Detach()
	maxSeen := 0
	r.core.OnOPPChange(func(_ sim.Time, idx int) {
		if idx > maxSeen {
			maxSeen = idx
		}
	})
	// Saturating load for only 3 sampling periods: conservative must not
	// reach fmax that fast (5% steps → ~1 OPP per period).
	r.periodicLoad(20*sim.Millisecond, 50e6, 3)
	r.eng.Run()
	if maxSeen >= r.core.Model().MaxIdx() {
		t.Fatalf("conservative jumped to max within 3 periods (reached %d)", maxSeen)
	}
	if maxSeen == 0 {
		t.Fatal("conservative never raised the frequency")
	}
}

func TestConservativeStepsDownWhenIdle(t *testing.T) {
	r := newRig(t)
	g := mustNew(t, "conservative")
	if err := g.Attach(r.eng, r.core); err != nil {
		t.Fatal(err)
	}
	defer g.Detach()
	r.core.SetOPP(6)
	r.eng.Schedule(2*sim.Second, func() { r.eng.Stop() })
	r.eng.Run()
	if r.core.OPP() != 0 {
		t.Fatalf("conservative idle OPP = %d, want 0", r.core.OPP())
	}
}

func TestInteractiveHispeedJump(t *testing.T) {
	r := newRig(t)
	g := mustNew(t, "interactive")
	if err := g.Attach(r.eng, r.core); err != nil {
		t.Fatal(err)
	}
	defer g.Detach()
	hispeed := hispeedFreqFrac * r.core.Model().Fmax()
	reached := false
	r.core.OnOPPChange(func(_ sim.Time, idx int) {
		if r.core.Model().OPPs[idx].FreqHz >= hispeed {
			reached = true
		}
	})
	r.periodicLoad(20*sim.Millisecond, 50e6, 10)
	r.eng.Run()
	if !reached {
		t.Fatal("interactive never jumped to hispeed under bursty saturation")
	}
}

func TestInteractiveHoldsMinSampleTime(t *testing.T) {
	r := newRig(t)
	g := mustNew(t, "interactive")
	if err := g.Attach(r.eng, r.core); err != nil {
		t.Fatal(err)
	}
	defer g.Detach()
	// One burst, then silence. Frequency must stay raised for at least
	// minSampleTime after the raise.
	if err := r.core.Submit(cpu.Job{Cycles: 60e6}); err != nil {
		t.Fatal(err)
	}
	var raisedAt, droppedAt sim.Time
	r.core.OnOPPChange(func(now sim.Time, idx int) {
		if idx > 0 && raisedAt == 0 {
			raisedAt = now
		}
		if idx == 0 && raisedAt > 0 && droppedAt == 0 {
			droppedAt = now
		}
	})
	r.eng.Schedule(2*sim.Second, func() { r.eng.Stop() })
	r.eng.Run()
	if raisedAt == 0 {
		t.Fatal("interactive never raised")
	}
	if droppedAt == 0 {
		t.Fatal("interactive never dropped back")
	}
	if droppedAt-raisedAt < minSampleTime {
		t.Fatalf("dropped after %v, want ≥ %v hold", droppedAt-raisedAt, minSampleTime)
	}
}

func TestSchedutilTracksUtilWithHeadroom(t *testing.T) {
	r := newRig(t)
	g := mustNew(t, "schedutil")
	if err := g.Attach(r.eng, r.core); err != nil {
		t.Fatal(err)
	}
	defer g.Detach()
	// 50% duty at fmax → target ≈ 1.25·0.5·fmax ≈ 0.625 fmax.
	r.core.SetOPP(r.core.Model().MaxIdx())
	r.periodicLoad(10*sim.Millisecond, 11.3e6, 300) // ≈5 ms at 2.265 GHz
	r.eng.Run()
	f := r.core.FreqHz() / r.core.Model().Fmax()
	if f < 0.4 || f > 0.9 {
		t.Fatalf("schedutil settled at %.2f·fmax, want ≈0.6", f)
	}
}

func TestRegistryNewCoversBaselines(t *testing.T) {
	for _, name := range BaselineNames() {
		g, err := New(name)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if g.Name() != name {
			t.Fatalf("New(%s).Name() = %s", name, g.Name())
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Fatal("want error for unknown governor")
	}
}
