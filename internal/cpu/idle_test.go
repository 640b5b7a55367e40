package cpu

import (
	"math"
	"testing"

	"videodvfs/internal/sim"
)

func idleRig(t *testing.T) (*sim.Engine, *Core) {
	t.Helper()
	eng := sim.NewEngine()
	core, err := NewCore(eng, testModel(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.EnableCStates(); err != nil {
		t.Fatal(err)
	}
	return eng, core
}

// TestCStateLadderValidation checks the ladder every core with C-states
// runs: power fractions within [0, 1], non-negative latencies, and each
// state deeper than the last in both power and target residency, which
// the menu governor's deepest-fit pick relies on.
func TestCStateLadderValidation(t *testing.T) {
	states := DefaultCStates()
	if len(states) == 0 {
		t.Fatal("empty ladder")
	}
	for i, st := range states {
		if st.PowerFrac < 0 || st.PowerFrac > 1 {
			t.Errorf("state %q power fraction %v outside [0, 1]", st.Name, st.PowerFrac)
		}
		if st.ExitLatency < 0 || st.TargetResidency < 0 {
			t.Errorf("state %q has negative latencies", st.Name)
		}
		if i == 0 {
			continue
		}
		if prev := states[i-1]; st.PowerFrac >= prev.PowerFrac || st.TargetResidency <= prev.TargetResidency {
			t.Errorf("state %q does not deepen %q", st.Name, prev.Name)
		}
	}
}

func TestEnableCStatesRejectsBusyCore(t *testing.T) {
	eng := sim.NewEngine()
	core, err := NewCore(eng, testModel(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Submit(Job{Cycles: 1e9}); err != nil {
		t.Fatal(err)
	}
	if err := core.EnableCStates(); err == nil {
		t.Fatal("want error enabling C-states on a busy core")
	}
	eng.Run()
}

func TestMenuGovernorDeepensAfterLongIdles(t *testing.T) {
	eng, core := idleRig(t)
	// First idle period has no history → WFI.
	if core.IdleState() != "wfi" {
		t.Fatalf("initial state %q, want wfi", core.IdleState())
	}
	// Jobs 100 ms apart teach the predictor long idles.
	for i := 0; i < 5; i++ {
		at := sim.Time(i) * 100 * sim.Millisecond
		eng.At(at, func() {
			_ = core.Submit(Job{Cycles: 1e6})
		})
	}
	var lastState string
	eng.At(450*sim.Millisecond, func() { lastState = core.IdleState() })
	eng.Run()
	if lastState != "power-collapse" {
		t.Fatalf("after long idles state %q, want power-collapse", lastState)
	}
}

func TestMenuGovernorStaysShallowForShortIdles(t *testing.T) {
	eng, core := idleRig(t)
	// 1e6-cycle jobs every 1.2 ms at 1 GHz → ~0.2 ms idles: retention's
	// 0.5 ms target never fits.
	for i := 0; i < 100; i++ {
		at := sim.Time(i) * 1200 * sim.Microsecond
		eng.At(at, func() {
			_ = core.Submit(Job{Cycles: 1e6})
		})
	}
	var state string
	eng.At(119900*sim.Microsecond, func() { state = core.IdleState() })
	eng.Run()
	if state != "wfi" {
		t.Fatalf("short-idle state %q, want wfi", state)
	}
}

func TestDeepIdleCutsPower(t *testing.T) {
	eng, core := idleRig(t)
	// Teach long idles, then compare idle power against clock gating.
	eng.At(100*sim.Millisecond, func() {
		_ = core.Submit(Job{Cycles: 1e6})
	})
	var deepPower float64
	eng.At(200*sim.Millisecond, func() { deepPower = core.Power() })
	eng.Run()
	shallow := core.Model().OPPs[0].IdleW
	want := shallow * DefaultCStates()[2].PowerFrac
	if math.Abs(deepPower-want) > 1e-12 {
		t.Fatalf("deep idle power %v, want %v", deepPower, want)
	}
}

func TestWakeupPaysExitLatency(t *testing.T) {
	eng, core := idleRig(t)
	// Train to power-collapse (1 ms exit latency).
	eng.At(100*sim.Millisecond, func() { _ = core.Submit(Job{Cycles: 1e6}) })
	var done sim.Time
	eng.At(300*sim.Millisecond, func() {
		_ = core.Submit(Job{Cycles: 1e6, OnDone: func(now sim.Time) { done = now }})
	})
	eng.Run()
	// 1e6 cycles at 1 GHz = 1 ms, plus the 1 ms power-collapse exit.
	want := 300*sim.Millisecond + sim.Millisecond + sim.Millisecond
	if math.Abs(float64(done-want)) > 1e-9 {
		t.Fatalf("job done at %v, want %v (exit latency unpaid)", done, want)
	}
}

func TestIdleStateResidencyAccounting(t *testing.T) {
	eng, core := idleRig(t)
	eng.At(50*sim.Millisecond, func() { _ = core.Submit(Job{Cycles: 1e6}) })
	eng.At(200*sim.Millisecond, func() { eng.Stop() })
	eng.Run()
	res := core.IdleStateResidency()
	if res == nil {
		t.Fatal("residency nil with C-states enabled")
	}
	var total sim.Time
	for _, d := range res {
		total += d
	}
	// Total idle ≈ 200 ms − 1 ms busy − exit stall; allow slack.
	if total < 190*sim.Millisecond || total > 200*sim.Millisecond {
		t.Fatalf("idle residency %v implausible", total)
	}
	if res["wfi"] == 0 {
		t.Fatalf("first idle period should be WFI: %v", res)
	}
}

func TestIdleStateDisabledReturnsNil(t *testing.T) {
	eng := sim.NewEngine()
	core, err := NewCore(eng, testModel(0))
	if err != nil {
		t.Fatal(err)
	}
	if core.IdleStateResidency() != nil || core.IdleState() != "" {
		t.Fatal("disabled C-states should report nothing")
	}
}
