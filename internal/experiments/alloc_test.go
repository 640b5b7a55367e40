package experiments

import (
	"testing"

	"videodvfs/internal/player"
	"videodvfs/internal/sim"
)

// allocBudgetRig wires the same simulation Run assembles (untraced) but
// keeps the engine in hand so the test can advance virtual time in chunks
// and measure the allocation rate of the steady-state run loop.
type allocBudgetRig struct {
	eng  *sim.Engine
	sess *player.Session
}

func buildAllocBudgetRig(t *testing.T, cfg RunConfig) *allocBudgetRig {
	t.Helper()
	eng := sim.NewEngine()
	v, err := NewViewer(eng, cfg, ViewerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.teardown)
	v.Start()
	return &allocBudgetRig{eng: eng, sess: v.ps}
}

// TestRunLoopAllocBudget is the tentpole's hard budget: once the session
// reaches steady state, advancing the untraced simulation allocates
// NOTHING — events, timers, CPU jobs, fetch state, and per-frame governor
// bookkeeping all recycle. The budget is exactly zero; any regression that
// reintroduces a per-event or per-frame allocation fails here.
//
// The rig runs the performance governor so every queue drains (under the
// energy-aware policy the core intentionally has no slack, so starved
// low-priority jobs accumulate as live state, which is workload growth,
// not garbage).
func TestRunLoopAllocBudget(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.Governor = GovPerformance
	cfg.Background = false
	cfg.Duration = 120 * sim.Second

	rig := buildAllocBudgetRig(t, cfg)

	// Warm up: startup buffering, pool population, slice growth.
	horizon := 10 * sim.Second
	rig.eng.RunUntil(horizon)

	avg := testing.AllocsPerRun(10, func() {
		horizon += sim.Second
		rig.eng.RunUntil(horizon)
	})
	if avg != 0 {
		t.Fatalf("steady-state run loop allocates: %v allocs per simulated second (want 0)", avg)
	}
	if rig.sess.Err() != nil {
		t.Fatalf("session error: %v", rig.sess.Err())
	}
	if rig.sess.Metrics().DisplayedFrames == 0 {
		t.Fatal("rig never displayed a frame; budget measured an idle loop")
	}
}

// TestRunLoopAllocBudgetReset is the arena-reuse counterpart: after the
// first two runs populate every pool and memo, a WHOLE recycled run —
// Reset, the full event loop, and result collection into a reused
// RunResult — allocates nothing. This is the budget campaign.Pool and
// dvfsd sweeps rely on; any construction work that escapes into the reset
// path fails here.
func TestRunLoopAllocBudgetReset(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.Duration = 10 * sim.Second

	s := NewSession()
	var res RunResult
	// Warm up: first run constructs, second settles pool high-water marks
	// (testing.AllocsPerRun itself runs the closure once more before
	// measuring, so any straggler is also outside the measured window).
	for i := 0; i < 2; i++ {
		if err := s.RunInto(cfg, &res); err != nil {
			t.Fatal(err)
		}
	}

	avg := testing.AllocsPerRun(5, func() {
		if err := s.RunInto(cfg, &res); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("recycled session run allocates: %v allocs per run (want 0)", avg)
	}
	if res.QoE.DisplayedFrames == 0 {
		t.Fatal("recycled run displayed no frames; budget measured an idle loop")
	}
}
