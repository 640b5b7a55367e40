package invariant

import (
	"strings"
	"testing"

	"videodvfs/internal/sim"
	"videodvfs/internal/trace"
)

// cleanConfig is a two-OPP device without C-states.
func cleanConfig() Config {
	return Config{OPPFreqsHz: []float64{1e9, 2e9}}
}

// feedClean replays a minimal but complete well-formed run: one decoded
// and shown frame, one OPP switch, a busy burst, a CPU power step.
func feedClean(c *Checker) {
	c.Power(trace.PowerEvent{T: 0, Component: "cpu", Watts: 0.1})
	c.Frame(trace.FrameEvent{T: 0.1, Stage: trace.StageDecodeStart, Frame: 0})
	c.Frame(trace.FrameEvent{T: 0.3, Stage: trace.StageDecodeEnd, Frame: 0, Cycles: 1e6})
	c.Buffer(trace.BufferEvent{T: 0.3, LevelSec: 0.5, Ready: 1, Cap: 8})
	c.CPUBusy(trace.CPUBusyEvent{T: 0.5, Busy: true})
	c.CPUBusy(trace.CPUBusyEvent{T: 0.7, Busy: false})
	c.OPP(trace.OPPEvent{T: 1, From: 0, To: 1, FreqHz: 2e9})
	c.Power(trace.PowerEvent{T: 1, Component: "cpu", Watts: 0.2})
	c.Frame(trace.FrameEvent{T: 2, Stage: trace.StageShown, Frame: 0})
}

// cleanFinal is the engine-side accounting matching feedClean at end=10.
func cleanFinal() Final {
	return Final{
		End:           10,
		CPUJ:          0.1*1 + 0.2*9, // 0.1 W over [0,1), 0.2 W over [1,10]
		FreqResidency: map[int]sim.Time{0: 1, 1: 9},
		RRCResidency:  map[string]sim.Time{"IDLE": 10},
		Displayed:     1, Dropped: 0, Total: 1,
		Decoded: 1, Discarded: 0, ReadyLeft: 0,
		Completed: true,
	}
}

func TestCleanRunPasses(t *testing.T) {
	c := New(cleanConfig())
	feedClean(c)
	if v := c.Finalize(cleanFinal()); v != nil {
		t.Fatalf("clean stream violated: %v", v)
	}
}

// TestRuleCatalog drives each rule with a stream or Final breaking it.
func TestRuleCatalog(t *testing.T) {
	cases := []struct {
		name string
		rule string // expected Violation.Rule prefix
		feed func(c *Checker)
		fin  func(f *Final) // optional Final mutation
	}{
		{
			name: "time goes backwards",
			rule: "time-monotone",
			feed: func(c *Checker) {
				c.Power(trace.PowerEvent{T: 5, Component: "cpu", Watts: 0.1})
				c.Buffer(trace.BufferEvent{T: 4, LevelSec: 1, Ready: 0, Cap: 8})
			},
		},
		{
			name: "NaN timestamp",
			rule: "time-monotone",
			feed: func(c *Checker) {
				c.Playback(trace.PlaybackEvent{T: sim.Time(nan()), Playing: true})
			},
		},
		{
			name: "OPP outside the table",
			rule: "opp-table",
			feed: func(c *Checker) {
				c.OPP(trace.OPPEvent{T: 1, From: 0, To: 7, FreqHz: 9e9})
			},
		},
		{
			name: "OPP chain broken",
			rule: "opp-table",
			feed: func(c *Checker) {
				c.OPP(trace.OPPEvent{T: 1, From: 1, To: 0, FreqHz: 1e9})
			},
		},
		{
			name: "OPP frequency off-table",
			rule: "opp-table",
			feed: func(c *Checker) {
				c.OPP(trace.OPPEvent{T: 1, From: 0, To: 1, FreqHz: 2e9 + 1})
			},
		},
		{
			name: "governor decision out of range",
			rule: "opp-table",
			feed: func(c *Checker) {
				c.Decision(trace.DecisionEvent{T: 1, OPP: -1})
			},
		},
		{
			name: "illegal RRC promotion to FACH",
			rule: "rrc-residency",
			feed: func(c *Checker) {
				c.RRC(trace.RRCEvent{T: 1, State: "FACH"})
			},
		},
		{
			name: "unknown RRC state",
			rule: "rrc-residency",
			feed: func(c *Checker) {
				c.RRC(trace.RRCEvent{T: 1, State: "CELL_PCH"})
			},
		},
		{
			name: "queue over capacity",
			rule: "buffer-bounds",
			feed: func(c *Checker) {
				c.Buffer(trace.BufferEvent{T: 1, LevelSec: 0.1, Ready: 9, Cap: 8})
			},
		},
		{
			name: "negative buffer level",
			rule: "buffer-bounds",
			feed: func(c *Checker) {
				c.Buffer(trace.BufferEvent{T: 1, LevelSec: -0.1, Ready: 0, Cap: 8})
			},
		},
		{
			name: "shown without decode",
			rule: "frame-accounting",
			feed: func(c *Checker) {
				c.Frame(trace.FrameEvent{T: 1, Stage: trace.StageShown, Frame: 0})
			},
		},
		{
			name: "display slot out of order",
			rule: "frame-accounting",
			feed: func(c *Checker) {
				c.Frame(trace.FrameEvent{T: 1, Stage: trace.StageDropped, Frame: 1})
			},
		},
		{
			name: "concurrent decode on a serial decoder",
			rule: "frame-accounting",
			feed: func(c *Checker) {
				c.Frame(trace.FrameEvent{T: 1, Stage: trace.StageDecodeStart, Frame: 0})
				c.Frame(trace.FrameEvent{T: 2, Stage: trace.StageDecodeStart, Frame: 1})
			},
		},
		{
			name: "busy events do not alternate",
			rule: "cstate-residency",
			feed: func(c *Checker) {
				c.CPUBusy(trace.CPUBusyEvent{T: 1, Busy: true})
				c.CPUBusy(trace.CPUBusyEvent{T: 2, Busy: true})
			},
		},
		{
			name: "negative power draw",
			rule: "power-sane",
			feed: func(c *Checker) {
				c.Power(trace.PowerEvent{T: 1, Component: "cpu", Watts: -0.5})
			},
		},
		{
			name: "meter disagrees with the power stream",
			rule: "energy-closure/cpu",
			feed: feedClean,
			fin:  func(f *Final) { f.CPUJ += 0.5 },
		},
		{
			name: "core residency disagrees with the OPP stream",
			rule: "opp-residency",
			feed: feedClean,
			fin: func(f *Final) {
				f.FreqResidency = map[int]sim.Time{0: 5, 1: 5}
			},
		},
		{
			name: "radio residency disagrees with the RRC stream",
			rule: "rrc-residency",
			feed: feedClean,
			fin: func(f *Final) {
				f.RRCResidency = map[string]sim.Time{"IDLE": 3, "DCH": 7}
			},
		},
		{
			name: "radio dwell in a state the stream never entered",
			rule: "rrc-residency",
			feed: feedClean,
			fin: func(f *Final) {
				// Stream dwell for DCH is absent, so the stream-keyed
				// comparison alone would never look at it.
				f.RRCResidency["DCH"] = 5
			},
		},
		{
			name: "decoded frames not conserved",
			rule: "frame-accounting",
			feed: feedClean,
			fin:  func(f *Final) { f.Discarded = 3 },
		},
		{
			name: "completed session lost display slots",
			rule: "frame-accounting",
			feed: feedClean,
			fin: func(f *Final) {
				// Session claims 2 total; stream consumed 1 slot. Keep the
				// stream-vs-session counts agreeing so the total rule fires.
				f.Total = 2
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(cleanConfig())
			tc.feed(c)
			f := cleanFinal()
			if tc.fin != nil {
				tc.fin(&f)
			} else {
				// A broken stream usually leaves the accounting in an
				// arbitrary state; the stream violation must already be
				// recorded before Finalize compares anything.
				if c.Err() == nil {
					t.Fatalf("stream violation not recorded before Finalize")
				}
			}
			v := c.Finalize(f)
			if v == nil {
				t.Fatalf("violation not detected")
			}
			if !strings.HasPrefix(v.Rule, tc.rule) {
				t.Fatalf("rule = %q, want prefix %q (%v)", v.Rule, tc.rule, v)
			}
			if v.Error() == "" {
				t.Fatalf("empty violation message")
			}
		})
	}
}

// TestFirstViolationWins pins that the checker reports the root cause,
// not the fallout that follows it.
func TestFirstViolationWins(t *testing.T) {
	c := New(cleanConfig())
	c.OPP(trace.OPPEvent{T: 1, From: 0, To: 7, FreqHz: 9e9})     // first: opp-table
	c.Power(trace.PowerEvent{T: 2, Component: "cpu", Watts: -1}) // fallout
	v := c.Err()
	if v == nil || v.Rule != "opp-table" {
		t.Fatalf("first violation = %v, want opp-table", v)
	}
}

// TestCStateClosure exercises the per-C-state dwell cross-check.
func TestCStateClosure(t *testing.T) {
	cfg := cleanConfig()
	cfg.CStateNames = []string{"wfi", "retention"}
	c := New(cfg)
	// Park in wfi [0,2), busy [2,3), retention [3,10].
	c.CPUBusy(trace.CPUBusyEvent{T: 2, Busy: true})
	c.CPUBusy(trace.CPUBusyEvent{T: 3, Busy: false, CState: "retention"})
	f := Final{
		End:           10,
		FreqResidency: map[int]sim.Time{0: 10},
		RRCResidency:  map[string]sim.Time{"IDLE": 10},
		IdleResidency: map[string]sim.Time{"wfi": 2, "retention": 7},
	}
	if v := c.Finalize(f); v != nil {
		t.Fatalf("clean c-state stream violated: %v", v)
	}

	c = New(cfg)
	c.CPUBusy(trace.CPUBusyEvent{T: 2, Busy: true})
	c.CPUBusy(trace.CPUBusyEvent{T: 3, Busy: false, CState: "retention"})
	f.IdleResidency = map[string]sim.Time{"wfi": 9, "retention": 0}
	v := c.Finalize(f)
	if v == nil || v.Rule != "cstate-residency" {
		t.Fatalf("violation = %v, want cstate-residency", v)
	}

	// Engine-only dwell: the core claims time in a state the stream never
	// entered, so the stream-keyed comparison alone would miss it.
	c = New(cfg)
	c.CPUBusy(trace.CPUBusyEvent{T: 2, Busy: true})
	c.CPUBusy(trace.CPUBusyEvent{T: 3, Busy: false, CState: "retention"})
	f.IdleResidency = map[string]sim.Time{"wfi": 2, "retention": 7, "off": 3}
	v = c.Finalize(f)
	if v == nil || v.Rule != "cstate-residency" {
		t.Fatalf("engine-only C-state dwell: violation = %v, want cstate-residency", v)
	}
}

// TestToleranceAbsorbsAccumulationDrift pins the tolerance policy: a
// last-bit associativity difference passes, a real bookkeeping error does
// not.
func TestToleranceAbsorbsAccumulationDrift(t *testing.T) {
	c := New(cleanConfig())
	feedClean(c)
	f := cleanFinal()
	f.CPUJ += 1e-12 // below 1e-9 relative of ~1.9 J
	if v := c.Finalize(f); v != nil {
		t.Fatalf("last-bit drift flagged: %v", v)
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}
