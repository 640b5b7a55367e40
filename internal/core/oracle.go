package core

import (
	"fmt"

	"videodvfs/internal/cpu"
	"videodvfs/internal/sim"
	"videodvfs/internal/trace"
	"videodvfs/internal/video"
)

// Oracle is the offline-optimal reference governor: at each decode start
// it reads the frame's *true* demand (which no online policy can know) and
// selects the exact minimum OPP that meets the deadline, with no margin
// beyond a small guard, and races to the floor whenever the decoder idles.
// It bounds from below the energy any safe per-frame policy can reach on
// this hardware model.
type Oracle struct {
	core     *cpu.Core
	playing  bool
	attached bool
	period   sim.Time
	tracer   trace.Tracer
}

// SetTracer attaches a structured tracer receiving one DecisionEvent per
// frequency decision; PredCycles carries the frame's true demand.
func (o *Oracle) SetTracer(tr trace.Tracer) { o.tracer = tr }

// oracleGuard is the wall-clock slack the oracle reserves per frame
// (DVFS latency).
const oracleGuard = 3 * sim.Millisecond

// StreamInfo implements player.SessionHooks.
func (o *Oracle) StreamInfo(fps float64, _ int) {
	if fps > 0 {
		o.period = sim.Time(1 / fps)
	}
}

// Name implements governor.Governor.
func (*Oracle) Name() string { return "oracle" }

// Attach implements governor.Governor.
func (o *Oracle) Attach(_ *sim.Engine, core *cpu.Core) error {
	if o.attached {
		return fmt.Errorf("governor %s: already attached", o.Name())
	}
	o.attached = true
	o.core = core
	core.SetOPP(0)
	return nil
}

// Detach implements governor.Governor.
func (*Oracle) Detach() {}

// DecodeStart implements decode.Hooks with perfect knowledge: the same
// queue-setpoint budget rule as the online policy, but with the frame's
// true demand and no margin.
func (o *Oracle) DecodeStart(now sim.Time, f video.Frame, deadline sim.Time, ready, queueCap int) {
	if o.core == nil {
		return
	}
	model := o.core.Model()
	if !o.playing {
		o.core.SetOPP(model.MaxIdx())
		if o.tracer != nil {
			o.tracer.Decision(trace.DecisionEvent{T: now, Frame: f.Index, Type: f.Type, OPP: model.MaxIdx(), Boost: true})
		}
		return
	}
	slack := deadline - now - oracleGuard
	if slack <= 0 {
		o.core.SetOPP(model.MaxIdx())
		if o.tracer != nil {
			o.tracer.Decision(trace.DecisionEvent{T: now, Frame: f.Index, Type: f.Type,
				PredCycles: f.Cycles, Slack: slack, OPP: model.MaxIdx(), Boost: true})
		}
		return
	}
	budget := budgetFor(slack, ready, queueCap, o.period, 0.5, 0.5)
	idx := model.MinIdxForCycles(f.Cycles, budget)
	o.core.SetOPP(idx)
	if o.tracer != nil {
		o.tracer.Decision(trace.DecisionEvent{T: now, Frame: f.Index, Type: f.Type,
			PredCycles: f.Cycles, Slack: slack, Budget: budget, OPP: idx})
	}
}

// DecodeEnd implements decode.Hooks.
func (*Oracle) DecodeEnd(sim.Time, video.Frame, sim.Time, float64) {}

// DecoderIdle implements decode.Hooks.
func (o *Oracle) DecoderIdle(sim.Time) {
	if o.core != nil {
		o.core.SetOPP(0)
	}
}

// PlaybackState implements player.SessionHooks.
func (o *Oracle) PlaybackState(_ sim.Time, playing bool) {
	o.playing = playing
	if o.core != nil && !playing {
		o.core.SetOPP(0)
	}
}

// DownloadActivity implements player.SessionHooks.
func (*Oracle) DownloadActivity(sim.Time, bool) {}

// BufferState implements player.SessionHooks.
func (*Oracle) BufferState(sim.Time, float64, int, int) {}
