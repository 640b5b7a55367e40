package core

import (
	"fmt"

	"videodvfs/internal/cpu"
	"videodvfs/internal/decode"
	"videodvfs/internal/sim"
	"videodvfs/internal/trace"
	"videodvfs/internal/video"
)

// littleBias places a frame on the little cluster when its required
// frequency fits under this fraction of the little core's fmax. Below 1 it
// leaves headroom for the little cluster's own background load.
const littleBias = 0.85

// ClusterGovernor is the big.LITTLE-aware extension of the energy-aware
// policy: a placement step on top of the single-core governor's own
// per-frame rule. It places the decode job on the little cluster whenever
// the rule's frequency fits there — the little core's energy-per-cycle is
// several times lower. Network and background jobs always run little; the
// big cluster parks at its floor when unused.
//
// It implements decode.Submitter (the session's job router) alongside
// player.SessionHooks.
type ClusterGovernor struct {
	pol    *Governor // the per-frame rule; never attached to a scaler
	big    *cpu.Core
	little *cpu.Core
	route  *cpu.Core

	framesOnLittle int
	framesOnBig    int
}

// NewClusterGovernor wires the per-frame rule under policy pol to a big
// and a little core.
func NewClusterGovernor(big, little *cpu.Core, pol Config) (*ClusterGovernor, error) {
	if big == nil || little == nil {
		return nil, fmt.Errorf("cluster: both cores are required")
	}
	if big.Model().Fmax() <= little.Model().Fmax() {
		return nil, fmt.Errorf("cluster: big fmax %v must exceed little fmax %v",
			big.Model().Fmax(), little.Model().Fmax())
	}
	rule, err := New(pol)
	if err != nil {
		return nil, err
	}
	g := &ClusterGovernor{pol: rule, big: big, little: little, route: big}
	big.SetOPP(0)
	little.SetOPP(0)
	return g, nil
}

// SetTracer attaches a structured tracer receiving one DecisionEvent per
// decoded frame, as the single-core governor emits; its OPP is the index
// on the cluster the frame was placed on. A nil tracer (the default)
// performs no tracer calls.
func (g *ClusterGovernor) SetTracer(tr trace.Tracer) { g.pol.SetTracer(tr) }

// FramesOnLittle returns how many decode jobs ran on the little cluster.
func (g *ClusterGovernor) FramesOnLittle() int { return g.framesOnLittle }

// FramesOnBig returns how many decode jobs ran on the big cluster.
func (g *ClusterGovernor) FramesOnBig() int { return g.framesOnBig }

// Submit implements decode.Submitter: decode jobs follow the route chosen
// at DecodeStart; everything else (network stack, UI) runs little, as
// vendor energy-aware schedulers place them.
func (g *ClusterGovernor) Submit(j cpu.Job) error {
	if j.Priority == cpu.PrioDecode {
		return g.route.Submit(j)
	}
	return g.little.Submit(j)
}

// StreamInfo implements player.SessionHooks.
func (g *ClusterGovernor) StreamInfo(fps float64, totalFrames int) {
	g.pol.StreamInfo(fps, totalFrames)
}

// DecodeStart implements decode.Hooks: take the per-frame rule's need and
// choose the cluster and OPP that meet it. A boost runs big at the top.
func (g *ClusterGovernor) DecodeStart(now sim.Time, f video.Frame, deadline sim.Time, ready, queueCap int) {
	hz, pred, slack, budget, boost := g.pol.need(now, f, deadline, ready, queueCap)
	var opp int
	switch {
	case boost:
		opp = g.placeBig(g.big.Model().MaxIdx())
	case hz <= littleBias*g.little.Model().Fmax():
		opp = g.placeLittle(g.little.Model().IdxForFreq(hz))
	default:
		opp = g.placeBig(g.big.Model().IdxForFreq(hz))
	}
	if tr := g.pol.tracer; tr != nil {
		tr.Decision(trace.DecisionEvent{T: now, Frame: f.Index, Type: f.Type,
			PredCycles: pred, Slack: slack, Budget: budget, OPP: opp, Boost: boost})
	}
}

func (g *ClusterGovernor) placeBig(opp int) int {
	g.route = g.big
	g.framesOnBig++
	g.big.SetOPP(opp)
	return opp
}

func (g *ClusterGovernor) placeLittle(opp int) int {
	g.route = g.little
	g.framesOnLittle++
	g.little.SetOPP(opp)
	// Big has no decode work: park it.
	if g.pol.cfg.RaceToIdle {
		g.big.SetOPP(0)
	}
	return opp
}

// DecodeEnd implements decode.Hooks.
func (g *ClusterGovernor) DecodeEnd(now sim.Time, f video.Frame, deadline sim.Time, measuredCycles float64) {
	g.pol.DecodeEnd(now, f, deadline, measuredCycles)
}

// DecoderIdle implements decode.Hooks.
func (g *ClusterGovernor) DecoderIdle(sim.Time) {
	if g.pol.parksOnIdle() {
		g.big.SetOPP(0)
		g.little.SetOPP(0)
	}
}

// PlaybackState implements player.SessionHooks.
func (g *ClusterGovernor) PlaybackState(now sim.Time, playing bool) {
	g.pol.PlaybackState(now, playing)
	if !playing && g.pol.cfg.RaceToIdle {
		g.big.SetOPP(0)
		g.little.SetOPP(0)
	}
}

// DownloadActivity implements player.SessionHooks.
func (g *ClusterGovernor) DownloadActivity(now sim.Time, active bool) {
	g.pol.DownloadActivity(now, active)
}

// BufferState implements player.SessionHooks.
func (*ClusterGovernor) BufferState(sim.Time, float64, int, int) {}

// Compile-time checks.
var (
	_ decode.Submitter = (*ClusterGovernor)(nil)
)
