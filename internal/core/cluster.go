package core

import (
	"fmt"

	"videodvfs/internal/cpu"
	"videodvfs/internal/decode"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

// ClusterConfig tunes the big.LITTLE extension of the energy-aware
// governor.
type ClusterConfig struct {
	// Policy is the per-frame frequency policy shared with the
	// single-core governor.
	Policy Config
	// LittleBias places a frame on the little cluster when its required
	// frequency fits under this fraction of the little core's fmax.
	// Below 1 it leaves headroom for the little cluster's own
	// background load.
	LittleBias float64
}

// DefaultClusterConfig returns the paper-default cluster tuning.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{Policy: DefaultConfig(), LittleBias: 0.85}
}

// Validate checks the configuration.
func (c ClusterConfig) Validate() error {
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	if c.LittleBias <= 0 || c.LittleBias > 1 {
		return fmt.Errorf("cluster: little bias %v outside (0, 1]", c.LittleBias)
	}
	return nil
}

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
	cfg    ClusterConfig
	pol    *Governor // the per-frame rule; never attached to a scaler
	big    *cpu.Core
	little *cpu.Core
	route  *cpu.Core

	framesOnLittle int
	framesOnBig    int
}

// NewClusterGovernor wires the policy to a big and a little core.
func NewClusterGovernor(big, little *cpu.Core, cfg ClusterConfig) (*ClusterGovernor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if big == nil || little == nil {
		return nil, fmt.Errorf("cluster: both cores are required")
	}
	if big.Model().Fmax() <= little.Model().Fmax() {
		return nil, fmt.Errorf("cluster: big fmax %v must exceed little fmax %v",
			big.Model().Fmax(), little.Model().Fmax())
	}
	pol, err := New(cfg.Policy)
	if err != nil {
		return nil, err
	}
	g := &ClusterGovernor{cfg: cfg, pol: pol, big: big, little: little, route: big}
	big.SetOPP(0)
	little.SetOPP(0)
	return g, nil
}

// Name identifies the policy in reports.
func (*ClusterGovernor) Name() string { return "energyaware-cluster" }

// FramesOnLittle returns how many decode jobs ran on the little cluster.
func (g *ClusterGovernor) FramesOnLittle() int { return g.framesOnLittle }

// FramesOnBig returns how many decode jobs ran on the big cluster.
func (g *ClusterGovernor) FramesOnBig() int { return g.framesOnBig }

// Submit implements decode.Submitter: decode jobs follow the route chosen
// at DecodeStart; everything else (network stack, UI) runs little, as
// vendor energy-aware schedulers place them.
func (g *ClusterGovernor) Submit(j *cpu.Job) error {
	if j != nil && j.Priority == cpu.PrioDecode {
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
	hz, _, _, _, boost := g.pol.need(now, f, deadline, ready, queueCap)
	switch {
	case boost:
		g.placeBig(g.big.Model().MaxIdx())
	case hz <= g.cfg.LittleBias*g.little.Model().Fmax():
		g.placeLittle(g.little.Model().IdxForFreq(hz))
	default:
		g.placeBig(g.big.Model().IdxForFreq(hz))
	}
}

func (g *ClusterGovernor) placeBig(opp int) {
	g.route = g.big
	g.framesOnBig++
	g.big.SetOPP(opp)
}

func (g *ClusterGovernor) placeLittle(opp int) {
	g.route = g.little
	g.framesOnLittle++
	g.little.SetOPP(opp)
	// Big has no decode work: park it.
	if g.cfg.Policy.RaceToIdle {
		g.big.SetOPP(0)
	}
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
	if !playing && g.cfg.Policy.RaceToIdle {
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
