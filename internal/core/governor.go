package core

import (
	"fmt"

	"videodvfs/internal/cpu"
	"videodvfs/internal/sim"
	"videodvfs/internal/stats"
	"videodvfs/internal/trace"
	"videodvfs/internal/video"
)

// Config tunes the energy-aware governor.
type Config struct {
	// Margin inflates the predicted demand by this fraction before
	// choosing a frequency (headroom for background load, network-stack
	// interference, and DVFS stalls).
	Margin float64
	// SigmaK is the σ multiplier of the demand predictor.
	SigmaK float64
	// Alpha is the predictor's EWMA smoothing factor.
	Alpha float64
	// Predictor selects the prediction family.
	Predictor PredictorKind
	// Guard is wall-clock slack reserved per frame for display handoff
	// and DVFS transition latency.
	Guard sim.Time
	// TargetQueueFrac sets the decoded-queue setpoint as a fraction of
	// its capacity. The budget rule gives each frame
	// (ready − target + 1) frame periods, so the queue hovers at the
	// setpoint: above it the policy coasts at low frequency, below it it
	// speeds up. 0.5 is the paper default.
	TargetQueueFrac float64
	// SprintFrames floors the per-frame budget (in frame periods) when
	// the queue runs low; 0.5 means "decode at twice the sustained rate
	// to refill".
	SprintFrames float64
	// RaceToIdle drops to MinOPP whenever the decoder has nothing
	// runnable.
	RaceToIdle bool
	// StartupBoost pins the top OPP while playback has not started or is
	// stalled, matching the performance governor's startup latency.
	StartupBoost bool
	// MinOPP is the floor OPP index (background work still needs cycles).
	MinOPP int
}

// DefaultConfig returns the paper-default tuning.
func DefaultConfig() Config {
	return Config{
		Margin:          0.15,
		SigmaK:          2.0,
		Alpha:           0.12,
		Predictor:       PredictPerTypeSigma,
		Guard:           3 * sim.Millisecond,
		TargetQueueFrac: 0.5,
		SprintFrames:    0.5,
		RaceToIdle:      true,
		StartupBoost:    true,
		MinOPP:          0,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Margin < 0 || c.Margin > 2 {
		return fmt.Errorf("core: margin %v outside [0, 2]", c.Margin)
	}
	if c.SigmaK < 0 {
		return fmt.Errorf("core: negative sigma factor")
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("core: alpha %v outside (0, 1]", c.Alpha)
	}
	if c.Guard < 0 {
		return fmt.Errorf("core: negative guard")
	}
	if c.TargetQueueFrac <= 0 || c.TargetQueueFrac > 1 {
		return fmt.Errorf("core: target queue fraction %v outside (0, 1]", c.TargetQueueFrac)
	}
	if c.SprintFrames <= 0 || c.SprintFrames > 1 {
		return fmt.Errorf("core: sprint budget %v outside (0, 1]", c.SprintFrames)
	}
	if c.MinOPP < 0 {
		return fmt.Errorf("core: negative min OPP")
	}
	return nil
}

// PredictionStats summarizes predictor accuracy over a run.
type PredictionStats struct {
	// N is the number of predicted frames.
	N int
	// Underestimates counts frames whose true demand exceeded the
	// prediction (the dangerous direction).
	Underestimates int
	// RelErr collects |pred - actual| / actual.
	RelErr []float64
}

// UnderRate returns the underestimate fraction.
func (p PredictionStats) UnderRate() float64 {
	if p.N == 0 {
		return 0
	}
	return float64(p.Underestimates) / float64(p.N)
}

// RelErrP returns the given percentile of relative error.
func (p PredictionStats) RelErrP(pct float64) float64 {
	return stats.Percentile(p.RelErr, pct)
}

// budgetFor implements the shared queue-setpoint budget rule: the time a
// frame may take so the decoded queue is steered toward its setpoint,
// never exceeding the frame's own deadline slack.
func budgetFor(slack sim.Time, ready, queueCap int, period sim.Time,
	targetFrac, sprintFrames float64) sim.Time {
	if period <= 0 {
		// Unknown frame rate: estimate the period from slack, which
		// spans roughly ready+1 frame intervals at steady state.
		period = slack / sim.Time(float64(ready+1))
	}
	target := int(targetFrac * float64(queueCap))
	if target < 1 {
		target = 1
	}
	frames := float64(ready-target) + 1
	if frames < sprintFrames {
		frames = sprintFrames
	}
	budget := sim.Time(frames) * period
	if budget > slack {
		budget = slack
	}
	return budget
}

// FreqScaler is the hardware surface the policy drives: a single core or
// a multi-core frequency domain.
type FreqScaler interface {
	// Model returns the OPP table.
	Model() cpu.Model
	// SetOPP switches the (shared) operating point.
	SetOPP(idx int)
}

// Governor is the energy-aware video DVFS policy. It implements
// governor.Governor and player.SessionHooks; attach it to the core (or a
// cpu.Domain via AttachScaler) and pass it as the session's Hooks.
type Governor struct {
	cfg    Config
	pred   Predictor
	core   FreqScaler
	model  cpu.Model // the scaler's OPP table, read at attach
	minIdx int       // MinOPP clamped into model
	tracer trace.Tracer

	playing     bool
	downloading bool
	attached    bool
	period      sim.Time

	// Single-slot in-flight prediction record so DecodeEnd can score
	// accuracy. The decoder is strictly serial (one in-flight decode), so
	// one slot replaces the former map without changing behavior.
	predIdx int
	predVal float64
	predOK  bool

	predStats   PredictionStats
	noErrLog    bool // SkipErrorLog: score predictions, log no per-frame error
	boostFrames int
	lowFrames   int
}

// New returns an energy-aware governor with the given tuning.
func New(cfg Config) (*Governor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pred, err := NewPredictor(cfg.Predictor, cfg.Alpha, cfg.SigmaK)
	if err != nil {
		return nil, err
	}
	return &Governor{cfg: cfg, pred: pred}, nil
}

// Reset rewinds the governor to the state New(cfg) would construct,
// keeping its allocations: the per-frame error log's backing array and —
// when the predictor family and parameters are unchanged — the predictor
// itself, zeroed in place. The governor detaches from its scaler and drops
// its tracer; the next run re-attaches.
func (g *Governor) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if !g.resetPredictorInPlace(cfg) {
		pred, err := NewPredictor(cfg.Predictor, cfg.Alpha, cfg.SigmaK)
		if err != nil {
			return err
		}
		g.pred = pred
	}
	g.cfg = cfg
	g.core = nil
	g.tracer = nil
	g.playing = false
	g.downloading = false
	g.attached = false
	g.period = 0
	g.predIdx, g.predVal, g.predOK = 0, 0, false
	g.predStats = PredictionStats{RelErr: g.predStats.RelErr[:0]}
	g.noErrLog = false
	g.boostFrames = 0
	g.lowFrames = 0
	return nil
}

// resetPredictorInPlace zeroes the existing predictor when the new config
// keeps the same family and parameters, reporting whether it could.
func (g *Governor) resetPredictorInPlace(cfg Config) bool {
	if cfg.Predictor != g.cfg.Predictor || cfg.Alpha != g.cfg.Alpha || cfg.SigmaK != g.cfg.SigmaK {
		return false
	}
	switch p := g.pred.(type) {
	case *typedPredictor:
		for i := range p.stats {
			p.stats[i] = ewmaStat{alpha: p.alpha}
		}
		return true
	case *globalPredictor:
		p.st = ewmaStat{alpha: p.st.alpha}
		return true
	}
	return false
}

// Name implements governor.Governor.
func (*Governor) Name() string { return "energyaware" }

// Attach implements governor.Governor. The governor is event-driven: it
// needs no sampling timer, only the session hooks.
func (g *Governor) Attach(eng *sim.Engine, core *cpu.Core) error {
	return g.AttachScaler(eng, core)
}

// AttachScaler attaches the policy to any frequency-scaling surface — a
// single core or a shared-clock multi-core domain.
func (g *Governor) AttachScaler(_ *sim.Engine, scaler FreqScaler) error {
	if g.attached {
		return fmt.Errorf("governor %s: already attached", g.Name())
	}
	if scaler == nil {
		return fmt.Errorf("governor %s: nil scaler", g.Name())
	}
	g.attached = true
	g.core = scaler
	g.model = scaler.Model()
	g.minIdx = min(g.cfg.MinOPP, g.model.MaxIdx())
	scaler.SetOPP(g.minIdx)
	return nil
}

// Detach implements governor.Governor.
func (*Governor) Detach() {}

// SetTracer attaches a structured tracer receiving one DecisionEvent per
// frequency decision. nil disables tracing; the untraced decision path
// performs no tracer calls and no allocations.
func (g *Governor) SetTracer(tr trace.Tracer) { g.tracer = tr }

// PredStats returns predictor-accuracy statistics for the run.
func (g *Governor) PredStats() PredictionStats { return g.predStats }

// SkipErrorLog stops the governor logging each frame's relative
// prediction error until the next Reset. PredStats still counts N and
// Underestimates, but its RelErr stays empty and StreamInfo sizes no log:
// the log holds a float per frame, so it grows with content length, and a
// caller that never reads it need not hold it. No decision changes.
func (g *Governor) SkipErrorLog() { g.noErrLog = true }

// BoostFrames returns how many frames ran at forced top frequency
// (startup, cold predictor, or missed slack).
func (g *Governor) BoostFrames() int { return g.boostFrames }

// StreamInfo implements player.SessionHooks: learn the frame period and
// pre-size the per-frame error log, unless SkipErrorLog turned it off, so
// the decode loop never regrows it.
func (g *Governor) StreamInfo(fps float64, totalFrames int) {
	if fps > 0 {
		g.period = sim.Time(1 / fps)
	}
	if !g.noErrLog && totalFrames > cap(g.predStats.RelErr) {
		relErr := make([]float64, len(g.predStats.RelErr), totalFrames)
		copy(relErr, g.predStats.RelErr)
		g.predStats.RelErr = relErr
	}
}

// need is the per-frame rule (DESIGN.md §1, steps 1–3): predict the
// frame's decode demand, turn the decoded-queue slack into a time budget,
// and return the frequency that retires the margin-inflated demand inside
// it. boost reports the ladder's cases where the frame must run at the top
// instead: startup or a stall, a cold predictor, no slack left. pred,
// slack and budget are what the decision trace records; each is zero when
// the ladder stopped before computing it.
func (g *Governor) need(now sim.Time, f video.Frame, deadline sim.Time, ready, queueCap int) (hz, pred float64, slack, budget sim.Time, boost bool) {
	if g.cfg.StartupBoost && !g.playing {
		return 0, 0, 0, 0, true
	}
	pred, ok := g.pred.Predict(f.Type)
	if !ok {
		// Cold predictor: be safe, learn fast.
		return 0, 0, 0, 0, true
	}
	g.predIdx, g.predVal, g.predOK = f.Index, pred, true
	slack = deadline - now - g.cfg.Guard
	if slack <= 0 {
		return 0, pred, slack, 0, true
	}
	budget = budgetFor(slack, ready, queueCap, g.period, g.cfg.TargetQueueFrac, g.cfg.SprintFrames)
	return pred * (1 + g.cfg.Margin) / budget.Seconds(), pred, slack, budget, false
}

// DecodeStart implements decode.Hooks: run the per-frame rule and set the
// lowest OPP that meets its need, never below the MinOPP floor; a boost
// pins the top OPP.
func (g *Governor) DecodeStart(now sim.Time, f video.Frame, deadline sim.Time, ready, queueCap int) {
	if g.core == nil {
		return
	}
	hz, pred, slack, budget, boost := g.need(now, f, deadline, ready, queueCap)
	idx := g.model.MaxIdx()
	if boost {
		g.boostFrames++
	} else {
		idx = max(g.model.IdxForFreq(hz), g.minIdx)
		if idx == g.minIdx {
			g.lowFrames++
		}
	}
	g.core.SetOPP(idx)
	if g.tracer != nil {
		g.tracer.Decision(trace.DecisionEvent{T: now, Frame: f.Index, Type: f.Type,
			PredCycles: pred, Slack: slack, Budget: budget, OPP: idx, Boost: boost})
	}
}

// DecodeEnd implements decode.Hooks: feed the predictor and score it.
func (g *Governor) DecodeEnd(_ sim.Time, f video.Frame, _ sim.Time, measuredCycles float64) {
	if g.predOK && g.predIdx == f.Index {
		pred := g.predVal
		g.predOK = false
		g.predStats.N++
		if measuredCycles > pred {
			g.predStats.Underestimates++
		}
		if measuredCycles > 0 && !g.noErrLog {
			rel := pred - measuredCycles
			if rel < 0 {
				rel = -rel
			}
			g.predStats.RelErr = append(g.predStats.RelErr, rel/measuredCycles)
		}
	}
	g.pred.Observe(f.Type, measuredCycles)
}

// DecoderIdle implements decode.Hooks: race to the floor.
func (g *Governor) DecoderIdle(sim.Time) {
	if g.core != nil && g.parksOnIdle() {
		g.core.SetOPP(g.minIdx)
	}
}

// parksOnIdle reports whether an idle decoder drops the clock: race to
// idle is on, and the startup boost is not prerolling — then the decoder
// idles only momentarily between segment arrivals.
func (g *Governor) parksOnIdle() bool {
	return g.cfg.RaceToIdle && !(g.cfg.StartupBoost && !g.playing && g.downloading)
}

// PlaybackState implements player.SessionHooks.
func (g *Governor) PlaybackState(_ sim.Time, playing bool) {
	g.playing = playing
	if g.core == nil {
		return
	}
	if !playing && g.cfg.RaceToIdle {
		// Stalls are network-bound; burning CPU does not help.
		g.core.SetOPP(g.minIdx)
	}
}

// DownloadActivity implements player.SessionHooks.
func (g *Governor) DownloadActivity(_ sim.Time, active bool) { g.downloading = active }

// BufferState implements player.SessionHooks. Slack already reaches the
// policy through decode deadlines and queue occupancy, so the media-buffer
// level needs no separate handling.
func (*Governor) BufferState(sim.Time, float64, int, int) {}
