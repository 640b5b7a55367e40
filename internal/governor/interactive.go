package governor

import (
	"fmt"

	"videodvfs/internal/sim"
)

// InteractiveConfig mirrors the tunables of the Android interactive
// governor, the stock choice on most devices of the paper's era.
type InteractiveConfig struct {
	// Timer is the sampling period (timer_rate, default 20 ms).
	Timer sim.Time
	// HispeedFreqFrac is hispeed_freq as a fraction of fmax (vendors
	// typically pick 60–80% of fmax).
	HispeedFreqFrac float64
	// GoHispeedLoad jumps to hispeed_freq when load exceeds it
	// (default 0.99 upstream, 0.85–0.90 as shipped).
	GoHispeedLoad float64
	// TargetLoad is the load the governor tries to hold by choosing
	// f_next = f_cur · load / target_load (default 0.90).
	TargetLoad float64
	// MinSampleTime is how long a raised frequency is held before it may
	// drop (default 80 ms) — the source of interactive's high residency.
	MinSampleTime sim.Time
	// AboveHispeedDelay is the wait before raising beyond hispeed_freq
	// (default 20 ms).
	AboveHispeedDelay sim.Time
}

// DefaultInteractiveConfig returns shipped-device defaults.
func DefaultInteractiveConfig() InteractiveConfig {
	return InteractiveConfig{
		Timer:             20 * sim.Millisecond,
		HispeedFreqFrac:   0.70,
		GoHispeedLoad:     0.85,
		TargetLoad:        0.90,
		MinSampleTime:     80 * sim.Millisecond,
		AboveHispeedDelay: 20 * sim.Millisecond,
	}
}

// Validate checks tunable ranges.
func (c InteractiveConfig) Validate() error {
	if c.Timer <= 0 {
		return fmt.Errorf("interactive: timer %v not positive", c.Timer)
	}
	if c.HispeedFreqFrac <= 0 || c.HispeedFreqFrac > 1 {
		return fmt.Errorf("interactive: hispeed fraction %v outside (0, 1]", c.HispeedFreqFrac)
	}
	if c.GoHispeedLoad <= 0 || c.GoHispeedLoad > 1 {
		return fmt.Errorf("interactive: go_hispeed_load %v outside (0, 1]", c.GoHispeedLoad)
	}
	if c.TargetLoad <= 0 || c.TargetLoad > 1 {
		return fmt.Errorf("interactive: target load %v outside (0, 1]", c.TargetLoad)
	}
	if c.MinSampleTime < 0 || c.AboveHispeedDelay < 0 {
		return fmt.Errorf("interactive: negative hold times")
	}
	return nil
}

// Interactive is the Android interactive governor: aggressive ramp-up to a
// hispeed frequency on load bursts, a target-load proportional controller
// otherwise, and a minimum hold time before any down-step.
type Interactive struct {
	sampling
	cfg InteractiveConfig

	raisedAt     sim.Time // when frequency was last raised
	hispeedSince sim.Time // when we first sat at/above hispeed with high load
}

// NewInteractive returns an interactive governor with the given tunables.
func NewInteractive(cfg InteractiveConfig) (*Interactive, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Interactive{cfg: cfg, hispeedSince: -1}
	g.sampling = sampling{name: "interactive", period: cfg.Timer, tick: g.sample}
	return g, nil
}

func (g *Interactive) sample(now sim.Time) {
	util := g.sampler.Sample(now)
	model := g.core.Model()
	hispeedHz := g.cfg.HispeedFreqFrac * model.Fmax()
	cur := g.core.FreqHz()

	var targetHz float64
	if util >= g.cfg.GoHispeedLoad {
		if cur < hispeedHz {
			// Burst: jump to hispeed immediately.
			targetHz = hispeedHz
			g.hispeedSince = now
		} else {
			// Already at/above hispeed: raise further only after
			// above_hispeed_delay of sustained load.
			if g.hispeedSince < 0 {
				g.hispeedSince = now
			}
			if now-g.hispeedSince >= g.cfg.AboveHispeedDelay {
				targetHz = cur * util / g.cfg.TargetLoad
			} else {
				targetHz = cur
			}
		}
	} else {
		g.hispeedSince = -1
		targetHz = cur * util / g.cfg.TargetLoad
	}

	if targetHz > cur {
		g.core.SetFreq(targetHz)
		g.raisedAt = now
		return
	}
	// Down-scale only after min_sample_time at the raised frequency.
	if now-g.raisedAt < g.cfg.MinSampleTime {
		return
	}
	g.core.SetOPP(highestIdxAtOrBelow(model, maxf(targetHz, model.Fmin())))
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
