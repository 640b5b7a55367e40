package governor

import (
	"fmt"

	"videodvfs/internal/sim"
)

// SchedutilConfig mirrors the shape of the kernel schedutil governor:
// frequency follows utilization with a 25% headroom and a rate limit.
type SchedutilConfig struct {
	// Sampling is the evaluation period (PELT-update granularity here).
	Sampling sim.Time
	// Headroom is the capacity margin: f = (1 + Headroom) · util · fmax
	// (kernel uses util + util/4, i.e. 0.25).
	Headroom float64
	// RateLimit is the minimum spacing between frequency changes
	// (rate_limit_us, default 10 ms class).
	RateLimit sim.Time
}

// DefaultSchedutilConfig returns kernel-like defaults.
func DefaultSchedutilConfig() SchedutilConfig {
	return SchedutilConfig{
		Sampling:  10 * sim.Millisecond,
		Headroom:  0.25,
		RateLimit: 10 * sim.Millisecond,
	}
}

// Validate checks tunable ranges.
func (c SchedutilConfig) Validate() error {
	if c.Sampling <= 0 {
		return fmt.Errorf("schedutil: sampling %v not positive", c.Sampling)
	}
	if c.Headroom < 0 || c.Headroom > 1 {
		return fmt.Errorf("schedutil: headroom %v outside [0, 1]", c.Headroom)
	}
	if c.RateLimit < 0 {
		return fmt.Errorf("schedutil: negative rate limit")
	}
	return nil
}

// Schedutil approximates the kernel schedutil governor with windowed
// utilization in place of PELT: f_next = 1.25 · util · fmax, rate limited.
type Schedutil struct {
	sampling
	cfg        SchedutilConfig
	lastChange sim.Time
}

// NewSchedutil returns a schedutil governor with the given tunables.
func NewSchedutil(cfg SchedutilConfig) (*Schedutil, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Schedutil{cfg: cfg, lastChange: -cfg.RateLimit}
	g.sampling = sampling{name: "schedutil", period: cfg.Sampling, tick: g.sample}
	return g, nil
}

func (g *Schedutil) sample(now sim.Time) {
	if now-g.lastChange < g.cfg.RateLimit {
		return
	}
	util := g.sampler.Sample(now)
	target := (1 + g.cfg.Headroom) * util * g.core.Model().Fmax()
	before := g.core.OPP()
	g.core.SetFreq(target)
	if g.core.OPP() != before {
		g.lastChange = now
	}
}
