package governor

import (
	"fmt"
	"math"

	"videodvfs/internal/cpu"
	"videodvfs/internal/sim"
)

// ConservativeConfig mirrors the tunables of the kernel conservative
// governor.
type ConservativeConfig struct {
	// SamplingRate is the utilization sampling period.
	SamplingRate sim.Time
	// UpThreshold raises the frequency when load exceeds it (default 0.80).
	UpThreshold float64
	// DownThreshold lowers the frequency when load falls below it
	// (default 0.20).
	DownThreshold float64
	// FreqStep is the step size as a fraction of fmax per decision
	// (kernel default 5%).
	FreqStep float64
}

// DefaultConservativeConfig returns the kernel defaults on a 20 ms period.
func DefaultConservativeConfig() ConservativeConfig {
	return ConservativeConfig{
		SamplingRate:  20 * sim.Millisecond,
		UpThreshold:   0.80,
		DownThreshold: 0.20,
		FreqStep:      0.05,
	}
}

// Validate checks tunable ranges.
func (c ConservativeConfig) Validate() error {
	if c.SamplingRate <= 0 {
		return fmt.Errorf("conservative: sampling rate %v not positive", c.SamplingRate)
	}
	if c.UpThreshold <= 0 || c.UpThreshold > 1 {
		return fmt.Errorf("conservative: up threshold %v outside (0, 1]", c.UpThreshold)
	}
	if c.DownThreshold < 0 || c.DownThreshold >= c.UpThreshold {
		return fmt.Errorf("conservative: down threshold %v must be in [0, up)", c.DownThreshold)
	}
	if c.FreqStep <= 0 || c.FreqStep > 1 {
		return fmt.Errorf("conservative: freq step %v outside (0, 1]", c.FreqStep)
	}
	return nil
}

// Conservative is the kernel conservative governor: it walks the frequency
// up or down in fixed steps instead of jumping, trading responsiveness for
// smoothness.
type Conservative struct {
	sampling
	cfg ConservativeConfig
}

// NewConservative returns a conservative governor with the given tunables.
func NewConservative(cfg ConservativeConfig) (*Conservative, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Conservative{cfg: cfg}
	g.sampling = sampling{name: "conservative", period: cfg.SamplingRate, tick: g.sample}
	return g, nil
}

func (g *Conservative) sample(now sim.Time) {
	util := g.sampler.Sample(now)
	model := g.core.Model()
	stepHz := g.cfg.FreqStep * model.Fmax()
	switch {
	case util > g.cfg.UpThreshold:
		g.core.SetFreq(g.core.FreqHz() + stepHz)
	case util < g.cfg.DownThreshold:
		// Step down to the highest OPP strictly below (current - step),
		// mirroring the kernel's RELATION_H on the way down.
		target := g.core.FreqHz() - stepHz
		g.core.SetOPP(highestIdxAtOrBelow(model, target))
	}
}

// highestIdxAtOrBelow returns the highest OPP with frequency ≤ hz, or 0.
func highestIdxAtOrBelow(m cpu.Model, hz float64) int {
	best := 0
	for i, o := range m.OPPs {
		if o.FreqHz <= hz+1e-6 {
			best = i
		}
	}
	// Guard against NaN arithmetic upstream.
	if math.IsNaN(hz) {
		return 0
	}
	return best
}
