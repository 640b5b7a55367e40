package governor

import (
	"fmt"

	"videodvfs/internal/sim"
)

// OndemandConfig mirrors the tunables of the kernel ondemand governor.
type OndemandConfig struct {
	// SamplingRate is the utilization sampling period.
	SamplingRate sim.Time
	// UpThreshold is the load fraction above which the governor jumps to
	// the highest OPP (kernel default 80 → 0.80).
	UpThreshold float64
	// SamplingDownFactor multiplies the sampling period while at the
	// highest OPP before a down-scale is considered (kernel default 1;
	// Android vendors commonly ship 2–4). It slows frequency decay.
	SamplingDownFactor int
	// PowersaveBias shifts every target frequency down by this fraction
	// (the kernel tunable is 0–1000 per mille; here 0–1). Default 0.
	PowersaveBias float64
}

// DefaultOndemandConfig returns the kernel defaults on a 20 ms sampling
// period.
func DefaultOndemandConfig() OndemandConfig {
	return OndemandConfig{
		SamplingRate:       20 * sim.Millisecond,
		UpThreshold:        0.80,
		SamplingDownFactor: 2,
	}
}

// Validate checks tunable ranges.
func (c OndemandConfig) Validate() error {
	if c.SamplingRate <= 0 {
		return fmt.Errorf("ondemand: sampling rate %v not positive", c.SamplingRate)
	}
	if c.UpThreshold <= 0 || c.UpThreshold > 1 {
		return fmt.Errorf("ondemand: up threshold %v outside (0, 1]", c.UpThreshold)
	}
	if c.SamplingDownFactor < 1 {
		return fmt.Errorf("ondemand: sampling down factor %d < 1", c.SamplingDownFactor)
	}
	if c.PowersaveBias < 0 || c.PowersaveBias >= 1 {
		return fmt.Errorf("ondemand: powersave bias %v outside [0, 1)", c.PowersaveBias)
	}
	return nil
}

// Ondemand is the classic kernel ondemand governor: on high load it jumps
// straight to the highest OPP; otherwise it picks the lowest frequency
// whose capacity covers the observed load (freq_next = load × fmax,
// CPUFREQ_RELATION_L).
type Ondemand struct {
	sampling
	cfg      OndemandConfig
	downSkip int
}

// NewOndemand returns an ondemand governor with the given tunables.
func NewOndemand(cfg OndemandConfig) (*Ondemand, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Ondemand{cfg: cfg}
	g.sampling = sampling{name: "ondemand", period: cfg.SamplingRate, tick: g.sample}
	return g, nil
}

func (g *Ondemand) sample(now sim.Time) {
	util := g.sampler.Sample(now)
	model := g.core.Model()
	bias := 1 - g.cfg.PowersaveBias
	if util >= g.cfg.UpThreshold {
		g.core.SetFreq(model.Fmax() * bias)
		g.downSkip = g.cfg.SamplingDownFactor
		return
	}
	if g.core.OPP() >= model.IdxForFreq(model.Fmax()*bias) && g.downSkip > 0 {
		g.downSkip--
		return
	}
	g.core.SetFreq(util * model.Fmax() * bias)
}
