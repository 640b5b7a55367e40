package cpu

import (
	"fmt"

	"videodvfs/internal/sim"
)

// LoadGen submits periodic background jobs to a core, modelling player UI
// updates, audio mixing, and OS housekeeping that share the CPU with the
// decoder. Job sizes are lognormal around a mean with the given CV, and
// periods are jittered ±20% so the load does not phase-lock with frames.
type LoadGen struct {
	eng    *sim.Engine
	core   *Core
	rng    *sim.RNG
	period sim.Time
	// size is the job-demand distribution, solved once per
	// configuration instead of per tick.
	size   sim.LognormalDist
	prio   Priority
	tag    string
	stop   bool
	subErr error
	// fire is the pre-bound tick callback and pool recycles submitted
	// jobs, so a running generator allocates nothing per job.
	fire func()
	pool JobPool
}

// LoadGenConfig configures a background load generator.
type LoadGenConfig struct {
	// Period is the mean inter-arrival of background jobs.
	Period sim.Time
	// MeanCycles is the mean job demand.
	MeanCycles float64
	// CV is the coefficient of variation of job demand.
	CV float64
	// Priority of the submitted jobs; defaults to PrioBackground.
	Priority Priority
	// Tag labels the jobs in CPU accounting; defaults to "background".
	Tag string
}

// DefaultLoadGenConfig is a light UI/OS load: ≈0.5 M cycles every 50 ms
// (~1% of a 1 GHz core).
func DefaultLoadGenConfig() LoadGenConfig {
	return LoadGenConfig{
		Period:     50 * sim.Millisecond,
		MeanCycles: 0.5e6,
		CV:         0.5,
		Priority:   PrioBackground,
		Tag:        "background",
	}
}

// Validate checks the configuration.
func (c LoadGenConfig) Validate() error {
	if c.Period <= 0 {
		return fmt.Errorf("loadgen: period %v not positive", c.Period)
	}
	if c.MeanCycles <= 0 {
		return fmt.Errorf("loadgen: mean cycles %v not positive", c.MeanCycles)
	}
	if c.CV < 0 {
		return fmt.Errorf("loadgen: negative CV %v", c.CV)
	}
	return nil
}

// StartLoadGen begins submitting jobs immediately and until Stop.
func StartLoadGen(eng *sim.Engine, core *Core, rng *sim.RNG, cfg LoadGenConfig) (*LoadGen, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &LoadGen{eng: eng, core: core, rng: rng}
	g.fire = g.tick
	g.configure(cfg)
	g.arm()
	return g, nil
}

// configure applies a validated config, solving the job-size
// distribution the tick path draws from.
func (g *LoadGen) configure(cfg LoadGenConfig) {
	if cfg.Tag == "" {
		cfg.Tag = "background"
	}
	g.period = cfg.Period
	g.size = sim.NewLognormalMeanCV(cfg.MeanCycles, cfg.CV)
	g.prio = cfg.Priority
	g.tag = cfg.Tag
}

// Restart rewinds a stopped (or abandoned) generator to the state
// StartLoadGen would construct for cfg and arms the first tick, keeping
// the job pool and pre-bound callback. The caller is responsible for the
// engine and RNG: restart only after the engine was reset (so no stale
// tick is pending) and after reseeding the RNG if draw-for-draw
// reproducibility with a fresh generator is required.
func (g *LoadGen) Restart(cfg LoadGenConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	g.configure(cfg)
	g.stop = false
	g.subErr = nil
	g.arm()
	return nil
}

func (g *LoadGen) arm() {
	jitter := sim.Time(g.rng.Uniform(0.8, 1.2))
	g.eng.Schedule(g.period*jitter, g.fire)
}

func (g *LoadGen) tick() {
	if g.stop {
		return
	}
	j := g.pool.Get()
	j.Cycles = g.size.Draw(g.rng)
	j.Priority = g.prio
	j.Tag = g.tag
	if err := g.core.Submit(j); err != nil && g.subErr == nil {
		g.subErr = err
	}
	g.arm()
}

// Stop halts job submission.
func (g *LoadGen) Stop() { g.stop = true }

// Err returns the first submission error, if any.
func (g *LoadGen) Err() error { return g.subErr }
