package cpu

import (
	"videodvfs/internal/sim"
)

// The background load is a light UI/OS load: ≈0.5 M cycles every 50 ms
// (~1% of a 1 GHz core).
const (
	// loadPeriod is the mean inter-arrival of background jobs.
	loadPeriod = 50 * sim.Millisecond
	// loadMeanCycles is the mean job demand.
	loadMeanCycles = 0.5e6
	// loadCV is the coefficient of variation of job demand.
	loadCV = 0.5
)

// loadSize is the job-demand distribution, solved once for the process
// instead of per tick.
var loadSize = sim.NewLognormalMeanCV(loadMeanCycles, loadCV)

// LoadGen submits periodic background jobs to a core, modelling player UI
// updates, audio mixing, and OS housekeeping that share the CPU with the
// decoder. Job sizes are lognormal around their mean, and periods are
// jittered ±20% so the load does not phase-lock with frames.
type LoadGen struct {
	eng    *sim.Engine
	core   *Core
	rng    *sim.RNG
	next   sim.Event // the pending tick
	subErr error
	// fire is the pre-bound tick callback, so a running generator
	// allocates nothing per job.
	fire func()
}

// StartLoadGen begins submitting jobs immediately and until Stop.
func StartLoadGen(eng *sim.Engine, core *Core, rng *sim.RNG) *LoadGen {
	g := &LoadGen{eng: eng, core: core, rng: rng}
	g.fire = g.tick
	g.arm()
	return g
}

// Restart rewinds a stopped (or abandoned) generator to the state
// StartLoadGen would construct and arms the first tick, keeping the
// pre-bound callback. A tick still pending is canceled first, so a
// generator restarted on an engine that keeps running has one tick chain.
// The caller reseeds the RNG if draw-for-draw reproducibility with
// a fresh generator is required.
func (g *LoadGen) Restart() {
	g.eng.Cancel(g.next)
	g.subErr = nil
	g.arm()
}

func (g *LoadGen) arm() {
	jitter := sim.Time(g.rng.Uniform(0.8, 1.2))
	g.next = g.eng.Schedule(loadPeriod*jitter, g.fire)
}

func (g *LoadGen) tick() {
	if err := g.core.Submit(Job{Cycles: loadSize.Draw(g.rng), Priority: PrioBackground}); err != nil && g.subErr == nil {
		g.subErr = err
	}
	g.arm()
}

// Stop halts job submission, canceling the pending tick.
func (g *LoadGen) Stop() { g.eng.Cancel(g.next) }

// Err returns the first submission error, if any.
func (g *LoadGen) Err() error { return g.subErr }
