// Package governor implements the cpufreq governor framework and faithful
// re-implementations of the stock Linux governors used as baselines in the
// paper's evaluation: performance, powersave, ondemand, conservative,
// interactive, and schedutil.
//
// Governors observe the simulated core exactly as kernel governors observe
// hardware: a periodic sampling timer, windowed utilization, and the
// current operating point. They steer the core with SetOPP/SetFreq.
package governor

import (
	"fmt"

	"videodvfs/internal/cpu"
	"videodvfs/internal/sim"
)

// Governor controls a core's frequency for the duration of a run.
// Implementations are single-attach: create a fresh instance per
// simulation.
type Governor interface {
	// Name returns the cpufreq-style governor name.
	Name() string
	// Attach begins controlling the core. It must be called at most once.
	Attach(eng *sim.Engine, core *cpu.Core) error
	// Detach stops the governor's timers. Safe to call more than once.
	Detach()
}

// errReattach is returned when Attach is called twice.
func errReattach(name string) error {
	return fmt.Errorf("governor %s: already attached", name)
}

// pinned holds the core at one end of its OPP table: at the top, the
// kernel `performance` governor and the paper's QoE-reference baseline; at
// the floor, `powersave`, the paper's energy lower bound (which drops
// frames on demanding content).
type pinned struct {
	name     string
	top      bool
	attached bool
}

// Name implements Governor.
func (g *pinned) Name() string { return g.name }

// Attach implements Governor.
func (g *pinned) Attach(_ *sim.Engine, core *cpu.Core) error {
	if g.attached {
		return errReattach(g.name)
	}
	g.attached = true
	idx := 0
	if g.top {
		idx = core.Model().MaxIdx()
	}
	core.SetOPP(idx)
	return nil
}

// Detach implements Governor.
func (*pinned) Detach() {}

// sampling is the scaffold the sampling governors embed: the core they
// steer, its utilization sampler, the ticker that calls tick every
// period, and the attach guard.
type sampling struct {
	name   string
	period sim.Time
	tick   func(now sim.Time)

	core     *cpu.Core
	sampler  *cpu.UtilSampler
	ticker   *sim.Ticker
	attached bool
}

// Name implements Governor.
func (s *sampling) Name() string { return s.name }

// Attach implements Governor.
func (s *sampling) Attach(eng *sim.Engine, core *cpu.Core) error {
	if s.attached {
		return errReattach(s.name)
	}
	s.attached = true
	s.core = core
	s.sampler = cpu.NewUtilSampler(core)
	s.ticker = sim.NewTicker(eng, s.period, s.tick)
	return nil
}

// Detach implements Governor.
func (s *sampling) Detach() {
	if s.ticker != nil {
		s.ticker.Stop()
	}
}
