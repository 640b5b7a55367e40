package cpu

import (
	"fmt"

	"videodvfs/internal/sim"
)

// CState is one idle state of the core, mirroring cpuidle: deeper states
// draw less power but cost more to enter/exit and only pay off for idle
// periods longer than their target residency.
type CState struct {
	// Name is the cpuidle-style state name.
	Name string
	// PowerFrac scales the OPP's clock-gated idle power in this state.
	PowerFrac float64
	// ExitLatency stalls the first job after wakeup.
	ExitLatency sim.Time
	// TargetResidency is the minimum profitable idle length.
	TargetResidency sim.Time
}

// DefaultCStates returns a phone-class three-state ladder: WFI, core
// retention, and full power collapse.
func DefaultCStates() []CState {
	return []CState{
		{Name: "wfi", PowerFrac: 1.00, ExitLatency: 5 * sim.Microsecond, TargetResidency: 0},
		{Name: "retention", PowerFrac: 0.45, ExitLatency: 100 * sim.Microsecond, TargetResidency: 500 * sim.Microsecond},
		{Name: "power-collapse", PowerFrac: 0.08, ExitLatency: sim.Millisecond, TargetResidency: 3 * sim.Millisecond},
	}
}

// idleGovernor is a menu-style idle-state selector: it predicts the next
// idle period from an EWMA of recent ones and picks the deepest state
// whose target residency fits the prediction.
type idleGovernor struct {
	states []CState
	// predicted idle length, EWMA-smoothed.
	predS float64
	init  bool
}

const idleEWMAAlpha = 0.3

func (g *idleGovernor) pick() int {
	if !g.init {
		return 0 // no history: shallowest state
	}
	choice := 0
	for i, st := range g.states {
		if g.predS >= st.TargetResidency.Seconds() {
			choice = i
		}
	}
	return choice
}

func (g *idleGovernor) observe(idle sim.Time) {
	s := idle.Seconds()
	if !g.init {
		g.predS = s
		g.init = true
		return
	}
	g.predS = idleEWMAAlpha*s + (1-idleEWMAAlpha)*g.predS
}

// EnableCStates turns on the cpuidle model over the DefaultCStates
// ladder: idle periods enter the state the menu governor selects, idle
// power scales by the state's PowerFrac, and wakeups stall the next job by
// the state's exit latency. Must be called before any job is submitted.
func (c *Core) EnableCStates() error {
	if c.busy || c.QueueLen() > 0 {
		return fmt.Errorf("cpuidle: enable before submitting work")
	}
	states := DefaultCStates()
	c.idle = &idleGovernor{states: states}
	c.idleStateIdx = 0
	if len(c.idleDwell) == len(states) {
		for i := range c.idleDwell {
			c.idleDwell[i] = 0
		}
	} else {
		c.idleDwell = make([]sim.Time, len(states))
	}
	c.emitPower()
	return nil
}

// IdleState returns the name of the current idle state ("" when busy or
// when C-states are disabled).
func (c *Core) IdleState() string {
	if c.idle == nil || c.busy {
		return ""
	}
	return c.idle.states[c.idleStateIdx].Name
}

// IdleStateResidency returns seconds spent in each C-state so far (nil
// when disabled).
func (c *Core) IdleStateResidency() map[string]sim.Time {
	if c.idle == nil {
		return nil
	}
	out := make(map[string]sim.Time, len(c.idleDwell))
	c.IdleStateResidencyInto(out)
	return out
}

// IdleStateResidencyInto fills out with seconds spent in each C-state so
// far, clearing it first; with C-states disabled it only clears. It is the
// allocation-free variant of IdleStateResidency for result structs that
// recycle their maps across runs.
func (c *Core) IdleStateResidencyInto(out map[string]sim.Time) {
	clear(out)
	if c.idle == nil {
		return
	}
	for i, v := range c.idleDwell {
		if v > 0 {
			out[c.idle.states[i].Name] = v
		}
	}
	if !c.busy {
		out[c.idle.states[c.idleStateIdx].Name] += c.eng.Now() - c.idleSince
	}
}
