package governor

import (
	"math"

	"videodvfs/internal/cpu"
	"videodvfs/internal/sim"
)

// The kernel conservative governor's tunables: the kernel defaults on a
// 20 ms sampling period.
const (
	// conservativeSampling is the utilization sampling period.
	conservativeSampling = 20 * sim.Millisecond
	// conservativeUp raises the frequency when load exceeds it.
	conservativeUp = 0.80
	// conservativeDown lowers the frequency when load falls below it.
	conservativeDown = 0.20
	// conservativeStep is the step size as a fraction of fmax per
	// decision (kernel default 5%).
	conservativeStep = 0.05
)

// conservative is the kernel conservative governor: it walks the
// frequency up or down in fixed steps instead of jumping, trading
// responsiveness for smoothness.
type conservative struct {
	sampling
}

func newConservative() *conservative {
	g := &conservative{}
	g.sampling = sampling{name: "conservative", period: conservativeSampling, tick: g.sample}
	return g
}

func (g *conservative) sample(now sim.Time) {
	util := g.sampler.Sample(now)
	model := g.core.Model()
	stepHz := conservativeStep * model.Fmax()
	switch {
	case util > conservativeUp:
		g.core.SetFreq(g.core.FreqHz() + stepHz)
	case util < conservativeDown:
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
