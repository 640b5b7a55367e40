package governor

import (
	"videodvfs/internal/sim"
)

// The kernel ondemand governor's tunables: the kernel defaults on a 20 ms
// sampling period.
const (
	// ondemandSampling is the utilization sampling period.
	ondemandSampling = 20 * sim.Millisecond
	// ondemandUpThreshold is the load fraction above which the governor
	// jumps to the highest OPP (kernel default 80 → 0.80).
	ondemandUpThreshold = 0.80
	// ondemandDownFactor multiplies the sampling period while at the
	// highest OPP before a down-scale is considered (kernel default 1;
	// Android vendors commonly ship 2–4). It slows frequency decay.
	ondemandDownFactor = 2
)

// ondemand is the classic kernel ondemand governor: on high load it jumps
// straight to the highest OPP; otherwise it picks the lowest frequency
// whose capacity covers the observed load (freq_next = load × fmax,
// CPUFREQ_RELATION_L).
type ondemand struct {
	sampling
	downSkip int
}

func newOndemand() *ondemand {
	g := &ondemand{}
	g.sampling = sampling{name: "ondemand", period: ondemandSampling, tick: g.sample}
	return g
}

func (g *ondemand) sample(now sim.Time) {
	util := g.sampler.Sample(now)
	model := g.core.Model()
	if util >= ondemandUpThreshold {
		g.core.SetOPP(model.MaxIdx())
		g.downSkip = ondemandDownFactor
		return
	}
	if g.core.OPP() == model.MaxIdx() && g.downSkip > 0 {
		g.downSkip--
		return
	}
	g.core.SetFreq(util * model.Fmax())
}
