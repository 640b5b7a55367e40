package governor

import (
	"videodvfs/internal/sim"
)

// The kernel schedutil governor's shape at kernel-like defaults:
// frequency follows utilization with a 25% headroom and a rate limit.
const (
	// schedutilSampling is the evaluation period (PELT-update
	// granularity here).
	schedutilSampling = 10 * sim.Millisecond
	// schedutilHeadroom is the capacity margin: f = (1 + headroom) ·
	// util · fmax (the kernel uses util + util/4, i.e. 0.25).
	schedutilHeadroom = 0.25
	// schedutilRateLimit is the minimum spacing between frequency
	// changes (rate_limit_us, 10 ms class).
	schedutilRateLimit = 10 * sim.Millisecond
)

// schedutil approximates the kernel schedutil governor with windowed
// utilization in place of PELT: f_next = 1.25 · util · fmax, rate limited.
type schedutil struct {
	sampling
	lastChange sim.Time
}

func newSchedutil() *schedutil {
	g := &schedutil{lastChange: -schedutilRateLimit}
	g.sampling = sampling{name: "schedutil", period: schedutilSampling, tick: g.sample}
	return g
}

func (g *schedutil) sample(now sim.Time) {
	if now-g.lastChange < schedutilRateLimit {
		return
	}
	util := g.sampler.Sample(now)
	target := (1 + schedutilHeadroom) * util * g.core.Model().Fmax()
	before := g.core.OPP()
	g.core.SetFreq(target)
	if g.core.OPP() != before {
		g.lastChange = now
	}
}
