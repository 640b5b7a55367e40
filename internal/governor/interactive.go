package governor

import (
	"videodvfs/internal/sim"
)

// The Android interactive governor's tunables, the stock choice on most
// devices of the paper's era, at shipped-device defaults.
const (
	// interactiveTimer is the sampling period (timer_rate).
	interactiveTimer = 20 * sim.Millisecond
	// hispeedFreqFrac is hispeed_freq as a fraction of fmax (vendors
	// typically pick 60–80% of fmax).
	hispeedFreqFrac = 0.70
	// goHispeedLoad jumps to hispeed_freq when load exceeds it (0.99
	// upstream, 0.85–0.90 as shipped).
	goHispeedLoad = 0.85
	// targetLoad is the load the governor tries to hold by choosing
	// f_next = f_cur · load / target_load.
	targetLoad = 0.90
	// minSampleTime is how long a raised frequency is held before it may
	// drop — the source of interactive's high residency.
	minSampleTime = 80 * sim.Millisecond
	// aboveHispeedDelay is the wait before raising beyond hispeed_freq.
	aboveHispeedDelay = 20 * sim.Millisecond
)

// interactive is the Android interactive governor: aggressive ramp-up to
// a hispeed frequency on load bursts, a target-load proportional
// controller otherwise, and a minimum hold time before any down-step.
type interactive struct {
	sampling

	raisedAt     sim.Time // when frequency was last raised
	hispeedSince sim.Time // when we first sat at/above hispeed with high load
}

func newInteractive() *interactive {
	g := &interactive{hispeedSince: -1}
	g.sampling = sampling{name: "interactive", period: interactiveTimer, tick: g.sample}
	return g
}

func (g *interactive) sample(now sim.Time) {
	util := g.sampler.Sample(now)
	model := g.core.Model()
	hispeedHz := hispeedFreqFrac * model.Fmax()
	cur := g.core.FreqHz()

	var targetHz float64
	if util >= goHispeedLoad {
		if cur < hispeedHz {
			// Burst: jump to hispeed immediately.
			targetHz = hispeedHz
			g.hispeedSince = now
		} else {
			// Already at/above hispeed: raise further only after
			// above_hispeed_delay of sustained load.
			if g.hispeedSince < 0 {
				g.hispeedSince = now
			}
			if now-g.hispeedSince >= aboveHispeedDelay {
				targetHz = cur * util / targetLoad
			} else {
				targetHz = cur
			}
		}
	} else {
		g.hispeedSince = -1
		targetHz = cur * util / targetLoad
	}

	if targetHz > cur {
		g.core.SetFreq(targetHz)
		g.raisedAt = now
		return
	}
	// Down-scale only after min_sample_time at the raised frequency.
	if now-g.raisedAt < minSampleTime {
		return
	}
	g.core.SetOPP(highestIdxAtOrBelow(model, maxf(targetHz, model.Fmin())))
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
