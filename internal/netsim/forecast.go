package netsim

import (
	"fmt"
	"math"

	"videodvfs/internal/sim"
)

// Forecast exposes a bandwidth prediction as a piecewise-constant function
// of future time, mirroring the Bandwidth interface so a scheduler can
// integrate predicted deliveries exactly the way the downloader integrates
// real ones. Predictions are pure: Predict must not mutate observable
// state, and equal arguments must yield equal results regardless of query
// order — the player evaluates the forecast at every decision point and
// results must not depend on how often it asked.
type Forecast interface {
	// Predict returns the predicted rate in bits/s at t and the horizon up
	// to which that prediction holds. The horizon must be > t (or
	// sim.Forever), exactly like Bandwidth.Rate.
	Predict(t sim.Time) (bps float64, until sim.Time)
	// Horizon returns the lookahead window: how far past "now" the
	// forecast is meaningful. Schedulers must not act on predictions
	// beyond now+Horizon.
	Horizon() sim.Time
}

// Oracle is the perfect forecast: it probes the underlying Bandwidth model
// directly, so its predictions are exactly the rates the downloader will
// observe. It works mechanically over any model — Constant, Steps, Markov
// traces, recorded Traces, and cohort cell wrappers — because they all
// already answer Rate for arbitrary future times.
type Oracle struct {
	// BW is the bandwidth model being predicted.
	BW Bandwidth
	// Lookahead is the forecast window.
	Lookahead sim.Time
}

// Predict implements Forecast.
func (o Oracle) Predict(t sim.Time) (float64, sim.Time) { return o.BW.Rate(t) }

// Horizon implements Forecast.
func (o Oracle) Horizon() sim.Time { return o.Lookahead }

// Noisy degrades a forecast with seeded multiplicative error: each
// predicted piece's rate is scaled by an independent lognormal multiplier
// with mean 1 and coefficient of variation RelErr. The multiplier is keyed
// on the piece identity (its horizon bits mixed with the seed), not on a
// sequential RNG stream, so predictions are deterministic and
// query-order-independent — the same piece always lies the same way, which
// both keeps runs cacheable and models a forecaster whose error is frozen
// per channel state rather than resampled per glance.
type Noisy struct {
	base   Forecast
	relErr float64
	seed   int64
	rng    *sim.RNG
}

// NewNoisy wraps base with relative error relErr (CV of the lognormal
// rate multiplier; 0 reproduces base exactly), seeded by seed.
func NewNoisy(base Forecast, relErr float64, seed int64) (*Noisy, error) {
	if base == nil {
		return nil, fmt.Errorf("netsim: noisy forecast needs a base forecast")
	}
	if math.IsNaN(relErr) || math.IsInf(relErr, 0) || relErr < 0 {
		return nil, fmt.Errorf("netsim: forecast error %v not a finite non-negative CV", relErr)
	}
	return &Noisy{base: base, relErr: relErr, seed: seed, rng: sim.NewRNG(seed)}, nil
}

// Predict implements Forecast.
func (n *Noisy) Predict(t sim.Time) (float64, sim.Time) {
	bps, until := n.base.Predict(t)
	if n.relErr == 0 || bps <= 0 || math.IsNaN(bps) || math.IsInf(bps, 0) {
		return bps, until
	}
	// Mixing the piece key gives adjacent piece horizons uncorrelated
	// multipliers.
	key := sim.Mix64(math.Float64bits(float64(until)) ^ uint64(n.seed))
	n.rng.Reseed(int64(key))
	return bps * n.rng.LognormalMeanCV(1, n.relErr), until
}

// Horizon implements Forecast.
func (n *Noisy) Horizon() sim.Time { return n.base.Horizon() }
