package cohort

import (
	"videodvfs/internal/experiments"
	"videodvfs/internal/sim"
	"videodvfs/internal/stats"
)

// sketchAlpha is the cohort's quantile accuracy: 1% relative error, a
// few KB of bins per tracked metric regardless of cohort size.
const sketchAlpha = 0.01

// Dist summarizes one metric's distribution over finished viewers, read
// out of a streaming sketch: exact count/mean/extremes, sketch-accurate
// quantiles (±1% relative).
type Dist struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P10  float64 `json:"p10"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
}

// distOf reads a Dist snapshot out of a sketch.
func distOf(s *stats.Sketch) Dist {
	return Dist{
		N:    s.N(),
		Mean: s.Mean(),
		Min:  s.Min(),
		Max:  s.Max(),
		P10:  s.Quantile(0.10),
		P50:  s.Quantile(0.50),
		P90:  s.Quantile(0.90),
		P99:  s.Quantile(0.99),
	}
}

// Rollup is one aggregate snapshot of the cohort at a virtual-time
// barrier: population counters plus distributions over the viewers that
// have COMPLETED so far. Serialized as one NDJSON frame by dvfsd's
// /v1/cohort stream; field order (and therefore the byte stream) is
// fixed by this struct.
type Rollup struct {
	// T is the barrier's virtual time.
	T sim.Time `json:"t"`
	// Joined counts viewers that have started streaming by T; Active
	// are those started and not yet finished.
	Joined int `json:"joined"`
	Active int `json:"active"`
	// Completed / HorizonCut / Errors partition finished viewers:
	// sessions that played out, sessions cut at their virtual-time
	// horizon (starved — counted in Errors too), and sessions that
	// failed for any reason.
	Completed  int `json:"completed"`
	HorizonCut int `json:"horizon_cut"`
	Errors     int `json:"errors"`
	// EnergyJ is whole-device energy per completed viewer.
	EnergyJ Dist `json:"energy_j"`
	// RebufferRatio is stall time over session time per completed
	// viewer.
	RebufferRatio Dist `json:"rebuffer_ratio"`
	// StartupDelayS is seconds from join to first displayed frame per
	// completed viewer.
	StartupDelayS Dist `json:"startup_delay_s"`
}

// Result is the cohort's final outcome: the last rollup's population
// accounting plus exact energy sums and the virtual time the last viewer
// finished at.
type Result struct {
	// Viewers is the cohort size; Completed/HorizonCut/Errors partition
	// it as in Rollup.
	Viewers    int `json:"viewers"`
	Completed  int `json:"completed"`
	HorizonCut int `json:"horizon_cut"`
	Errors     int `json:"errors"`
	// FirstError is the first failure's text (lowest shard, earliest
	// event within it), "" when every viewer completed.
	FirstError string `json:"first_error,omitempty"`
	// EnergyJ, RebufferRatio, StartupDelayS are the final per-viewer
	// distributions over completed viewers.
	EnergyJ       Dist `json:"energy_j"`
	RebufferRatio Dist `json:"rebuffer_ratio"`
	StartupDelayS Dist `json:"startup_delay_s"`
	// CPUJ, RadioJ, DisplayJ are exact per-component energy totals over
	// completed viewers (per-shard sums in event order, merged in shard
	// order — fixed summation order, stable bytes).
	CPUJ     float64 `json:"cpu_j"`
	RadioJ   float64 `json:"radio_j"`
	DisplayJ float64 `json:"display_j"`
	// SimEnd is the virtual time the last viewer finished at.
	SimEnd sim.Time `json:"sim_end"`
	// Shards is the resolved shard count (part of the result identity:
	// it fixes float aggregation order).
	Shards int `json:"shards"`
}

// agg is one shard's online aggregation state, mutated only from inside
// that shard's engine events. The same type is the running total a fold
// builds: merge adds one shard's state into it.
type agg struct {
	started    int
	finished   int
	completed  int
	horizonCut int
	errors     int
	firstErr   string

	energy   *stats.Sketch
	rebuffer *stats.Sketch
	startup  *stats.Sketch

	cpuJ, radioJ, displayJ float64
	maxEnd                 sim.Time
}

func newAgg() agg {
	return agg{
		energy:   stats.NewSketch(sketchAlpha),
		rebuffer: stats.NewSketch(sketchAlpha),
		startup:  stats.NewSketch(sketchAlpha),
	}
}

// fold accumulates one completed viewer's result.
func (a *agg) fold(res *experiments.RunResult) {
	a.completed++
	a.energy.Add(res.TotalJ())
	a.rebuffer.Add(res.QoE.RebufferRatio())
	a.startup.Add(res.QoE.StartupDelay.Seconds())
	a.cpuJ += res.CPUJ
	a.radioJ += res.RadioJ
	a.displayJ += res.DisplayJ
}

// merge folds one shard's aggregation state into the running total a. It
// is the only place shard aggregates combine: Run's Result, every rollup
// frame and MergeParts all fold their shards through it in shard-index
// order, so the float sums — and the bytes — agree wherever the shards
// ran. Every sketch is built at sketchAlpha (aggOf refuses wire states
// at any other accuracy), so the sketch merges cannot fail.
func (a *agg) merge(o *agg) {
	a.started += o.started
	a.finished += o.finished
	a.completed += o.completed
	a.horizonCut += o.horizonCut
	a.errors += o.errors
	if a.firstErr == "" {
		a.firstErr = o.firstErr
	}
	a.cpuJ += o.cpuJ
	a.radioJ += o.radioJ
	a.displayJ += o.displayJ
	if o.maxEnd > a.maxEnd {
		a.maxEnd = o.maxEnd
	}
	_ = a.energy.Merge(o.energy)
	_ = a.rebuffer.Merge(o.rebuffer)
	_ = a.startup.Merge(o.startup)
}

// totalOf folds live shards into a fresh total.
func totalOf(shards []*shard) agg {
	total := newAgg()
	for _, sh := range shards {
		total.merge(&sh.agg)
	}
	return total
}

// rollup reads a barrier snapshot out of a total.
func (a *agg) rollup(t sim.Time) Rollup {
	return Rollup{
		T:             t,
		Joined:        a.started,
		Active:        a.started - a.finished,
		Completed:     a.completed,
		HorizonCut:    a.horizonCut,
		Errors:        a.errors,
		EnergyJ:       distOf(a.energy),
		RebufferRatio: distOf(a.rebuffer),
		StartupDelayS: distOf(a.startup),
	}
}

// result reads the cohort's final outcome out of a total.
func (a *agg) result(viewers, shards int) Result {
	return Result{
		Viewers:       viewers,
		Completed:     a.completed,
		HorizonCut:    a.horizonCut,
		Errors:        a.errors,
		FirstError:    a.firstErr,
		EnergyJ:       distOf(a.energy),
		RebufferRatio: distOf(a.rebuffer),
		StartupDelayS: distOf(a.startup),
		CPUJ:          a.cpuJ,
		RadioJ:        a.radioJ,
		DisplayJ:      a.displayJ,
		SimEnd:        a.maxEnd,
		Shards:        shards,
	}
}
