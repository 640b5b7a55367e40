package cohort

import (
	"fmt"
	"math"
	"sort"

	"videodvfs/internal/experiments"
	"videodvfs/internal/sim"
	"videodvfs/internal/stats"
)

// This file is the cohort's distributed seam. A cohort's shard layout —
// count, viewer assignment, join times, per-viewer seeds — is a pure
// function of its Config, so any subset of shards can be simulated on any
// machine and the per-shard aggregation states merged back in shard-index
// order reproduce the single-node Result bit for bit. RunPart executes a
// subset; MergeParts reassembles the whole. dvfsd serves RunPart as
// POST /v1/cohort/part and dvfsctl fans a cohort's shards across workers,
// merging the returned Partials.

// ShardState is one shard's complete serialized aggregation state: the
// wire twin of the internal agg struct. Counters are integers, energy
// sums are the exact per-shard float totals (accumulated in event order),
// and the distribution sketches carry their full bin state — everything a
// merge needs to be exact.
type ShardState struct {
	// Shard is the global shard index (0 ≤ Shard < ShardCount).
	Shard int `json:"shard"`
	// Started/Finished/Completed/HorizonCut/Errors mirror the shard's
	// population accounting at the end of its run.
	Started    int `json:"started"`
	Finished   int `json:"finished"`
	Completed  int `json:"completed"`
	HorizonCut int `json:"horizon_cut"`
	Errors     int `json:"errors"`
	// FirstError is the shard's first failure text ("" when none).
	FirstError string `json:"first_error,omitempty"`
	// CPUJ/RadioJ/DisplayJ are the shard's exact component-energy sums
	// over completed viewers.
	CPUJ     float64 `json:"cpu_j"`
	RadioJ   float64 `json:"radio_j"`
	DisplayJ float64 `json:"display_j"`
	// MaxEnd is the virtual time the shard's last viewer finished at.
	MaxEnd sim.Time `json:"max_end"`
	// Energy/Rebuffer/Startup are the shard's distribution sketches.
	Energy   stats.SketchState `json:"energy"`
	Rebuffer stats.SketchState `json:"rebuffer"`
	Startup  stats.SketchState `json:"startup"`
}

// Partial is the outcome of running a subset of a cohort's shards:
// identity fields pinning which cohort layout it belongs to, plus one
// ShardState per executed shard in shard-index order.
type Partial struct {
	// Viewers and Shards pin the cohort layout the states were computed
	// under; MergeParts refuses to mix layouts.
	Viewers int `json:"viewers"`
	Shards  int `json:"shards"`
	// States holds the executed shards' aggregation states, in
	// shard-index order.
	States []ShardState `json:"states"`
}

// RunPart executes only the named shards of cfg's cohort and returns
// their serialized aggregation states. The shard layout is derived from
// cfg exactly as Run derives it, so shard i simulated here is
// event-for-event identical to shard i inside a whole-cohort Run; merging
// every shard's Partial (MergeParts) reproduces Run's Result exactly.
// Rollup callbacks are not supported on partial runs (a part cannot see
// the whole cohort's barrier state); OnViewer fires as usual.
func RunPart(cfg Config, shardSet []int) (Partial, error) {
	if err := cfg.Validate(); err != nil {
		return Partial{}, err
	}
	if cfg.OnRollup != nil {
		return Partial{}, fmt.Errorf("cohort: %w: OnRollup not supported on partial runs",
			experiments.ErrInvalidConfig)
	}
	nShards := cfg.shardCount()
	if len(shardSet) == 0 {
		return Partial{}, fmt.Errorf("cohort: %w: empty shard set", experiments.ErrInvalidConfig)
	}
	set := append([]int(nil), shardSet...)
	sort.Ints(set)
	for i, idx := range set {
		if idx < 0 || idx >= nShards {
			return Partial{}, fmt.Errorf("cohort: %w: shard %d outside [0, %d)",
				experiments.ErrInvalidConfig, idx, nShards)
		}
		if i > 0 && set[i-1] == idx {
			return Partial{}, fmt.Errorf("cohort: %w: shard %d named twice", experiments.ErrInvalidConfig, idx)
		}
	}

	shards, err := runShards(&cfg, set)
	if err != nil {
		return Partial{}, err
	}
	p := Partial{Viewers: cfg.Viewers, Shards: nShards, States: make([]ShardState, len(shards))}
	for i, sh := range shards {
		p.States[i] = sh.agg.state(sh.idx)
	}
	return p, nil
}

// MergeParts reassembles a whole cohort's Result from partial runs. The
// parts must agree on the cohort layout (Viewers, Shards), together cover
// every shard exactly once, and start no more viewers than the cohort has;
// each shard state must be one a run could produce (see aggOf). Every
// state is rebuilt into the aggregate a single-node Run folds its live
// shards into and folded by the same merge, in global shard-index order,
// so the merged Result is bit-identical to the single-node one.
func MergeParts(parts []Partial) (Result, error) {
	if len(parts) == 0 {
		return Result{}, fmt.Errorf("cohort: no parts to merge")
	}
	viewers, nShards := parts[0].Viewers, parts[0].Shards
	count := 0
	for pi := range parts {
		p := &parts[pi]
		if p.Viewers != viewers || p.Shards != nShards {
			return Result{}, fmt.Errorf("cohort: merging mismatched layouts: %d viewers/%d shards vs %d/%d",
				p.Viewers, p.Shards, viewers, nShards)
		}
		count += len(p.States)
	}
	// A layout has one shard to one per viewer, and the parts name each
	// shard once: checked before sizing anything by a count off the wire.
	if nShards < 1 || nShards > viewers || count != nShards {
		return Result{}, fmt.Errorf("cohort: %d shard states for a layout of %d shards over %d viewers",
			count, nShards, viewers)
	}
	states := make([]*ShardState, nShards)
	for pi := range parts {
		for si := range parts[pi].States {
			st := &parts[pi].States[si]
			if st.Shard < 0 || st.Shard >= nShards {
				return Result{}, fmt.Errorf("cohort: shard %d outside [0, %d)", st.Shard, nShards)
			}
			if states[st.Shard] != nil {
				return Result{}, fmt.Errorf("cohort: shard %d present in two parts", st.Shard)
			}
			states[st.Shard] = st
		}
	}

	total := newAgg()
	for _, st := range states {
		a, err := aggOf(st)
		if err != nil {
			return Result{}, fmt.Errorf("cohort: shard %d: %w", st.Shard, err)
		}
		if a.started > viewers-total.started {
			return Result{}, fmt.Errorf("cohort: parts start more than %d viewers", viewers)
		}
		total.merge(&a)
	}
	return total.result(viewers, nShards), nil
}

// state serializes a shard's aggregation state for the wire.
func (a *agg) state(shard int) ShardState {
	return ShardState{
		Shard:      shard,
		Started:    a.started,
		Finished:   a.finished,
		Completed:  a.completed,
		HorizonCut: a.horizonCut,
		Errors:     a.errors,
		FirstError: a.firstErr,
		CPUJ:       a.cpuJ,
		RadioJ:     a.radioJ,
		DisplayJ:   a.displayJ,
		MaxEnd:     a.maxEnd,
		Energy:     a.energy.State(),
		Rebuffer:   a.rebuffer.State(),
		Startup:    a.startup.State(),
	}
}

// sketchGamma is the bin ratio of every sketch built at sketchAlpha.
var sketchGamma = stats.NewSketch(sketchAlpha).State().Gamma

// aggOf rebuilds a wire ShardState into the aggregate merge folds,
// refusing a state no run could produce. A shard's accounting closes —
// every finished viewer completed or failed, horizon cuts among the
// failures, none finished unstarted — and each sketch holds at most one
// observation per completed viewer (Sketch.Add drops non-finite values,
// so n can fall short but never exceed). Energy sums and the last end
// are finite and non-negative.
func aggOf(st *ShardState) (agg, error) {
	if min(st.Started, st.Finished, st.Completed, st.HorizonCut, st.Errors) < 0 || st.Finished > st.Started ||
		st.Completed > st.Finished || st.Errors != st.Finished-st.Completed || st.HorizonCut > st.Errors {
		return agg{}, fmt.Errorf("accounting does not close: %d started, %d finished, %d completed, %d errors, %d cut",
			st.Started, st.Finished, st.Completed, st.Errors, st.HorizonCut)
	}
	for _, v := range [...]float64{st.CPUJ, st.RadioJ, st.DisplayJ, float64(st.MaxEnd)} {
		if !(v >= 0 && v <= math.MaxFloat64) {
			return agg{}, fmt.Errorf("energy sum or end %v not finite and non-negative", v)
		}
	}
	a := agg{started: st.Started, finished: st.Finished, completed: st.Completed, horizonCut: st.HorizonCut,
		errors: st.Errors, firstErr: st.FirstError, cpuJ: st.CPUJ, radioJ: st.RadioJ, displayJ: st.DisplayJ,
		maxEnd: st.MaxEnd}
	names := [...]string{"energy", "rebuffer", "startup"}
	dst := [...]**stats.Sketch{&a.energy, &a.rebuffer, &a.startup}
	for i, sk := range [...]stats.SketchState{st.Energy, st.Rebuffer, st.Startup} {
		s, err := stats.SketchFromState(sk)
		if err == nil && (sk.Gamma != sketchGamma || sk.N > uint64(st.Completed)) {
			err = fmt.Errorf("gamma %v, n %d over %d completed", sk.Gamma, sk.N, st.Completed)
		}
		if err != nil {
			return agg{}, fmt.Errorf("%s sketch: %w", names[i], err)
		}
		*dst[i] = s
	}
	return a, nil
}
