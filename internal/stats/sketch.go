package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrSketchAccuracyMismatch reports a Merge between sketches built with
// different relative accuracies (different gamma): their bins are not
// compatible, and folding one into the other would silently corrupt every
// later quantile. Distinguish it with errors.Is.
var ErrSketchAccuracyMismatch = errors.New("stats: sketch accuracy (alpha) mismatch")

// Sketch is a mergeable streaming quantile sketch over non-negative
// observations, in the DDSketch family: values map to logarithmic bins
// sized so every quantile estimate carries a bounded RELATIVE error
// alpha, regardless of how many observations were folded in. A cohort of
// a million viewers aggregates energy/QoE distributions through Sketches
// instead of per-viewer samples: memory is O(bins), not O(viewers), and
// per-shard sketches merge into the cohort total without re-reading any
// observation.
//
// Determinism: bins hold integer counts, so Merge is commutative and
// associative — merging per-shard sketches in any fixed order yields
// byte-identical quantiles regardless of how many workers filled them.
// (Sum is a float64 and is NOT order-free; cohort aggregation merges
// shards in index order for that reason.)
//
// The zero value is not ready to use; construct with NewSketch. A Sketch
// is not safe for concurrent use.
type Sketch struct {
	gamma   float64 // bin ratio: (1+alpha)/(1-alpha)
	invLogG float64 // 1/ln(gamma), hoisted out of Add
	bins    map[int]uint64
	zero    uint64 // observations in [0, minIndexable]
	n       uint64
	sum     float64
	min     float64
	max     float64
}

// minIndexable guards the log: observations at or below it land in the
// zero bucket. Every tracked metric (joules, seconds, ratios) is far
// above it when meaningfully non-zero.
const minIndexable = 1e-12

// NewSketch returns a sketch with relative accuracy alpha (quantile
// estimates are within a factor [1-alpha, 1+alpha] of an exact value in
// the stream). alpha outside (0, 1) selects the default 0.01 — 1%
// relative error, ~1400 bins over the full float64 range, a few KB in
// practice.
func NewSketch(alpha float64) *Sketch {
	if !(alpha > 0 && alpha < 1) {
		alpha = 0.01
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		gamma:   gamma,
		invLogG: 1 / math.Log(gamma),
		bins:    make(map[int]uint64),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// Add folds one observation in. Negative values clamp to the zero bucket
// (the tracked metrics are non-negative by construction; a tiny negative
// from float cancellation must not poison the log). Non-finite values
// are dropped — the simulator's invariant layer already rejects them at
// the source, and a NaN here would silently corrupt every later rank.
func (s *Sketch) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	s.n++
	s.sum += x
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	if x <= minIndexable {
		s.zero++
		return
	}
	s.bins[int(math.Ceil(math.Log(x)*s.invLogG))]++
}

// N returns the number of observations folded in.
func (s *Sketch) N() int { return int(s.n) }

// Mean returns the exact mean (sum/n), or 0 when empty.
func (s *Sketch) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min returns the exact minimum observation, or 0 when empty.
func (s *Sketch) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the exact maximum observation, or 0 when empty.
func (s *Sketch) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Quantile returns an estimate of the q-quantile (q in [0, 1], clamped)
// with the sketch's relative-error guarantee, or 0 when empty. Estimates
// are clamped to the exact observed [min, max].
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	if q < 0 || math.IsNaN(q) {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// The extremes are tracked exactly; return them rather than a bin
	// midpoint (q=0 would otherwise report the zero bucket as 0 even when
	// the true minimum is negative-clamped or sub-indexable).
	if q == 0 {
		return s.min
	}
	if q == 1 {
		return s.max
	}
	// The rank walk needs bins in value order; map iteration order is
	// random, so sort the keys. Quantile reads are per-rollup (O(100)
	// per cohort), not per-observation — the sort is off the hot path.
	keys := make([]int, 0, len(s.bins))
	for k := range s.bins {
		keys = append(keys, k)
	}
	sort.Ints(keys)

	rank := uint64(math.Ceil(q * float64(s.n)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	est := 0.0
	if s.zero >= rank {
		est = 0
	} else {
		seen = s.zero
		for _, k := range keys {
			seen += s.bins[k]
			if seen >= rank {
				// Midpoint of the bin (gamma^(k-1), gamma^k]: the
				// canonical DDSketch point estimate with relative error
				// ≤ alpha.
				est = 2 * math.Pow(s.gamma, float64(k)) / (s.gamma + 1)
				break
			}
		}
	}
	if est < s.min {
		est = s.min
	}
	if est > s.max {
		est = s.max
	}
	return est
}

// Merge folds other into s. Both sketches must share an accuracy (same
// gamma); merging is exact — the result is bin-for-bin identical to one
// sketch having seen both streams, in any interleaving. other is left
// unchanged. A nil or empty other is a no-op.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil || other.n == 0 {
		return nil
	}
	if other.gamma != s.gamma {
		return fmt.Errorf("%w: gamma %v vs %v", ErrSketchAccuracyMismatch, s.gamma, other.gamma)
	}
	for k, c := range other.bins {
		s.bins[k] += c
	}
	s.zero += other.zero
	s.n += other.n
	s.sum += other.sum
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	return nil
}

// SketchState is a Sketch's complete serializable state, the wire form a
// distributed tier ships per-shard sketches in. Gamma is carried verbatim
// (not alpha) so a reconstructed sketch is bit-identical to the original:
// re-deriving gamma from a rounded alpha could flip its last bit and make
// exact same-accuracy Merges fail. Bin counts are integers and the float
// fields round-trip exactly through JSON (shortest-form encoding), so
// State → SketchFromState → Merge reproduces a local merge bit for bit.
type SketchState struct {
	// Gamma is the bin ratio (1+alpha)/(1-alpha).
	Gamma float64 `json:"gamma"`
	// Bins maps bin index to observation count.
	Bins map[int]uint64 `json:"bins,omitempty"`
	// Zero counts observations in the zero bucket [0, 1e-12] (negative
	// values clamp here too).
	Zero uint64 `json:"zero,omitempty"`
	// N, Sum, Min, Max mirror the exact streaming aggregates. Min and Max
	// are omitted (and meaningless) when N is zero.
	N   uint64  `json:"n"`
	Sum float64 `json:"sum"`
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// State snapshots the sketch for serialization. The bin map is copied;
// mutating the sketch afterwards does not alias the state. An empty
// sketch reports Min/Max as 0 (the internal ±Inf sentinels do not survive
// JSON); SketchFromState restores the sentinels from N == 0.
func (s *Sketch) State() SketchState {
	st := SketchState{Gamma: s.gamma, Zero: s.zero, N: s.n, Sum: s.sum}
	if len(s.bins) > 0 {
		st.Bins = make(map[int]uint64, len(s.bins))
		for k, c := range s.bins {
			st.Bins[k] = c
		}
	}
	if s.n > 0 {
		st.Min, st.Max = s.min, s.max
	}
	return st
}

// SketchFromState reconstructs a sketch from a (possibly untrusted) wire
// state. The state is validated — gamma must define a usable accuracy,
// counts must be internally consistent, and the float aggregates must be
// finite — so a corrupted or adversarial state fails loudly instead of
// poisoning a merge.
func SketchFromState(st SketchState) (*Sketch, error) {
	if !(st.Gamma > 1) || math.IsInf(st.Gamma, 0) {
		return nil, fmt.Errorf("stats: sketch state gamma %v not in (1, +Inf)", st.Gamma)
	}
	var binned uint64
	for k, c := range st.Bins {
		if c == 0 || binned+c < binned {
			return nil, fmt.Errorf("stats: sketch state bin %d count %d is zero or overflows the total", k, c)
		}
		binned += c
	}
	if binned > st.N || st.Zero != st.N-binned {
		return nil, fmt.Errorf("stats: sketch state counts inconsistent: zero %d + binned %d != n %d",
			st.Zero, binned, st.N)
	}
	if math.IsNaN(st.Sum) || math.IsInf(st.Sum, 0) {
		return nil, fmt.Errorf("stats: sketch state sum %v not finite", st.Sum)
	}
	s := &Sketch{
		gamma:   st.Gamma,
		invLogG: 1 / math.Log(st.Gamma),
		bins:    make(map[int]uint64, len(st.Bins)),
		zero:    st.Zero,
		n:       st.N,
		sum:     st.Sum,
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
	for k, c := range st.Bins {
		s.bins[k] = c
	}
	if st.N > 0 {
		if math.IsNaN(st.Min) || math.IsInf(st.Min, 0) || math.IsNaN(st.Max) || math.IsInf(st.Max, 0) {
			return nil, fmt.Errorf("stats: sketch state min/max %v/%v not finite", st.Min, st.Max)
		}
		if st.Min > st.Max {
			return nil, fmt.Errorf("stats: sketch state min %v > max %v", st.Min, st.Max)
		}
		s.min, s.max = st.Min, st.Max
	}
	return s, nil
}
