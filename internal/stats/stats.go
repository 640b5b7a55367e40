// Package stats provides the small statistics toolkit the simulator and the
// experiment harness share: online moments, percentiles, histograms,
// exponentially weighted averages, and time-weighted averages of
// piecewise-constant signals.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Online accumulates count/mean/variance in one pass (Welford's method).
// The zero value is an empty accumulator ready to use.
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	delta := x - o.mean
	o.mean += delta / float64(o.n)
	o.m2 += delta * (x - o.mean)
}

// N returns the number of samples added.
func (o *Online) N() int { return o.n }

// Mean returns the sample mean (0 when empty).
func (o *Online) Mean() float64 { return o.mean }

// Min returns the smallest sample (0 when empty).
func (o *Online) Min() float64 { return o.min }

// Max returns the largest sample (0 when empty).
func (o *Online) Max() float64 { return o.max }

// Var returns the unbiased sample variance (0 with fewer than 2 samples).
func (o *Online) Var() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// Std returns the unbiased sample standard deviation.
func (o *Online) Std() float64 { return math.Sqrt(o.Var()) }

// CI95 returns the half-width of a 95% confidence interval for the mean
// using the normal approximation (fine for the n ≥ 30 used in experiments).
func (o *Online) CI95() float64 {
	if o.n < 2 {
		return 0
	}
	return 1.96 * o.Std() / math.Sqrt(float64(o.n))
}

// sortedFinite copies xs without NaNs and sorts the copy. NaN samples must
// not participate in rank selection: sort.Float64s leaves NaNs in
// unspecified positions, so a single NaN would otherwise poison every
// percentile of the slice, not just one rank.
func sortedFinite(xs []float64) []float64 {
	sorted := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			sorted = append(sorted, x)
		}
	}
	sort.Float64s(sorted)
	return sorted
}

// Percentile returns the p-th percentile (p in [0, 100]) of xs using linear
// interpolation between closest ranks. It copies xs and returns 0 when
// empty. NaN samples are ignored; if every sample is NaN the result is NaN
// (explicit propagation, not silent rank corruption).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := sortedFinite(xs)
	if len(sorted) == 0 {
		return math.NaN()
	}
	return percentileSorted(sorted, p)
}

// Percentiles returns several percentiles of xs with a single sort. NaN
// handling matches Percentile.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		return out
	}
	sorted := sortedFinite(xs)
	for i, p := range ps {
		if len(sorted) == 0 {
			out[i] = math.NaN()
			continue
		}
		out[i] = percentileSorted(sorted, p)
	}
	return out
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// EWMA is an exponentially weighted moving average with smoothing factor
// alpha in (0, 1]: larger alpha weights recent samples more.
type EWMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with the given smoothing factor, clamped into
// (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 {
		alpha = 0.01
	}
	if alpha > 1 {
		alpha = 1
	}
	return &EWMA{alpha: alpha}
}

// Reinit rewinds the average to its just-constructed state with a new
// smoothing factor, clamped exactly as NewEWMA clamps. It exists so
// arena-reuse paths can recycle an EWMA without reallocating it.
func (e *EWMA) Reinit(alpha float64) {
	if alpha <= 0 {
		alpha = 0.01
	}
	if alpha > 1 {
		alpha = 1
	}
	*e = EWMA{alpha: alpha}
}

// Add folds a sample into the average. The first sample initializes it.
func (e *EWMA) Add(x float64) {
	if !e.init {
		e.value = x
		e.init = true
		return
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
}

// Value returns the current average (0 before any sample).
func (e *EWMA) Value() float64 { return e.value }

// TimeWeighted averages a piecewise-constant signal over virtual time, e.g.
// CPU power or buffer level. Set the value at each change-point; the mean
// weights each value by how long it was held.
type TimeWeighted struct {
	lastT    float64
	lastV    float64
	started  bool
	weighted float64 // ∫ value dt
	elapsed  float64
}

// Reset rewinds the accumulator to the zero value, forgetting the signal
// entirely; the next Set re-initializes it.
func (w *TimeWeighted) Reset() { *w = TimeWeighted{} }

// Set records that the signal takes value v from time t onward. Times must
// be nondecreasing.
func (w *TimeWeighted) Set(t, v float64) {
	if !w.started {
		w.started = true
		w.lastT, w.lastV = t, v
		return
	}
	if t < w.lastT {
		t = w.lastT
	}
	dt := t - w.lastT
	w.weighted += w.lastV * dt
	w.elapsed += dt
	w.lastT, w.lastV = t, v
}

// Finish closes the signal at time t and returns the time-weighted mean.
// Further Sets continue from t.
func (w *TimeWeighted) Finish(t float64) float64 {
	w.Set(t, w.lastV)
	return w.Mean()
}

// Mean returns the time-weighted mean over the observed span (0 if no time
// has elapsed).
func (w *TimeWeighted) Mean() float64 {
	if w.elapsed == 0 {
		return 0
	}
	return w.weighted / w.elapsed
}

// Integral returns ∫ value dt over the observed span.
func (w *TimeWeighted) Integral() float64 { return w.weighted }

// Histogram counts samples in equal-width bins over [lo, hi); samples
// outside the range land in the edge bins but are also tallied as
// under/over so range misconfiguration is visible. NaN samples are counted
// separately and excluded from the bins entirely.
type Histogram struct {
	lo, hi float64
	bins   []int
	n      int
	under  int
	over   int
	nans   int
}

// NewHistogram returns a histogram with nbins equal-width bins spanning
// [lo, hi). nbins must be positive and hi > lo.
func NewHistogram(lo, hi float64, nbins int) (*Histogram, error) {
	if nbins <= 0 {
		return nil, fmt.Errorf("histogram: nbins %d must be positive", nbins)
	}
	if hi <= lo {
		return nil, fmt.Errorf("histogram: hi %v must exceed lo %v", hi, lo)
	}
	return &Histogram{lo: lo, hi: hi, bins: make([]int, nbins)}, nil
}

// Add folds x into the histogram.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) {
		h.nans++
		return
	}
	// Pick the bin by value comparison first and only convert in-range
	// samples: for ±Inf (and any float beyond int range) the float→int
	// conversion result is implementation-specific per the Go spec, so an
	// Inf sample must never reach it.
	var i int
	switch {
	case x < h.lo:
		h.under++
		i = 0
	case x >= h.hi:
		h.over++
		i = len(h.bins) - 1
	default:
		i = int((x - h.lo) / (h.hi - h.lo) * float64(len(h.bins)))
		if i >= len(h.bins) {
			// Guard float rounding at the top edge (x just below hi can
			// still scale to nbins).
			i = len(h.bins) - 1
		}
	}
	h.bins[i]++
	h.n++
}

// N returns the number of samples binned (NaNs excluded).
func (h *Histogram) N() int { return h.n }

// Under returns how many samples fell below lo (clamped into bin 0).
func (h *Histogram) Under() int { return h.under }

// Over returns how many samples fell at or above hi (clamped into the last
// bin).
func (h *Histogram) Over() int { return h.over }

// NaNs returns how many NaN samples were rejected.
func (h *Histogram) NaNs() int { return h.nans }

// Counts returns a copy of the per-bin counts.
func (h *Histogram) Counts() []int {
	out := make([]int, len(h.bins))
	copy(out, h.bins)
	return out
}
