package sim

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random stream for one model component.
//
// Components must not share streams: derive one per component with Stream
// so that adding draws in one component never perturbs another. RNG wraps
// math/rand.Rand (not the global source) so runs are reproducible from the
// root seed alone.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a stream seeded directly with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Stream derives an independent child stream from a root seed and a
// component name. The derivation is a stable FNV-1a hash, so the same
// (seed, name) pair always yields the same stream.
func Stream(seed int64, name string) *RNG {
	return NewRNG(ChildSeed(seed, name))
}

// ChildSeed returns the derived seed Stream uses for (seed, name): FNV-1a
// over the seed's eight little-endian bytes followed by the name. It is
// exposed (and allocation-free) so arena-reuse paths can Reseed a recycled
// stream to the exact state Stream would construct.
func ChildSeed(seed int64, name string) int64 {
	const (
		offset64 uint64 = 14695981039346656037
		prime64  uint64 = 1099511628211
	)
	h := offset64
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(uint64(seed) >> (8 * i)))
		h *= prime64
	}
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return int64(h)
}

// ChildSeedN derives the n-th member of an indexed seed family: FNV-1a
// over the seed's eight little-endian bytes, the name, and n's eight
// little-endian bytes. Cohort runs use it to split one root seed into a
// per-viewer stream ("cohort/bgload", viewer index) deterministically —
// the split depends only on (seed, name, n), never on worker count or
// scheduling, so sharded and serial cohorts draw identical streams.
func ChildSeedN(seed int64, name string, n int) int64 {
	const prime64 uint64 = 1099511628211
	h := uint64(ChildSeed(seed, name))
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(uint64(n) >> (8 * i)))
		h *= prime64
	}
	return int64(h)
}

// Mix64 is the SplitMix64 finalizer: a bijection on 64-bit words under
// which inputs differing in a few bits map to unrelated outputs. It turns
// structured keys into well-mixed seeds or hash values: noisy forecasts
// key each piece's draw with it, and the fleet ring finalizes its FNV-1a
// key hashes with it.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Reseed rewinds the stream to the state NewRNG(seed) would start in,
// reusing the underlying source. Combined with ChildSeed it recycles a
// component stream across simulation runs without reconstructing it.
func (g *RNG) Reseed(seed int64) { g.r.Seed(seed) }

// Float64 returns a uniform draw in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Uniform returns a uniform draw in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Intn returns a uniform draw in [0, n). n must be positive.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Normal returns a Gaussian draw with the given mean and standard
// deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// Lognormal returns a draw whose logarithm is Normal(mu, sigma).
func (g *RNG) Lognormal(mu, sigma float64) float64 {
	return math.Exp(g.Normal(mu, sigma))
}

// LognormalMeanCV returns a lognormal draw parameterized by its own mean
// and coefficient of variation (stddev/mean), which is how decode-demand
// variability is usually reported.
func (g *RNG) LognormalMeanCV(mean, cv float64) float64 {
	if mean <= 0 {
		return 0
	}
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return g.Lognormal(mu, math.Sqrt(sigma2))
}

// Exp returns an exponential draw with the given mean (not rate).
func (g *RNG) Exp(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// Pick returns a random index weighted by the given non-negative weights;
// non-finite weights count as zero (a NaN or Inf weight would poison the
// running total and silently select the last index every time). If all
// usable weight is zero it returns 0.
func (g *RNG) Pick(weights []float64) int {
	usable := func(w float64) bool {
		return w > 0 && !math.IsInf(w, 1) // w > 0 is false for NaN
	}
	var total float64
	for _, w := range weights {
		if usable(w) {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := g.r.Float64() * total
	for i, w := range weights {
		if !usable(w) {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }
