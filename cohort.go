package videodvfs

import (
	"videodvfs/internal/cohort"
)

// Cohort-mode aliases: one shared virtual-time engine stepping many
// viewers at once, with online aggregation instead of per-viewer result
// structs. See RunCohort.
type (
	// CohortConfig describes a cohort: a base per-viewer RunConfig plus
	// population, arrival process, shared-cell contention, and rollup
	// cadence.
	CohortConfig = cohort.Config
	// CohortResult is a cohort's aggregate outcome: population
	// accounting, per-viewer distributions, exact component-energy sums.
	CohortResult = cohort.Result
	// CohortRollup is one periodic aggregate snapshot, the NDJSON frame
	// dvfsd's /v1/cohort streams.
	CohortRollup = cohort.Rollup
	// CohortDist summarizes one metric's distribution over the cohort
	// (exact count/mean/extremes, ±1% quantiles).
	CohortDist = cohort.Dist
	// CohortArrival describes when viewers join relative to cohort start.
	CohortArrival = cohort.Arrival
	// CohortCell is a shared radio sector model: concurrent downloads
	// contend for its capacity.
	CohortCell = cohort.Cell
	// ArrivalKind names an arrival process; see the Arrival* constants.
	ArrivalKind = cohort.ArrivalKind
)

// Arrival processes accepted by CohortArrival.Kind.
const (
	// ArrivalAll starts every viewer at t=0 (the default).
	ArrivalAll = cohort.ArrivalAll
	// ArrivalUniform spreads joins evenly over the window.
	ArrivalUniform = cohort.ArrivalUniform
	// ArrivalBurst front-loads joins exponentially inside the window —
	// the live-event rush.
	ArrivalBurst = cohort.ArrivalBurst
	// ArrivalPoisson draws inter-arrival gaps at RatePerSec.
	ArrivalPoisson = cohort.ArrivalPoisson
)

// CohortOption mutates a CohortConfig under construction; see NewCohort.
type CohortOption func(*CohortConfig)

// NewCohort builds a CohortConfig from defaults (the DefaultSession base
// case, 1000 viewers all joining at t=0, 10 s rollups) plus the given
// options, applied in order:
//
//	cfg := videodvfs.NewCohort(
//		videodvfs.WithViewers(100_000),
//		videodvfs.WithArrivalProcess(videodvfs.CohortArrival{
//			Kind: videodvfs.ArrivalBurst, Window: 30 * videodvfs.Second,
//		}),
//		videodvfs.WithCell(videodvfs.CohortCell{CapacityMbps: 150, Sectors: 64}),
//	)
//
// The result is a plain CohortConfig: fields without options can still
// be set directly before passing it to RunCohort.
func NewCohort(opts ...CohortOption) CohortConfig {
	cfg := cohort.DefaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// WithViewers sets the cohort size.
func WithViewers(n int) CohortOption { return func(c *CohortConfig) { c.Viewers = n } }

// WithArrivalProcess sets when viewers join relative to cohort start.
func WithArrivalProcess(a CohortArrival) CohortOption {
	return func(c *CohortConfig) { c.Arrival = a }
}

// WithCell makes the cohort's viewers contend for shared sector
// bandwidth instead of each owning a private link.
func WithCell(cell CohortCell) CohortOption {
	return func(c *CohortConfig) { cc := cell; c.Cell = &cc }
}

// WithBase sets the per-viewer session template (compose it with
// NewSession and the per-run With* options).
func WithBase(base RunConfig) CohortOption { return func(c *CohortConfig) { c.Base = base } }

// WithCohortSeed sets the seed the per-viewer seed split derives from
// (0 = the base config's seed).
func WithCohortSeed(seed int64) CohortOption { return func(c *CohortConfig) { c.Seed = seed } }

// WithRollupPeriod sets the virtual-time cadence of aggregate snapshots
// (and of the lockstep barriers the shards synchronize on).
func WithRollupPeriod(d Time) CohortOption { return func(c *CohortConfig) { c.Rollup = d } }

// WithShards overrides the engine-shard count. The shard count is part
// of a cohort's result identity (it fixes float aggregation order), so
// pin it when comparing results across machines; 0 derives it from the
// viewer count.
func WithShards(n int) CohortOption { return func(c *CohortConfig) { c.Shards = n } }

// WithOnRollup streams each periodic aggregate snapshot to fn, called
// from a single goroutine in virtual-time order. A cohort with an
// OnRollup callback is never cache-served.
func WithOnRollup(fn func(CohortRollup)) CohortOption {
	return func(c *CohortConfig) { c.OnRollup = fn }
}

// WithOnViewer observes every finished viewer's full RunResult. The
// pointed-to result is a per-shard scratch REUSED for the next viewer —
// copy anything kept — and fn is called concurrently from shard workers.
// A cohort with an OnViewer callback is never cache-served.
func WithOnViewer(fn func(viewer int, res *RunResult, err error)) CohortOption {
	return func(c *CohortConfig) { c.OnViewer = fn }
}

// RunCohort steps an entire viewer population — up to the
// million-viewer live-event scale — inside shared virtual-time engines
// on one node: per-viewer sessions schedule into shared event slabs,
// stream and device tables are shared immutable state, memory stays
// O(active viewers) with no per-viewer result allocation, and aggregation is
// online (streaming quantile sketches). Shards are stepped across
// GOMAXPROCS workers in lockstep rollup barriers with deterministic
// seed-splitting, so the CohortResult and the OnRollup stream are
// byte-stable at any worker count.
//
// Per-viewer failures are counted in the result, not fatal; an invalid
// config returns an error matching ErrInvalidConfig.
func RunCohort(cfg CohortConfig) (CohortResult, error) { return cohort.Run(cfg) }

// CohortKey returns the hex SHA-256 content address of a cohort's
// canonical serialization — the identity a result cache stores cohorts
// under, consistent with ConfigKey. Two cohort configs share a key iff
// RunCohort would produce the same result for both. The second return
// is false for uncacheable cohorts: OnViewer/OnRollup callbacks, or an
// uncacheable base (frame trace, sampling, tracer, strict).
func CohortKey(cfg CohortConfig) (string, bool) { return cohort.Key(cfg) }

// DefaultCohort returns the default cohort: the DefaultSession base
// case, 1000 viewers all joining at t=0, 10 s rollups.
func DefaultCohort() CohortConfig { return cohort.DefaultConfig() }

// CohortArrivalKinds lists the accepted arrival processes.
func CohortArrivalKinds() []ArrivalKind { return cohort.ArrivalKinds() }
