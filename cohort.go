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

// DefaultCohort returns the default cohort: the DefaultSession base
// case, 1000 viewers all joining at t=0, 10 s rollups. A cohort is
// configured by assigning fields of the returned CohortConfig.
func DefaultCohort() CohortConfig { return cohort.DefaultConfig() }
