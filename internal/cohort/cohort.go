// Package cohort steps N streaming sessions — the target is a million
// viewers of one live event — inside SHARED virtual-time engines instead
// of one engine per goroutine. Each shard owns one sim.Engine whose
// single event slab multiplexes thousands of full-fidelity viewers
// (experiments.Viewer: meter, core, governor, radio, downloader, player,
// background load each); stream and bandwidth tables are shared immutably
// across all of them via the experiments input memo, and viewers in
// one cell sector contend for real sector bandwidth. Results are
// aggregated ONLINE — counters and mergeable quantile sketches
// (stats.Sketch), never per-viewer result structs — so memory is
// O(active viewers) in simulation state and O(1) in results: a finished
// viewer is unreachable once its radio tail has drained.
//
// Determinism: every stochastic choice (per-viewer background seed, join
// times) is a pure function of (Config, viewer index) via
// sim.ChildSeedN, the shard count is a pure function of the Config —
// never of GOMAXPROCS — and shard merges happen at lockstep rollup
// barriers in shard-index order. Rollup output is therefore
// byte-identical no matter how many workers step the shards.
package cohort

import (
	"fmt"
	"math"

	"videodvfs/internal/experiments"
	"videodvfs/internal/sim"
)

// ArrivalKind selects how viewers join the cohort over virtual time.
type ArrivalKind string

// Built-in arrival processes.
const (
	// ArrivalAll joins every viewer at t=0 — the flash-crowd moment a
	// live event starts. The default.
	ArrivalAll ArrivalKind = "all"
	// ArrivalUniform spreads joins evenly over the arrival window.
	ArrivalUniform ArrivalKind = "uniform"
	// ArrivalBurst front-loads joins exponentially over the window
	// (mean offset Window/4, clamped to the window): most of the
	// audience piles in right after kickoff, stragglers trickle.
	ArrivalBurst ArrivalKind = "burst"
	// ArrivalPoisson joins viewers as a Poisson process at RatePerSec,
	// ignoring the window.
	ArrivalPoisson ArrivalKind = "poisson"
)

// ArrivalKinds returns the arrival processes in report order.
func ArrivalKinds() []ArrivalKind {
	return []ArrivalKind{ArrivalAll, ArrivalUniform, ArrivalBurst, ArrivalPoisson}
}

// Arrival describes the cohort's join process.
type Arrival struct {
	// Kind selects the process ("" = ArrivalAll).
	Kind ArrivalKind
	// Window is the span joins are spread over (uniform, burst).
	Window sim.Time
	// RatePerSec is the Poisson arrival rate (poisson only).
	RatePerSec float64
}

// Cell models shared last-mile capacity: concurrent downloads in one
// sector split the sector's bandwidth evenly (processor-sharing, the
// standard cellular abstraction), stacked under the per-viewer base
// bandwidth profile. Viewers are assigned to sectors round-robin by
// index.
type Cell struct {
	// CapacityMbps is one sector's total downlink capacity.
	CapacityMbps float64
	// PerViewerMbps caps any single flow (0 = no per-flow cap).
	PerViewerMbps float64
	// Sectors is the number of independent sectors the audience is
	// spread over (0 or 1 = one shared sector). Sectors also bound the
	// shard count: a sector's viewers must share one engine, so a
	// single-sector cell serializes the whole cohort.
	Sectors int
}

// Config describes one cohort run.
type Config struct {
	// Base is the per-viewer run configuration. Every viewer streams
	// the same content over the same bandwidth profile (the live-event
	// premise — and what keeps the stream tables shared); only the
	// background-load seed varies per viewer, via BGSeed splitting.
	// OnSample and Tracer must be nil; Strict arms the invariant
	// checker in every viewer.
	Base experiments.RunConfig
	// Viewers is the cohort size.
	Viewers int
	// Arrival is the join process (zero value = everyone at t=0).
	Arrival Arrival
	// Cell, if set, adds sector-level bandwidth contention.
	Cell *Cell
	// Shards overrides the number of shared engines the cohort is
	// sliced into (0 = derived from Viewers and Cell.Sectors). The
	// shard count is part of the result's identity — float aggregation
	// order follows it — so it is a config knob, never a function of
	// the machine.
	Shards int
	// Rollup is the virtual-time period between aggregate snapshots
	// (0 = 10 s). Shards step in lockstep at rollup barriers.
	Rollup sim.Time
	// Seed drives the cohort-level stochastic inputs: per-viewer
	// background-load seeds and stochastic arrivals (0 = Base.Seed).
	Seed int64
	// Cancel, if non-nil, aborts the cohort when closed: Run checks it at
	// every rollup barrier and fails with a wrapped
	// experiments.ErrCanceled instead of stepping on to completion.
	// dvfsd's streaming cohort endpoint wires the request context's Done
	// channel here so an abandoned client frees its pool worker. Setting
	// it makes the cohort uncacheable.
	Cancel <-chan struct{}
	// OnViewer, if set, receives each viewer's outcome as it finishes.
	// res points at a per-shard scratch result that is REUSED for the
	// next viewer — copy what you keep. Shards run on concurrent
	// workers, so OnViewer must be safe for concurrent use. Setting it
	// makes the cohort uncacheable, and it keeps every energy-aware
	// viewer's per-frame prediction-error log (res.Pred.RelErr), whose
	// memory grows with content length; without OnViewer no viewer keeps
	// one.
	OnViewer func(viewer int, res *experiments.RunResult, err error)
	// OnRollup, if set, receives the merged aggregate snapshot at every
	// rollup barrier (single goroutine, in time order). Setting it
	// makes the cohort uncacheable.
	OnRollup func(Rollup)
}

// DefaultConfig returns a small live-event cohort: the evaluation's base
// per-viewer case, 1000 viewers all joining at t=0, 10 s rollups.
func DefaultConfig() Config {
	return Config{
		Base:    experiments.DefaultRunConfig(),
		Viewers: 1000,
		Rollup:  10 * sim.Second,
	}
}

// maxShards bounds the automatic shard count: beyond ~64 engines the
// per-shard stream of a realistic cohort is too short to amortize barrier
// synchronization.
const maxShards = 64

// autoShardViewers is the automatic sizing target: one shard per this
// many viewers, before clamping.
const autoShardViewers = 4096

// Validate checks the cohort-level knobs plus the base config, wrapping
// every violation in experiments.ErrInvalidConfig so callers distinguish
// bad cohorts exactly like bad runs.
func (c Config) Validate() error {
	if err := c.Base.Validate(); err != nil {
		return err
	}
	if c.Base.OnSample != nil || c.Base.Tracer != nil {
		return fmt.Errorf("cohort: %w: per-viewer OnSample/Tracer not supported (aggregate via rollups)",
			experiments.ErrInvalidConfig)
	}
	if c.Base.Cancel != nil {
		return fmt.Errorf("cohort: %w: per-viewer Cancel not supported (set Config.Cancel for the whole cohort)",
			experiments.ErrInvalidConfig)
	}
	if c.Viewers < 1 {
		return fmt.Errorf("cohort: %w: %d viewers", experiments.ErrInvalidConfig, c.Viewers)
	}
	switch c.Arrival.Kind {
	case "", ArrivalAll, ArrivalUniform, ArrivalBurst, ArrivalPoisson:
	default:
		return fmt.Errorf("cohort: %w: unknown arrival kind %q (known: %v)",
			experiments.ErrInvalidConfig, c.Arrival.Kind, ArrivalKinds())
	}
	if w := float64(c.Arrival.Window); math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
		return fmt.Errorf("cohort: %w: arrival window %v not a finite non-negative span",
			experiments.ErrInvalidConfig, c.Arrival.Window)
	}
	switch c.Arrival.Kind {
	case ArrivalUniform, ArrivalBurst:
		if c.Arrival.Window <= 0 {
			return fmt.Errorf("cohort: %w: %s arrivals need a positive window",
				experiments.ErrInvalidConfig, c.Arrival.Kind)
		}
	case ArrivalPoisson:
		if r := c.Arrival.RatePerSec; math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
			return fmt.Errorf("cohort: %w: poisson arrivals need a positive finite rate, got %v",
				experiments.ErrInvalidConfig, c.Arrival.RatePerSec)
		}
	}
	if c.Cell != nil {
		if v := c.Cell.CapacityMbps; math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("cohort: %w: cell capacity %v Mbps not positive and finite",
				experiments.ErrInvalidConfig, c.Cell.CapacityMbps)
		}
		if v := c.Cell.PerViewerMbps; math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("cohort: %w: per-viewer cap %v Mbps not finite and non-negative",
				experiments.ErrInvalidConfig, c.Cell.PerViewerMbps)
		}
		if c.Cell.Sectors < 0 {
			return fmt.Errorf("cohort: %w: %d sectors", experiments.ErrInvalidConfig, c.Cell.Sectors)
		}
	}
	if r := float64(c.Rollup); math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
		return fmt.Errorf("cohort: %w: rollup period %v not a finite non-negative span",
			experiments.ErrInvalidConfig, c.Rollup)
	}
	if c.Shards < 0 {
		return fmt.Errorf("cohort: %w: %d shards", experiments.ErrInvalidConfig, c.Shards)
	}
	return nil
}

// seed resolves the cohort seed (Seed, else Base.Seed).
func (c Config) seed() int64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return c.Base.Seed
}

// rollup resolves the rollup period.
func (c Config) rollup() sim.Time {
	if c.Rollup > 0 {
		return c.Rollup
	}
	return 10 * sim.Second
}

// sectors resolves the cell's sector count (1 when no cell or unset).
func (c Config) sectors() int {
	if c.Cell == nil || c.Cell.Sectors < 1 {
		return 1
	}
	return c.Cell.Sectors
}

// ShardCount returns the resolved number of shared engines the cohort
// slices into — a pure function of the config, so a controller
// partitioning shards across workers derives exactly the count every
// worker will. (The distributed tier fans a cohort out shard by shard;
// see RunPart.)
func ShardCount(c Config) int { return c.shardCount() }

// shardCount resolves the number of shared engines — a pure function of
// the config, so results never depend on the machine. With a cell, a
// sector's viewers must share one engine (they mutate one congestion
// state), so the sector count bounds the shard count.
func (c Config) shardCount() int {
	s := c.Shards
	if s < 1 {
		s = (c.Viewers + autoShardViewers - 1) / autoShardViewers
		if s > maxShards {
			s = maxShards
		}
	}
	if c.Cell != nil && s > c.sectors() {
		s = c.sectors()
	}
	if s > c.Viewers {
		s = c.Viewers
	}
	if s < 1 {
		s = 1
	}
	return s
}

// computeJoins materializes every viewer's absolute join time, centrally
// and in index order from one derived RNG stream — so the assignment is
// identical no matter how the cohort is sharded or stepped.
func computeJoins(c Config) []sim.Time {
	joins := make([]sim.Time, c.Viewers)
	switch c.Arrival.Kind {
	case "", ArrivalAll:
		// all zeros
	case ArrivalUniform:
		w := c.Arrival.Window.Seconds()
		for i := range joins {
			joins[i] = sim.Time(w * float64(i) / float64(len(joins)))
		}
	case ArrivalBurst:
		rng := sim.Stream(c.seed(), "cohort/arrival")
		w := c.Arrival.Window
		for i := range joins {
			t := sim.Time(rng.Exp(w.Seconds() / 4))
			if t > w {
				t = w
			}
			joins[i] = t
		}
	case ArrivalPoisson:
		rng := sim.Stream(c.seed(), "cohort/arrival")
		var t float64
		for i := range joins {
			t += rng.Exp(1 / c.Arrival.RatePerSec)
			joins[i] = sim.Time(t)
		}
	}
	return joins
}

// sectorOf maps a viewer index to its cell sector.
func (c Config) sectorOf(viewer int) int { return viewer % c.sectors() }

// shardOf maps a viewer index to its shard: by sector when a cell
// couples viewers, round-robin otherwise. Sectors of one shard stay
// whole — contention state never crosses an engine boundary.
func (c Config) shardOf(viewer, shards int) int {
	if c.Cell != nil {
		return c.sectorOf(viewer) % shards
	}
	return viewer % shards
}
