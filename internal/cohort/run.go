package cohort

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"videodvfs/internal/experiments"
	"videodvfs/internal/sim"
)

// Run executes one cohort: validate, materialize join times, build the
// shards, then step every shard in lockstep rollup barriers until all
// viewers have finished. Per-viewer failures (including horizon cuts)
// are counted in the Result, not fatal — a million-viewer run does not
// abort because one starved session timed out; only an invalid Config
// returns an error.
//
// Shards are stepped by up to GOMAXPROCS workers, but every
// result-determining choice — shard count, viewer assignment, seeds,
// join times, merge order — is a pure function of cfg, so the Result
// (and the OnRollup byte stream) is identical at any worker count.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	shards, err := runShards(&cfg, nil)
	if err != nil {
		return Result{}, err
	}
	total := totalOf(shards)
	return total.result(cfg.Viewers, len(shards)), nil
}

// maxBarriers caps a cohort's worst-case rollup barrier count, (latest
// join + horizon) ÷ rollup period, a pure function of the config. Each
// barrier is one stepping round over every shard and one NDJSON frame of
// 350–570 B on the wire, so the cap bounds a /v1/cohort body below ~6 MB
// (DESIGN.md §12).
const maxBarriers = 10000

// runShards builds the named shards of a validated cohort (nil names
// every shard) and steps them in lockstep rollup barriers until all
// their viewers have finished: the one stepping loop Run and RunPart
// share. At each barrier it checks for cancellation and hands OnRollup,
// which only whole cohorts may set, the merged snapshot.
func runShards(cfg *Config, set []int) ([]*shard, error) {
	joins := computeJoins(*cfg)
	var maxJoin sim.Time
	for _, j := range joins {
		if j > maxJoin {
			maxJoin = j
		}
	}
	step := cfg.rollup()
	// Every viewer is finished by maxJoin+horizon, so that span bounds
	// the barriers before any shard is built.
	span := maxJoin + cfg.Base.EffectiveHorizon()
	if n := float64(span / step); !(n <= maxBarriers) {
		return nil, fmt.Errorf("cohort: %w: %.3g rollup barriers (latest join %gs + horizon %gs, one per %gs) exceed the cap of %d; raise the rollup period or narrow the arrivals",
			experiments.ErrInvalidConfig, n, maxJoin.Seconds(), cfg.Base.EffectiveHorizon().Seconds(), step.Seconds(), maxBarriers)
	}
	nShards := cfg.shardCount()
	n := len(set)
	if set == nil {
		n = nShards
	}
	shards := make([]*shard, n)
	for i := range shards {
		idx := i
		if set != nil {
			idx = set[i]
		}
		shards[i] = newShard(cfg, idx, nShards, joins)
	}

	workers := runtime.GOMAXPROCS(0)
	// The horizon cuts guarantee every viewer is finished by span; the
	// exit past it is a pure safety net against a model bug, not a
	// control-flow path.
	for t := step; ; t += step {
		stepAll(shards, t, workers)
		if err := canceled(cfg); err != nil {
			return nil, err
		}
		if cfg.OnRollup != nil {
			total := totalOf(shards)
			cfg.OnRollup(total.rollup(t))
		}
		if allDone(shards) || t > span+step {
			return shards, nil
		}
	}
}

// canceled reports whether the cohort's cancel channel has closed,
// wrapping experiments.ErrCanceled so callers branch on it exactly like a
// canceled single run.
func canceled(cfg *Config) error {
	if cfg.Cancel == nil {
		return nil
	}
	select {
	case <-cfg.Cancel:
		return fmt.Errorf("cohort: %w", experiments.ErrCanceled)
	default:
		return nil
	}
}

// stepAll advances every unfinished shard to the barrier t, fanning the
// shards over a fixed-size worker pool. Shards share no mutable state,
// so the only synchronization is the barrier itself.
//
// A panic in a shard (a model bug, or a panicking OnViewer) is raised
// again in the caller's goroutine once the barrier is reached, so the
// caller's recovery sees it exactly as on the one-worker path; of
// several, the shard first in order (the lowest shard index) wins.
func stepAll(shards []*shard, t sim.Time, workers int) {
	if workers > len(shards) {
		workers = len(shards)
	}
	if workers <= 1 {
		for _, sh := range shards {
			sh.stepTo(t)
		}
		return
	}
	panics := make([]any, len(shards))
	step := func(i int) {
		defer func() { panics[i] = recover() }()
		shards[i].stepTo(t)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(shards) {
					return
				}
				step(i)
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

func allDone(shards []*shard) bool {
	for _, sh := range shards {
		if !sh.done {
			return false
		}
	}
	return true
}
