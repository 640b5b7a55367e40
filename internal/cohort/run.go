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

// runShards builds the named shards of a validated cohort (nil names
// every shard) and steps them in lockstep rollup barriers until all
// their viewers have finished: the one stepping loop Run and RunPart
// share. At each barrier it checks for cancellation and hands OnRollup,
// which only whole cohorts may set, the merged snapshot.
func runShards(cfg *Config, set []int) ([]*shard, error) {
	joins := computeJoins(*cfg)
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

	var maxJoin sim.Time
	for _, j := range joins {
		if j > maxJoin {
			maxJoin = j
		}
	}
	step := cfg.rollup()
	// The horizon cuts guarantee every viewer is finished by
	// maxJoin+horizon; the bound below is a pure safety net against a
	// model bug, not a control-flow path.
	bound := maxJoin + cfg.Base.EffectiveHorizon() + step
	workers := runtime.GOMAXPROCS(0)

	for t := step; ; t += step {
		stepAll(shards, t, workers)
		if err := canceled(cfg); err != nil {
			return nil, err
		}
		if cfg.OnRollup != nil {
			total := totalOf(shards)
			cfg.OnRollup(total.rollup(t))
		}
		if allDone(shards) || t > bound {
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
				shards[i].stepTo(t)
			}
		}()
	}
	wg.Wait()
}

func allDone(shards []*shard) bool {
	for _, sh := range shards {
		if !sh.done {
			return false
		}
	}
	return true
}
