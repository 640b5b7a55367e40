package cohort

import (
	"errors"

	"videodvfs/internal/experiments"
	"videodvfs/internal/netsim"
	"videodvfs/internal/sim"
)

// shard is one shared virtual-time engine multiplexing a fixed subset of
// the cohort's viewers (plus the whole cell sectors they belong to). A
// shard is stepped by exactly one worker at a time between rollup
// barriers; all viewer state mutation happens inside its engine's
// events, single-threaded as always.
type shard struct {
	idx   int
	cfg   *Config
	eng   *sim.Engine
	total int
	cells map[int]*cellState // sector index -> state, made at its first viewer
	agg   agg
	done  bool

	// scratch is the one result every viewer of the shard collects into:
	// one per SHARD, not per viewer, is the whole memory story of result
	// collection.
	scratch experiments.RunResult
}

// member is one admitted viewer of a shard and the handle of its horizon
// cut, which the viewer's completion cancels.
type member struct {
	v   *experiments.Viewer
	cut sim.Event
}

// newShard builds shard idx of shards: constructs every t=0 viewer (in
// global index order — the deterministic analogue of Run's construct-
// then-start ordering), schedules arrival events for later joins, then
// starts the t=0 crowd and arms per-viewer horizon cuts.
func newShard(cfg *Config, idx, shards int, joins []sim.Time) *shard {
	sh := &shard{
		idx: idx,
		cfg: cfg,
		eng: sim.NewEngine(),
		agg: newAgg(),
	}
	if cfg.Cell != nil {
		sh.cells = make(map[int]*cellState)
	}
	var startNow []*member
	for i, join := range joins {
		if cfg.shardOf(i, shards) != idx {
			continue
		}
		sh.total++
		if join <= 0 {
			if m := sh.admit(i); m != nil {
				startNow = append(startNow, m)
			}
			continue
		}
		i := i
		sh.eng.At(join, func() {
			if m := sh.admit(i); m != nil {
				sh.start(m)
			}
		})
	}
	for _, m := range startNow {
		sh.start(m)
	}
	return sh
}

// admit constructs viewer i into the shared engine, with its split
// background seed and (when the cohort has a cell) its sector's
// congestion wrapper. Construction failures are folded into the shard's
// accounting as viewer errors; admit returns nil for them.
func (sh *shard) admit(i int) *member {
	sh.agg.started++
	vcfg := sh.cfg.Base
	vcfg.BGSeed = sim.ChildSeedN(sh.cfg.seed(), "cohort/bgload", i)
	m := new(member)
	opts := experiments.ViewerOptions{
		OnDone: func() {
			sh.eng.Cancel(m.cut)
			sh.collect(i, m.v)
		},
		// The aggregates fold energy and QoE only, so a viewer's
		// per-frame prediction-error log has a reader only in OnViewer.
		NoErrorLog: sh.cfg.OnViewer == nil,
	}
	if sh.cfg.Cell != nil {
		// A sector's state is made when its first viewer arrives: the
		// sector count may far exceed the audience.
		sector := sh.cfg.sectorOf(i)
		cs := sh.cells[sector]
		if cs == nil {
			cs = newCellState(sh.cfg.Cell)
			sh.cells[sector] = cs
		}
		opts.WrapBandwidth = func(base netsim.Bandwidth) netsim.Bandwidth {
			return cellLink{cs: cs, base: base}
		}
		opts.OnNetActivity = cs.activity
	}
	v, err := experiments.NewViewer(sh.eng, vcfg, opts)
	if err != nil {
		sh.finishFailed(i, err)
		return nil
	}
	m.v = v
	return m
}

// start begins a constructed viewer's playback at the engine's current
// time and arms its horizon cut. The viewer's completion cancels the cut
// (a no-op for a cut viewer, whose cut already fired), so once its radio
// tail has drained, nothing in the engine keeps a finished viewer alive:
// the shard's memory follows the viewers on air. The cancel moves no
// result, because a completing viewer's cut could only ever fire as a
// no-op.
func (sh *shard) start(m *member) {
	m.v.Start()
	m.cut = sh.eng.At(m.v.Deadline(), func() { m.v.Cut() })
}

// collect runs inside a viewer's completion (or cut) event: finish the
// viewer into the shard's ONE scratch result and fold it into the online
// aggregates. When the last viewer of the shard finishes, the engine is
// stopped — leftover radio-tail events are never run, exactly as a
// standalone Run leaves them.
func (sh *shard) collect(i int, v *experiments.Viewer) {
	sh.agg.finished++
	if now := sh.eng.Now(); now > sh.agg.maxEnd {
		sh.agg.maxEnd = now
	}
	res := &sh.scratch
	if err := v.Finish(res); err != nil {
		sh.agg.errors++
		if errors.Is(err, experiments.ErrHorizonExceeded) {
			sh.agg.horizonCut++
		}
		if sh.agg.firstErr == "" {
			sh.agg.firstErr = err.Error()
		}
		if sh.cfg.OnViewer != nil {
			sh.cfg.OnViewer(i, nil, err)
		}
	} else {
		sh.agg.fold(res)
		if sh.cfg.OnViewer != nil {
			sh.cfg.OnViewer(i, res, nil)
		}
	}
	if sh.agg.finished == sh.total {
		sh.eng.Stop()
	}
}

// finishFailed accounts a viewer that never got a simulator (config or
// construction failure).
func (sh *shard) finishFailed(i int, err error) {
	sh.agg.finished++
	sh.agg.errors++
	if sh.agg.firstErr == "" {
		sh.agg.firstErr = err.Error()
	}
	if sh.cfg.OnViewer != nil {
		sh.cfg.OnViewer(i, nil, err)
	}
	if sh.agg.finished == sh.total {
		sh.eng.Stop()
	}
}

// stepTo advances the shard's engine to the barrier time t. Chunked
// RunUntil calls replay the identical event sequence one long run would
// (the engine fires events with at <= horizon and re-arms after a Stop),
// so barrier stepping changes nothing but when snapshots are taken.
func (sh *shard) stepTo(t sim.Time) {
	if sh.done {
		return
	}
	sh.eng.RunUntil(t)
	if sh.agg.finished == sh.total {
		sh.done = true
	}
}
