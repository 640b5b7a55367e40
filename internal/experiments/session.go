package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"

	"videodvfs/internal/sim"
	"videodvfs/internal/trace"
)

// Session is a reusable simulation arena: an owned engine plus one
// Viewer — the full per-device simulator (CPU core with its job rings,
// radio, downloader, player, energy meter, background load generator,
// energy-aware governor) — whose parts are rewound in place by Reset
// instead of being reconstructed per run. Stream and bandwidth tables are
// shared immutably across resets (and across arenas, via the package
// caches). On top of the viewer, a Session adds only what a standalone run
// has and a cohort viewer does not: the tracer chain (the caller's tracer
// or the factory's, with the checker tee'd in front), the OnSample and
// Cancel tickers, and stopping the engine when the session completes.
//
// A Session is single-goroutine: drive it with Reset+Finish or RunInto.
// The package-level Run draws Sessions from an internal pool, so campaign
// workers and dvfsd recycle arenas without holding one explicitly.
// RunCluster and RunSMP each run a fresh Session whose viewer has a CPU
// platform (a big.LITTLE pair, a shared-clock domain), so the tracer
// chain, strict mode and the close-out reach them as they reach Run.
//
// Determinism: Viewer.reset replays the exact construction order of a
// fresh run — component wiring, event scheduling, and RNG derivation — so
// results and traces are byte-identical to a fresh simulator's. The
// differential tests in reset_test.go pin that equivalence across the whole
// experiment registry, including cross-config recycling.
type Session struct {
	// v is held by value but not embedded, so the Viewer's Start, Cut
	// and Deadline stay off the public arena's method set.
	v Viewer

	// stopFn is the viewer's pre-bound OnDone: stop the tickers and the
	// engine once the session completes.
	stopFn     func()
	probe      *sim.Ticker
	cancelTick *sim.Ticker

	run runState
}

// runState is the per-run trace and lifecycle state established by Reset
// and consumed by Finish.
type runState struct {
	closeTrace func() error
	closed     bool
	armed      bool
	canceled   bool
}

// NewSession returns an empty arena. The simulator parts are built on the
// first Reset (they need a config) and recycled by every later one.
func NewSession() *Session {
	s := &Session{}
	s.v.eng = sim.NewEngine()
	s.stopFn = func() {
		if s.probe != nil {
			s.probe.Stop()
		}
		if s.cancelTick != nil {
			s.cancelTick.Stop()
		}
		s.v.eng.Stop()
	}
	return s
}

// sessionPool recycles arenas across Run calls.
var sessionPool = sync.Pool{New: func() any { return NewSession() }}

// sessionReuseOff disables the arena pool when set (fresh Session per Run).
// Inverted so the zero value means "reuse on". Only the differential
// tests set it, to produce fresh-simulator references.
var sessionReuseOff atomic.Bool

// RunInto executes one simulation in this arena, writing the outcome into
// res. Maps and slices already present in res are reused (cleared and
// refilled), so a caller recycling both the Session and the RunResult runs
// allocation-free after warm-up. On error res is left in an unspecified
// state.
func (s *Session) RunInto(cfg RunConfig, res *RunResult) error {
	if err := s.Reset(cfg); err != nil {
		return err
	}
	return s.Finish(res)
}

// Reset rewinds the arena and wires it for cfg, exactly as a fresh
// simulator construction would: same component order, same event-schedule
// order, same RNG derivations. It validates cfg, applies defaults, and
// leaves the arena armed; Finish drives the run to completion. A Reset
// invalidates everything scheduled by the previous run — including one cut
// short by an error or horizon — via the engine's generation bump.
func (s *Session) Reset(cfg RunConfig) (err error) {
	cfg, err = cfg.withDefaults()
	if err != nil {
		return err
	}
	if s.run.armed {
		// A previous Reset was abandoned without Finish: tear down its
		// per-run wiring (thermal sampler, trace sink) before rearming.
		s.release()
	}
	defer func() {
		if err != nil {
			s.release()
		}
	}()

	tr := cfg.Tracer
	if tr == nil {
		if f := currentTraceFactory(); f != nil {
			tr, s.run.closeTrace = f(cfg, s.v.plat.name())
		}
	}
	chk := buildChecker(cfg)
	if chk != nil {
		// The checker rides first in the tee; it only observes, so every
		// downstream tracer sees the identical stream.
		if tr == nil {
			tr = chk
		} else {
			tr = trace.Tee{chk, tr}
		}
	}

	s.v.eng.Reset()
	s.probe = nil
	s.cancelTick = nil
	if err := s.v.reset(cfg, chk, tr, ViewerOptions{OnDone: s.stopFn}); err != nil {
		return err
	}

	if cfg.OnSample != nil {
		onSample := cfg.OnSample
		s.probe = sim.NewTicker(s.v.eng, 100*sim.Millisecond, func(now sim.Time) {
			onSample(now, s.v.core.FreqHz()/1e9, s.v.core.Power(), s.v.ps.BufferSec())
		})
	}
	if cfg.Cancel != nil {
		// Poll the cancel channel at OnSample cadence: virtual time only
		// advances while the simulation is computing, so an abandoned run
		// observes the closed channel within one event batch of wall time
		// and stops instead of simulating on to the horizon.
		cancel := cfg.Cancel
		s.cancelTick = sim.NewTicker(s.v.eng, 100*sim.Millisecond, func(now sim.Time) {
			select {
			case <-cancel:
				s.run.canceled = true
				s.v.eng.Stop()
			default:
			}
		})
	}
	s.run.armed = true
	return nil
}

// Finish drives an armed arena to completion and collects the outcome into
// res, reusing res's maps and slices when present.
func (s *Session) Finish(res *RunResult) error {
	if !s.run.armed {
		return fmt.Errorf("experiments: session not armed; call Reset first")
	}
	s.run.armed = false
	defer s.release()

	s.v.Start()
	s.v.eng.RunUntil(s.v.horizon)
	s.v.meter.Finish()

	if s.run.closeTrace != nil {
		s.run.closed = true
		if cerr := s.run.closeTrace(); cerr != nil {
			return fmt.Errorf("experiments: trace sink: %w", cerr)
		}
	}

	if s.run.canceled {
		return fmt.Errorf("experiments: %w at %v", ErrCanceled, s.v.eng.Now())
	}
	return s.v.collect(res)
}

// release tears down the per-run wiring: the trace sink (closed
// best-effort on error paths), then the viewer's thermal sampler and
// governor ticker. It drops the run's config and checker so a pooled
// arena does not pin them.
func (s *Session) release() {
	if s.run.closeTrace != nil && !s.run.closed {
		s.run.closeTrace() // error path: best-effort flush
	}
	s.v.teardown()
	s.v.cfg, s.v.chk = RunConfig{}, nil
	s.run = runState{}
}
