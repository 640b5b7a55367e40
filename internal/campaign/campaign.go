// Package campaign fans a batch of independent, deterministic simulation
// jobs across a worker pool. Every table and figure of the evaluation is
// rebuilt from dozens of single-threaded sim.Engine runs; the engine is
// serial by design, so throughput comes from executing whole runs
// concurrently. Do preserves input order in its results, converts
// per-job panics into per-job errors (one bad config must not kill a
// 1000-run sweep), and can print progress lines to a writer. It runs on
// the same Pool a simulation service admits its requests to.
//
// The package is deliberately generic: it knows nothing about
// experiments.RunConfig, so the experiments package (and anything else —
// cluster runs, cell simulations, whole table builders) can batch through
// it without an import cycle. The typed conveniences over RunConfig live
// in internal/experiments (RunAll, Sweep).
//
// Determinism contract: a job must derive all randomness from its own
// inputs and share no mutable state with other jobs. Under that contract
// Do returns bit-identical outcomes for any worker count, which the
// experiments package pins with a parallel-vs-serial equivalence test.
//
// Jobs built on experiments.Run additionally recycle whole simulation
// arenas from a pool (experiments.Session): each worker's runs rewind an
// existing simulator in place rather than constructing one, which is safe
// under the same contract — a recycled arena is differentially pinned to
// reproduce a fresh simulator's results exactly.
package campaign

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"
)

// Job computes one value. Jobs run concurrently and must not share
// mutable state.
type Job[T any] func() (T, error)

// Outcome is one job's slot in the result slice: the value it returned,
// or the error (possibly a *PanicError) that ended it.
type Outcome[T any] struct {
	// Index is the job's position in the input slice.
	Index int
	// Value is the job's return value (zero when Err is set).
	Value T
	// Err is the job's error; a recovered panic surfaces as *PanicError.
	Err error
}

// PanicError is a per-job panic converted into an error so the rest of
// the batch keeps running.
type PanicError struct {
	// Index is the panicking job's position in the input slice.
	Index int
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error describes the recovered panic.
func (e *PanicError) Error() string {
	return fmt.Sprintf("campaign: job %d panicked: %v", e.Index, e.Value)
}

// Options configure one batch.
type Options struct {
	// Workers is the pool size; ≤0 means runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when set, receives a line per finished job — a failure
	// line for a job that returned an error, an "i/n done" line for one
	// that succeeded — and a summary line once the batch is done. Lines
	// are written one at a time, so the writer needs no locking.
	Progress io.Writer
}

// Do executes jobs on a Pool sized for the batch and returns their
// outcomes in input order. It blocks until every job finished; a
// panicking or failing job only marks its own slot.
func Do[T any](jobs []Job[T], opts Options) []Outcome[T] {
	out := make([]Outcome[T], len(jobs))
	if len(jobs) == 0 {
		return out
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The queue holds the whole batch, so no submission is ever refused.
	pool := NewPool(min(workers, len(jobs)), len(jobs))
	prog := progress{w: opts.Progress, total: len(jobs), t0: time.Now()}
	for i, job := range jobs {
		// Each task writes only its own slot, so the slice needs no locking.
		pool.TrySubmit(func() {
			out[i] = runOne(i, job)
			prog.finished(i, out[i].Err)
		})
	}
	pool.Close()
	prog.done()
	return out
}

// runOne executes one job under the Protect panic discipline.
func runOne[T any](i int, job Job[T]) (out Outcome[T]) {
	out.Index = i
	out.Err = Protect(i, func() error {
		var err error
		out.Value, err = job()
		return err
	})
	return out
}

// Values unpacks outcomes into a value slice, returning the first error
// (by input order) if any job failed.
func Values[T any](outs []Outcome[T]) ([]T, error) {
	vals := make([]T, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			return nil, fmt.Errorf("campaign: job %d: %w", o.Index, o.Err)
		}
		vals[i] = o.Value
	}
	return vals, nil
}

// progress counts a batch's finished jobs and prints its lines to w when
// w is set. Workers report concurrently; mu serializes counts and lines.
type progress struct {
	mu                       sync.Mutex
	w                        io.Writer
	total, completed, failed int
	t0                       time.Time
	wall                     time.Duration // elapsed at the last report
}

// runsPerSec returns completed jobs per wall-clock second.
func (p *progress) runsPerSec() float64 {
	if p.wall <= 0 {
		return 0
	}
	return float64(p.completed) / p.wall.Seconds()
}

// finished counts job i, failed when err is set.
func (p *progress) finished(i int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.completed++
	if err != nil {
		p.failed++
	}
	p.wall = time.Since(p.t0)
	switch {
	case p.w == nil:
	case err != nil:
		fmt.Fprintf(p.w, "campaign: run %d failed: %v\n", i, err)
	default:
		fmt.Fprintf(p.w, "campaign: %d/%d done (%d failed) %.1fs %.1f runs/s\n",
			p.completed, p.total, p.failed, p.wall.Seconds(), p.runsPerSec())
	}
}

// done prints the summary line.
func (p *progress) done() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wall = time.Since(p.t0)
	if p.w != nil {
		fmt.Fprintf(p.w, "campaign: done %d runs (%d failed) in %.1fs — %.1f runs/s\n",
			p.completed, p.failed, p.wall.Seconds(), p.runsPerSec())
	}
}
