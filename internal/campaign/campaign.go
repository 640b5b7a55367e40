// Package campaign fans a batch of independent, deterministic simulation
// jobs across a worker pool. Every table and figure of the evaluation is
// rebuilt from dozens of single-threaded sim.Engine runs; the engine is
// serial by design, so throughput comes from executing whole runs
// concurrently. The pool preserves input order in its results, converts
// per-job panics into per-job errors (one bad config must not kill a
// 1000-run sweep), and reports progress through a pluggable Observer.
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
type Options[T any] struct {
	// Workers is the pool size; ≤0 means runtime.GOMAXPROCS(0).
	Workers int
	// Observer receives progress events (nil = none). Calls are
	// serialized by the pool, so observers need no locking.
	Observer Observer
}

// Do executes jobs across a worker pool and returns their outcomes in
// input order. It blocks until every job finished; a panicking or failing
// job only marks its own slot.
func Do[T any](jobs []Job[T], opts Options[T]) []Outcome[T] {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	out := make([]Outcome[T], len(jobs))
	if len(jobs) == 0 {
		return out
	}

	tr := newTracker(len(jobs), opts.Observer)
	indices := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range indices {
				tr.started(i)
				out[i] = runOne(i, jobs[i])
				tr.finished(i, out[i].Err)
			}
		}()
	}
	for i := range jobs {
		indices <- i
	}
	close(indices)
	wg.Wait()
	tr.done()
	return out
}

// runOne executes one job under the Protect panic discipline. Each
// worker writes only its own result slot, so the slice needs no locking.
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

// Progress is a snapshot of a batch in flight.
type Progress struct {
	// Total is the number of jobs in the batch.
	Total int
	// Started counts jobs handed to a worker.
	Started int
	// Completed counts finished jobs, successful or not.
	Completed int
	// Failed counts finished jobs that returned an error.
	Failed int
	// Wall is the elapsed wall-clock time since Do began.
	Wall time.Duration
}

// RunsPerSec returns completed jobs per wall-clock second.
func (p Progress) RunsPerSec() float64 {
	if p.Wall <= 0 {
		return 0
	}
	return float64(p.Completed) / p.Wall.Seconds()
}

// tracker serializes progress accounting and observer callbacks.
type tracker struct {
	mu    sync.Mutex
	p     Progress
	t0    time.Time
	obs   Observer
	clock func() time.Duration
}

func newTracker(total int, obs Observer) *tracker {
	t0 := time.Now()
	return &tracker{
		p:     Progress{Total: total},
		t0:    t0,
		obs:   obs,
		clock: func() time.Duration { return time.Since(t0) },
	}
}

func (t *tracker) started(i int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.p.Started++
	t.p.Wall = t.clock()
	if t.obs != nil {
		t.obs.JobStarted(i, t.p)
	}
}

func (t *tracker) finished(i int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.p.Completed++
	if err != nil {
		t.p.Failed++
	}
	t.p.Wall = t.clock()
	if t.obs != nil {
		t.obs.JobDone(i, err, t.p)
	}
}

func (t *tracker) done() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.p.Wall = t.clock()
	if t.obs != nil {
		t.obs.BatchDone(t.p)
	}
}
