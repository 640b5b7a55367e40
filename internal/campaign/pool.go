package campaign

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrPoolClosed reports a submission to a pool that is closed or
// draining; distinguish it with errors.Is.
var ErrPoolClosed = errors.New("campaign: pool closed")

// submission wraps a queued task so a sender that lost the close race can
// retract it after the send: the sender and the workers race for the
// claim with one CAS, so the task either runs exactly once or provably
// never runs.
type submission struct {
	task  func()
	state atomic.Int32 // subQueued until claimed or retracted
}

const (
	subQueued    int32 = iota // in the channel, up for grabs
	subClaimed                // a worker owns it and will run it
	subRetracted              // the sender withdrew it; workers skip it
)

// Pool is a worker pool with a bounded admission queue. Do runs each
// batch on a Pool sized for it and closes it; a simulation service keeps
// one open for an open-ended stream of tasks, where admission control
// (the bounded queue) and backpressure (TrySubmit returning false) are
// part of the contract.
//
// A panicking task never kills its worker. Tasks that need the panic as
// a value wrap their body in Protect themselves, as Do's do.
type Pool struct {
	tasks   chan *submission
	closing chan struct{}
	wg      sync.WaitGroup // workers
	senders sync.WaitGroup // blocked SubmitCtx calls
	queued  atomic.Int64
	active  atomic.Int64
	workers int

	mu     sync.Mutex
	closed bool

	// submitGate, when set (tests only), runs after a SubmitCtx call
	// registers as a sender and before it reaches the send — the window
	// where Close can slip in. It lets the race test hold that window
	// open deterministically instead of praying for a preemption.
	submitGate func()
}

// NewPool starts a pool of workers (≤0 = GOMAXPROCS) over a queue holding
// up to queue pending tasks (≤0 = 2×workers). Close it to drain.
func NewPool(workers, queue int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queue <= 0 {
		queue = 2 * workers
	}
	p := &Pool{
		tasks:   make(chan *submission, queue),
		closing: make(chan struct{}),
		workers: workers,
	}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for s := range p.tasks {
		if !s.state.CompareAndSwap(subQueued, subClaimed) {
			continue // retracted by a sender that lost the close race
		}
		p.queued.Add(-1)
		p.active.Add(1)
		p.run(s.task)
		p.active.Add(-1)
	}
}

// run executes one task, swallowing panics so the worker survives. Tasks
// wanting the panic as data wrap themselves in Protect.
func (p *Pool) run(task func()) {
	defer func() { recover() }()
	task()
}

// TrySubmit enqueues task without blocking. It returns false when the
// queue is full or the pool is closed — the admission-control signal a
// server turns into 429/503.
func (p *Pool) TrySubmit(task func()) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	select {
	case p.tasks <- &submission{task: task}:
		p.queued.Add(1)
		return true
	default:
		return false
	}
}

// SubmitCtx enqueues task, blocking until queue space frees, ctx ends, or
// the pool closes. Use it for pre-admitted batch work (a sweep whose
// admission was decided once up front) that should ride out transient
// queue pressure instead of failing item by item.
func (p *Pool) SubmitCtx(ctx context.Context, task func()) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	// Register as an in-flight sender while still holding the lock, so
	// Close cannot close p.tasks between the check above and the send.
	p.senders.Add(1)
	p.mu.Unlock()
	defer p.senders.Done()
	if p.submitGate != nil {
		p.submitGate()
	}
	// A Close that began while this sender was registering must win: the
	// select below picks uniformly among ready cases, and a worker can
	// claim a sent task before the retraction there runs.
	select {
	case <-p.closing:
		return ErrPoolClosed
	default:
	}
	s := &submission{task: task}
	select {
	case p.tasks <- s:
		p.queued.Add(1)
		// Go's select picks uniformly among ready cases, so a sender
		// blocked here can win the send even when Close already closed
		// p.closing — which would admit a task after "further
		// submissions fail" took effect. Re-check closing with priority
		// and retract the submission if Close got there first; the CAS
		// settles the race with any worker that grabbed it meanwhile.
		select {
		case <-p.closing:
			if s.state.CompareAndSwap(subQueued, subRetracted) {
				p.queued.Add(-1)
				return ErrPoolClosed
			}
			// A worker claimed it before Close's barrier: the task runs,
			// so the submission linearizes before the close.
			return nil
		default:
			return nil
		}
	case <-ctx.Done():
		return ctx.Err()
	case <-p.closing:
		return ErrPoolClosed
	}
}

// QueueDepth returns the number of tasks accepted but not yet started.
func (p *Pool) QueueDepth() int { return int(p.queued.Load()) }

// Active returns the number of tasks currently executing.
func (p *Pool) Active() int { return int(p.active.Load()) }

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Capacity returns the admission queue's size.
func (p *Pool) Capacity() int { return cap(p.tasks) }

// Close stops admission and blocks until every accepted task has run.
// Further submissions fail; Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	close(p.closing) // unblocks pending SubmitCtx sends
	p.mu.Unlock()
	p.senders.Wait() // no sender can touch p.tasks after this
	close(p.tasks)
	p.wg.Wait()
}

// Protect runs fn, converting a panic into a *PanicError carrying the
// given index (position in a batch, request number — any identifier
// useful in the report). It is the panic discipline Do applies per job,
// exported so Pool tasks and other callers can opt into the same
// contract.
func Protect(index int, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			stack := make([]byte, 16<<10)
			stack = stack[:runtime.Stack(stack, false)]
			err = &PanicError{Index: index, Value: r, Stack: stack}
		}
	}()
	return fn()
}
