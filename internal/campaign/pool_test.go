package campaign

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsEverything(t *testing.T) {
	p := NewPool(4, 8)
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		if err := p.SubmitCtx(context.Background(), func() {
			defer wg.Done()
			n.Add(1)
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	wg.Wait()
	p.Close()
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", n.Load())
	}
}

func TestPoolTrySubmitBackpressure(t *testing.T) {
	p := NewPool(1, 1)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	// Occupy the single worker…
	if !p.TrySubmit(func() { close(started); <-block }) {
		t.Fatal("first submit rejected")
	}
	<-started
	// …fill the single queue slot…
	if !p.TrySubmit(func() {}) {
		t.Fatal("queue-filling submit rejected")
	}
	// …and the next admission must bounce.
	if p.TrySubmit(func() {}) {
		t.Fatal("submit accepted with a full queue")
	}
	if d := p.QueueDepth(); d != 1 {
		t.Fatalf("QueueDepth = %d, want 1", d)
	}
	if a := p.Active(); a != 1 {
		t.Fatalf("Active = %d, want 1", a)
	}
	close(block)
}

func TestPoolSubmitCtxHonorsContext(t *testing.T) {
	p := NewPool(1, 1)
	defer p.Close()
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	p.TrySubmit(func() { close(started); <-block })
	<-started
	p.TrySubmit(func() {}) // fills the queue
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := p.SubmitCtx(ctx, func() {}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SubmitCtx on full queue = %v, want deadline exceeded", err)
	}
}

// TestPoolSubmitCtxCountsQueued pins the queued-counter accounting:
// SubmitCtx's send path must increment the depth just like TrySubmit, or
// the worker-side decrement underflows the counter and QueueDepth drifts
// negative — silently disarming sweep admission control, the Retry-After
// backlog estimate, and /metrics.
func TestPoolSubmitCtxCountsQueued(t *testing.T) {
	p := NewPool(1, 8)
	block := make(chan struct{})
	started := make(chan struct{})
	p.TrySubmit(func() { close(started); <-block })
	<-started // the worker now owns the blocking task; queue is empty
	for i := 0; i < 3; i++ {
		if err := p.SubmitCtx(context.Background(), func() {}); err != nil {
			t.Fatalf("SubmitCtx %d: %v", i, err)
		}
	}
	if d := p.QueueDepth(); d != 3 {
		t.Fatalf("QueueDepth after 3 SubmitCtx = %d, want 3", d)
	}
	close(block)
	p.Close()
	if d := p.QueueDepth(); d != 0 {
		t.Fatalf("QueueDepth after drain = %d, want 0", d)
	}
}

func TestPoolCloseDrainsAndRejects(t *testing.T) {
	p := NewPool(1, 4)
	var ran atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{})
	p.TrySubmit(func() { close(started); <-gate; ran.Add(1) })
	<-started
	for i := 0; i < 3; i++ {
		if !p.TrySubmit(func() { ran.Add(1) }) {
			t.Fatalf("queued submit %d rejected", i)
		}
	}
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a task was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	<-closed
	if ran.Load() != 4 {
		t.Fatalf("drained %d tasks, want all 4 accepted before Close", ran.Load())
	}
	if p.TrySubmit(func() {}) {
		t.Fatal("TrySubmit accepted after Close")
	}
	if err := p.SubmitCtx(context.Background(), func() {}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("SubmitCtx after Close = %v, want ErrPoolClosed", err)
	}
}

func TestPoolCloseUnblocksPendingSubmit(t *testing.T) {
	p := NewPool(1, 1)
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	p.TrySubmit(func() { close(started); <-block })
	<-started
	p.TrySubmit(func() {})
	errc := make(chan error, 1)
	go func() { errc <- p.SubmitCtx(context.Background(), func() {}) }()
	// Give the sender a moment to block on the full queue, then close.
	time.Sleep(10 * time.Millisecond)
	go p.Close()
	if err := <-errc; !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("pending SubmitCtx after Close = %v, want ErrPoolClosed", err)
	}
}

func TestPoolSurvivesPanickingTask(t *testing.T) {
	p := NewPool(1, 2)
	defer p.Close()
	done := make(chan struct{})
	p.TrySubmit(func() { panic("boom") })
	if !p.TrySubmit(func() { close(done) }) {
		t.Fatal("submit after panic rejected")
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("worker died with the panicking task")
	}
}

func TestProtectConvertsPanic(t *testing.T) {
	err := Protect(7, func() error { panic("kaput") })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 7 || pe.Value != "kaput" {
		t.Fatalf("Protect = %v, want PanicError{7, kaput}", err)
	}
	if err := Protect(0, func() error { return nil }); err != nil {
		t.Fatalf("Protect of clean fn = %v", err)
	}
	sentinel := errors.New("plain")
	if err := Protect(0, func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("Protect swallowed a plain error: %v", err)
	}
}

// TestPoolSubmitCtxNeverAdmitsAfterCloseBegan pins the admission race:
// a select's first poll picks uniformly among ready cases, so a
// SubmitCtx call that reached the send with queue space free after Close
// had already closed p.closing could win the send case and admit a task
// after "further submissions fail" took effect. The submitGate hook
// holds that window open deterministically: the sender is registered but
// has not reached the select when Close completes, so any nil return (or
// any execution of the task) is the bug. Pre-fix this fails within a few
// of the 64 iterations; post-fix the retraction makes it deterministic.
func TestPoolSubmitCtxNeverAdmitsAfterCloseBegan(t *testing.T) {
	for i := 0; i < 64; i++ {
		p := NewPool(1, 4) // queue space free: the send case is ready
		atGate := make(chan struct{})
		goahead := make(chan struct{})
		p.submitGate = func() { close(atGate); <-goahead }

		var late atomic.Bool
		errc := make(chan error, 1)
		go func() {
			errc <- p.SubmitCtx(context.Background(), func() { late.Store(true) })
		}()
		<-atGate // the sender is registered, not yet at the select

		closed := make(chan struct{})
		go func() { p.Close(); close(closed) }()
		<-p.closing    // Close has begun: the submission must now fail
		close(goahead) // release the sender into the racy select

		if err := <-errc; !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("iter %d: SubmitCtx after Close began = %v, want ErrPoolClosed", i, err)
		}
		<-closed
		if late.Load() {
			t.Fatalf("iter %d: task admitted after Close began was executed", i)
		}
	}
}
