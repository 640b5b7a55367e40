package campaign

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"videodvfs/internal/sim"
)

func squareJobs(n int) []Job[int] {
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = func() (int, error) { return i * i, nil }
	}
	return jobs
}

func TestDoPreservesOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		outs := Do(squareJobs(37), Options[int]{Workers: workers})
		if len(outs) != 37 {
			t.Fatalf("workers=%d: got %d outcomes", workers, len(outs))
		}
		for i, o := range outs {
			if o.Index != i || o.Err != nil || o.Value != i*i {
				t.Fatalf("workers=%d slot %d: %+v", workers, i, o)
			}
		}
	}
}

func TestDoEmptyBatch(t *testing.T) {
	if outs := Do(nil, Options[int]{}); len(outs) != 0 {
		t.Fatalf("empty batch produced %d outcomes", len(outs))
	}
}

func TestDoRecoversPanics(t *testing.T) {
	jobs := squareJobs(9)
	jobs[4] = func() (int, error) { panic("boom") }
	outs := Do(jobs, Options[int]{Workers: 4})
	for i, o := range outs {
		if i == 4 {
			var pe *PanicError
			if !errors.As(o.Err, &pe) {
				t.Fatalf("slot 4: want *PanicError, got %v", o.Err)
			}
			if pe.Index != 4 || pe.Value != "boom" || len(pe.Stack) == 0 {
				t.Fatalf("panic detail wrong: %+v", pe)
			}
			if !strings.Contains(pe.Error(), "job 4 panicked: boom") {
				t.Fatalf("panic message wrong: %v", pe)
			}
			continue
		}
		if o.Err != nil || o.Value != i*i {
			t.Fatalf("healthy slot %d corrupted: %+v", i, o)
		}
	}
}

func TestDoErrorsStayPerSlot(t *testing.T) {
	sentinel := errors.New("bad config")
	jobs := squareJobs(5)
	jobs[2] = func() (int, error) { return 0, sentinel }
	outs := Do(jobs, Options[int]{Workers: 2})
	if !errors.Is(outs[2].Err, sentinel) {
		t.Fatalf("slot 2: want sentinel, got %v", outs[2].Err)
	}
	if _, err := Values(outs); !errors.Is(err, sentinel) {
		t.Fatalf("Values should surface the first error, got %v", err)
	}
	outs[2].Err = nil
	vals, err := Values(outs)
	if err != nil || len(vals) != 5 {
		t.Fatalf("Values on clean outcomes: %v %v", vals, err)
	}
}

// countingObserver checks event accounting and serialization.
type countingObserver struct {
	started, done, failed int32
	batchDone             int32
	final                 Progress
}

func (c *countingObserver) JobStarted(int, Progress) { atomic.AddInt32(&c.started, 1) }
func (c *countingObserver) JobDone(_ int, err error, _ Progress) {
	atomic.AddInt32(&c.done, 1)
	if err != nil {
		atomic.AddInt32(&c.failed, 1)
	}
}
func (c *countingObserver) BatchDone(p Progress) {
	atomic.AddInt32(&c.batchDone, 1)
	c.final = p
}

func TestObserverEventsAndProgress(t *testing.T) {
	jobs := squareJobs(20)
	jobs[7] = func() (int, error) { return 0, errors.New("x") }
	obs := &countingObserver{}
	Do(jobs, Options[int]{
		Workers:  4,
		Observer: obs,
	})
	if obs.started != 20 || obs.done != 20 || obs.failed != 1 || obs.batchDone != 1 {
		t.Fatalf("event counts wrong: %+v", obs)
	}
	p := obs.final
	if p.Total != 20 || p.Started != 20 || p.Completed != 20 || p.Failed != 1 {
		t.Fatalf("final progress wrong: %+v", p)
	}
	if p.Wall < 0 || p.RunsPerSec() < 0 {
		t.Fatalf("throughput metrics negative: %+v", p)
	}
}

func TestProgressRates(t *testing.T) {
	p := Progress{Completed: 50, Wall: 2e9}
	if got := p.RunsPerSec(); got != 25 {
		t.Fatalf("RunsPerSec = %v, want 25", got)
	}
	var zero Progress
	if zero.RunsPerSec() != 0 {
		t.Fatal("zero progress should report zero rates")
	}
}

func TestLogObserverOutput(t *testing.T) {
	var b strings.Builder
	obs := &LogObserver{W: &b, Every: 2}
	jobs := squareJobs(4)
	jobs[0] = func() (int, error) { return 0, errors.New("nope") }
	Do(jobs, Options[int]{Workers: 1, Observer: obs})
	out := b.String()
	for _, want := range []string{"run 0 failed: nope", "2/4 done", "4/4 done", "campaign: done 4 runs (1 failed)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("log output missing %q:\n%s", want, out)
		}
	}
}

func TestDoDeterministicAcrossWorkerCounts(t *testing.T) {
	build := func() []Job[string] {
		jobs := make([]Job[string], 24)
		for i := range jobs {
			i := i
			jobs[i] = func() (string, error) {
				// Deterministic per-job work: a tiny RNG stream keyed by
				// the job index, as real runs key theirs by seed.
				r := sim.Stream(int64(i), "campaign/test")
				return fmt.Sprintf("%d:%v", i, r.Float64()), nil
			}
		}
		return jobs
	}
	serial := Do(build(), Options[string]{Workers: 1})
	wide := Do(build(), Options[string]{Workers: 16})
	for i := range serial {
		if serial[i] != wide[i] {
			t.Fatalf("slot %d diverged: %+v vs %+v", i, serial[i], wide[i])
		}
	}
}
