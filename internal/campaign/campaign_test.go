package campaign

import (
	"errors"
	"fmt"
	"strings"
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
		outs := Do(squareJobs(37), Options{Workers: workers})
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
	if outs := Do[int](nil, Options{}); len(outs) != 0 {
		t.Fatalf("empty batch produced %d outcomes", len(outs))
	}
}

func TestDoRecoversPanics(t *testing.T) {
	jobs := squareJobs(9)
	jobs[4] = func() (int, error) { panic("boom") }
	outs := Do(jobs, Options{Workers: 4})
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
	outs := Do(jobs, Options{Workers: 2})
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

func TestProgressRates(t *testing.T) {
	p := progress{completed: 50, wall: 2e9}
	if got := p.runsPerSec(); got != 25 {
		t.Fatalf("runsPerSec = %v, want 25", got)
	}
	var zero progress
	if zero.runsPerSec() != 0 {
		t.Fatal("zero progress should report zero rates")
	}
}

// TestLogObserverOutput checks the lines Do writes to Options.Progress on
// one worker: one per failed job naming it, one "i/n done" line per
// successful job, and one summary line counting the failures, in order.
func TestLogObserverOutput(t *testing.T) {
	var b strings.Builder
	jobs := squareJobs(4)
	jobs[0] = func() (int, error) { return 0, errors.New("nope") }
	Do(jobs, Options{Workers: 1, Progress: &b})
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	want := []string{
		"campaign: run 0 failed: nope",
		"campaign: 2/4 done (1 failed) ",
		"campaign: 3/4 done (1 failed) ",
		"campaign: 4/4 done (1 failed) ",
		"campaign: done 4 runs (1 failed) in ",
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), b.String())
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], w) {
			t.Fatalf("line %d = %q, want prefix %q", i, lines[i], w)
		}
	}
}

// TestObserverEventsAndProgress checks the progress accounting across four
// workers: every job is reported once, the one failure by name, and the
// summary line comes last with the batch totals.
func TestObserverEventsAndProgress(t *testing.T) {
	var b strings.Builder
	jobs := squareJobs(20)
	jobs[7] = func() (int, error) { return 0, errors.New("x") }
	Do(jobs, Options{Workers: 4, Progress: &b})
	out := b.String()
	if n := strings.Count(out, "campaign: run 7 failed: x\n"); n != 1 || strings.Count(out, "failed: ") != 1 {
		t.Fatalf("want exactly one failure line, for run 7:\n%s", out)
	}
	if n := strings.Count(out, "/20 done ("); n != 19 {
		t.Fatalf("%d done lines, want 19:\n%s", n, out)
	}
	if !strings.HasSuffix(out, " runs/s\n") || !strings.Contains(out, "campaign: done 20 runs (1 failed) in ") {
		t.Fatalf("summary line missing or not last:\n%s", out)
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
				return fmt.Sprintf("%d:%v", i, r.Uniform(0, 1)), nil
			}
		}
		return jobs
	}
	serial := Do(build(), Options{Workers: 1})
	wide := Do(build(), Options{Workers: 16})
	for i := range serial {
		if serial[i] != wide[i] {
			t.Fatalf("slot %d diverged: %+v vs %+v", i, serial[i], wide[i])
		}
	}
}
