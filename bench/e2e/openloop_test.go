package main

import (
	"math"
	"sync"
	"testing"
	"time"
)

// fakeClock jumps straight to each due time, except that it can stall the
// generator for a while when a given request is due, as a descheduled
// generator would.
type fakeClock struct {
	mu      sync.Mutex
	t       time.Duration
	stallAt time.Duration
	stall   time.Duration
}

func (c *fakeClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.t {
		c.t = t
	}
	if c.stall > 0 && t >= c.stallAt {
		c.t += c.stall
		c.stall = 0
	}
}

// runFake issues one request per ms for n ms on clk; each takes service
// to complete, measured from when it was sent.
func runFake(clk *fakeClock, n int, service time.Duration) []timing {
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(i) * time.Millisecond
	}
	ts := make([]timing, n)
	var wg sync.WaitGroup
	wg.Add(n)
	issueOpenLoop(clk, dues, func(i int, sent time.Duration) {
		defer wg.Done()
		ts[i] = timing{due: dues[i], sent: sent, done: sent + service, ok: true}
	})
	wg.Wait()
	return ts
}

var testLimits = stepLimits{p99FromDue: 50 * time.Millisecond, lateP99: 5 * time.Millisecond}

func TestOpenLoopOnSchedule(t *testing.T) {
	ts := runFake(&fakeClock{}, 1000, 2*time.Millisecond)
	st := accountStep(ts, 1000, 0, time.Second, testLimits)
	if st.n != 1000 || st.lateP99 != 0 || st.p50 != 2 || st.p99 != 2 {
		t.Fatalf("on-schedule step: %+v", st)
	}
	if st.growing || !st.meets {
		t.Fatalf("on-schedule step should meet its limits: %+v", st)
	}
}

// A generator stall delays every request it held back; timing from the
// due time charges that wait to them, and the lateness shows it.
func TestOpenLoopStallCountsFromDue(t *testing.T) {
	clk := &fakeClock{stallAt: 500 * time.Millisecond, stall: 80 * time.Millisecond}
	ts := runFake(clk, 1000, 2*time.Millisecond)
	if got := ts[500].late(); got != 80*time.Millisecond {
		t.Fatalf("request 500 issued %v late, want 80ms", got)
	}
	if got := ts[500].fromDue(); got != 82*time.Millisecond {
		t.Fatalf("request 500 took %v from due, want 82ms", got)
	}
	// The 80 requests due during the stall go out late in a burst.
	late := 0
	for _, x := range ts {
		if x.late() > 0 {
			late++
		}
	}
	if late != 80 {
		t.Fatalf("%d requests went out late, want 80", late)
	}
	st := accountStep(ts, 1000, 0, time.Second, testLimits)
	if st.lateP99 <= 5 || st.meets {
		t.Fatalf("a stalled generator must fail the lateness limit: %+v", st)
	}
}

// A service slower than the arrival rate builds a queue that grows
// through the step.
func TestOpenLoopGrowingBacklog(t *testing.T) {
	var ts []timing
	var free time.Duration
	for i := 0; i < 1000; i++ {
		due := time.Duration(i) * time.Millisecond
		start := max(due, free)
		free = start + 1100*time.Microsecond // 10% over capacity
		ts = append(ts, timing{due: due, sent: due, done: free, ok: true})
	}
	st := accountStep(ts, 1000, 0, time.Second, testLimits)
	if !st.growing || st.meets || st.backlogEnd <= st.backlogMid {
		t.Fatalf("an overloaded step must show a growing backlog: %+v", st)
	}

	// The same load at a sustainable service time keeps level.
	ts = ts[:0]
	free = 0
	for i := 0; i < 1000; i++ {
		due := time.Duration(i) * time.Millisecond
		start := max(due, free)
		free = start + 900*time.Microsecond
		ts = append(ts, timing{due: due, sent: due, done: free, ok: true})
	}
	if st := accountStep(ts, 1000, 0, time.Second, testLimits); st.growing || !st.meets {
		t.Fatalf("a sustainable step reads as overloaded: %+v", st)
	}
}

// A failed request counts as missing every latency limit, and the step
// accounting only looks at requests due inside the step.
func TestOpenLoopFailuresAndStepBounds(t *testing.T) {
	ts := runFake(&fakeClock{}, 2000, time.Millisecond)
	for i := 1000; i < 1020; i++ {
		ts[i].ok = false
	}
	first := accountStep(ts, 1000, 0, time.Second, testLimits)
	second := accountStep(ts, 1000, time.Second, 2*time.Second, testLimits)
	if first.n != 1000 || first.failed != 0 || !first.meets {
		t.Fatalf("first step: %+v", first)
	}
	if second.failed != 20 || !math.IsInf(second.p99, 1) || second.meets {
		t.Fatalf("second step must fail on its failed requests: %+v", second)
	}
	if got := maxRate([]stepStats{first, second}); got != 1000 {
		t.Fatalf("maxRate = %g, want 1000", got)
	}
	if got := maxRate([]stepStats{second}); got != 0 {
		t.Fatalf("maxRate with no passing step = %g, want 0", got)
	}
}

func TestPoissonDuesRate(t *testing.T) {
	seq := 0.0
	next := func() float64 { // a deterministic stand-in for uniform draws
		seq = math.Mod(seq+0.6180339887, 1)
		return seq
	}
	dues := poissonDues(next, 500, time.Second, 5*time.Second)
	if n := len(dues); n < 1800 || n > 2200 {
		t.Fatalf("%d arrivals over 4 s at 500/s", n)
	}
	for i, d := range dues {
		if d < time.Second || d >= 5*time.Second || i > 0 && d < dues[i-1] {
			t.Fatalf("arrival %d at %v is out of order or outside the step", i, d)
		}
	}
}
