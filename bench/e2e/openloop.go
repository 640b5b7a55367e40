package main

import (
	"math"
	"time"
)

// clock is the open-loop generator's time source; tests substitute a fake
// one to check lateness and backlog accounting without sleeping.
type clock interface {
	// now is the time since the schedule started.
	now() time.Duration
	// sleepUntil blocks until now() ≥ t.
	sleepUntil(t time.Duration)
}

type wallClock struct {
	t0 time.Time
	s  *sleeper
}

func (c wallClock) now() time.Duration { return time.Since(c.t0) }

func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		if err := c.s.sleep(d); err != nil {
			time.Sleep(t - c.now()) // the timer failed: use the coarser Go timer
		}
	}
}

// timing is one open-loop request's life on the schedule's timeline.
type timing struct {
	due, sent, done time.Duration
	ok              bool
}

// fromDue is the request's latency counted from when it was due, which
// charges a stalled generator's delay to every request it held back.
func (t timing) fromDue() time.Duration { return t.done - t.due }

// late is how far behind schedule the generator issued the request.
func (t timing) late() time.Duration { return t.sent - t.due }

// issueOpenLoop issues request i at dues[i] regardless of how earlier
// requests fare: send runs on its own goroutine and must record the
// request's timing and return when it completes. issueOpenLoop returns
// once every request has been issued; the caller waits for completion.
func issueOpenLoop(clk clock, dues []time.Duration, send func(i int, sent time.Duration)) {
	for i, due := range dues {
		clk.sleepUntil(due)
		go send(i, clk.now())
	}
}

// poissonDues draws arrival times at rate per second over [start, end).
func poissonDues(next func() float64, rate float64, start, end time.Duration) []time.Duration {
	var out []time.Duration
	t := start
	for {
		t += time.Duration(-math.Log(1-next()) / rate * float64(time.Second))
		if t >= end {
			return out
		}
		out = append(out, t)
	}
}

// stepLimits are the service-level limits a rate step must meet.
type stepLimits struct {
	// p99FromDue bounds the 99th-percentile latency from the due time.
	p99FromDue time.Duration
	// lateP99 bounds the generator's 99th-percentile lateness.
	lateP99 time.Duration
}

// stepStats summarizes one fixed-rate step of an open-loop schedule.
type stepStats struct {
	rate     float64
	n        int
	failed   int
	p50, p99 float64 // ms from due; failed requests count as infinitely late
	// lateP50 and lateP99 are the generator's lateness in ms.
	lateP50, lateP99 float64
	// backlogMid and backlogEnd are the requests due but not done at the
	// step's midpoint and end.
	backlogMid, backlogEnd int
	growing                bool
	meets                  bool
}

// accountStep summarizes the requests due in [start, end). A request that
// failed counts as missing every latency limit. The backlog is growing
// when more requests are outstanding at the step's end than at its
// midpoint, by more than 5% of the requests due in its second half (and
// at least two): a queue the service drains keeps level, one it cannot
// drain climbs with the arrivals.
func accountStep(ts []timing, rate float64, start, end time.Duration, lim stepLimits) stepStats {
	st := stepStats{rate: rate}
	mid := start + (end-start)/2
	var lat, late []float64
	secondHalf := 0
	for _, t := range ts {
		if t.due < start || t.due >= end {
			continue
		}
		st.n++
		if t.due >= mid {
			secondHalf++
		}
		l := math.Inf(1)
		if t.ok {
			l = ms(t.fromDue())
		} else {
			st.failed++
		}
		lat = append(lat, l)
		late = append(late, ms(t.late()))
		if t.due < mid && (!t.ok || t.done > mid) {
			st.backlogMid++
		}
		if !t.ok || t.done > end {
			st.backlogEnd++
		}
	}
	if st.n == 0 {
		return st
	}
	st.p50 = quantile(lat, 0.5)
	st.p99 = quantile(lat, 0.99)
	st.lateP50 = quantile(late, 0.5)
	st.lateP99 = quantile(late, 0.99)
	tol := max(2, int(math.Ceil(0.05*float64(secondHalf))))
	st.growing = st.backlogEnd > st.backlogMid+tol
	st.meets = st.p99 <= ms(lim.p99FromDue) && st.lateP99 <= ms(lim.lateP99) && !st.growing
	return st
}

// maxRate is the highest step rate that meets its limits (0 if none does).
func maxRate(steps []stepStats) float64 {
	best := 0.0
	for _, s := range steps {
		if s.meets && s.rate > best {
			best = s.rate
		}
	}
	return best
}
