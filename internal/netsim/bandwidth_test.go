package netsim

import (
	"math"
	"testing"
	"time"

	"videodvfs/internal/sim"
)

func TestConstantRate(t *testing.T) {
	bw := Constant{Bps: 5e6}
	rate, until := bw.Rate(3 * sim.Second)
	if rate != 5e6 || until != sim.Forever {
		t.Fatalf("rate=%v until=%v", rate, until)
	}
}

func TestStepsRateLookup(t *testing.T) {
	s := Steps{Trace: []Step{
		{Start: 0, Bps: 1e6},
		{Start: 10 * sim.Second, Bps: 2e6},
		{Start: 20 * sim.Second, Bps: 0},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		at        sim.Time
		wantRate  float64
		wantUntil sim.Time
	}{
		{0, 1e6, 10 * sim.Second},
		{5 * sim.Second, 1e6, 10 * sim.Second},
		{10 * sim.Second, 2e6, 20 * sim.Second},
		{25 * sim.Second, 0, sim.Forever},
	}
	for _, c := range cases {
		rate, until := s.Rate(c.at)
		if rate != c.wantRate || until != c.wantUntil {
			t.Errorf("Rate(%v) = (%v, %v), want (%v, %v)", c.at, rate, until, c.wantRate, c.wantUntil)
		}
	}
}

func TestStepsCycleRepeats(t *testing.T) {
	s := Steps{
		Trace: []Step{{Start: 0, Bps: 1e6}, {Start: 5 * sim.Second, Bps: 3e6}},
		Cycle: 10 * sim.Second,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	rate, until := s.Rate(12 * sim.Second)
	if rate != 1e6 || until != 15*sim.Second {
		t.Fatalf("cycled Rate(12s) = (%v, %v), want (1e6, 15s)", rate, until)
	}
	rate, until = s.Rate(17 * sim.Second)
	if rate != 3e6 || until != 20*sim.Second {
		t.Fatalf("cycled Rate(17s) = (%v, %v), want (3e6, 20s)", rate, until)
	}
}

func TestStepsValidation(t *testing.T) {
	bad := []Steps{
		{},
		{Trace: []Step{{Start: 0, Bps: -1}}},
		{Trace: []Step{{Start: 5 * sim.Second, Bps: 1}, {Start: 5 * sim.Second, Bps: 2}}},
		{Trace: []Step{{Start: 0, Bps: 1}}, Cycle: -sim.Second},
		{Trace: []Step{{Start: 0, Bps: 1}, {Start: 10 * sim.Second, Bps: 2}}, Cycle: 10 * sim.Second},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

func TestGenMarkovTraceDeterministic(t *testing.T) {
	a, err := GenMarkovTrace(LTEStates(), 60*sim.Second, sim.Stream(5, "bw"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenMarkovTrace(LTEStates(), 60*sim.Second, sim.Stream(5, "bw"))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatal("lengths differ")
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("step %d differs", i)
		}
	}
}

func TestGenMarkovTraceCoversDuration(t *testing.T) {
	tr, err := GenMarkovTrace(UMTSStates(), 120*sim.Second, sim.Stream(7, "bw"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	last := tr.Trace[len(tr.Trace)-1]
	if last.Start < 120*sim.Second-30*sim.Second {
		t.Fatalf("trace ends early at %v", last.Start)
	}
}

func TestGenMarkovTraceMeanRatePlausible(t *testing.T) {
	tr, err := GenMarkovTrace(LTEStates(), 600*sim.Second, sim.Stream(11, "bw"))
	if err != nil {
		t.Fatal(err)
	}
	// Time-weighted mean over the trace.
	var weighted, span float64
	for i, st := range tr.Trace {
		end := 600.0
		if i+1 < len(tr.Trace) {
			end = tr.Trace[i+1].Start.Seconds()
		}
		d := end - st.Start.Seconds()
		if d < 0 {
			d = 0
		}
		weighted += st.Bps * d
		span += d
	}
	mean := weighted / span
	if mean < 5e6 || mean > 25e6 {
		t.Fatalf("LTE mean rate %.1f Mbps outside plausible band", mean/1e6)
	}
}

func TestGenMarkovTraceErrors(t *testing.T) {
	if _, err := GenMarkovTrace(nil, sim.Second, sim.Stream(1, "x")); err == nil {
		t.Fatal("want error for no states")
	}
	bad := []MarkovState{{Name: "x", MeanBps: 1, MeanHold: 0}}
	if _, err := GenMarkovTrace(bad, sim.Second, sim.Stream(1, "x")); err == nil {
		t.Fatal("want error for zero hold")
	}
	mismatched := []MarkovState{{Name: "x", MeanBps: 1, MeanHold: sim.Second, Next: []float64{1, 2}}}
	if _, err := GenMarkovTrace(mismatched, sim.Second, sim.Stream(1, "x")); err == nil {
		t.Fatal("want error for weight arity mismatch")
	}
}

// A non-finite duration passed GenMarkovTrace: NaN and zero produced an
// empty trace, and +Inf looped forever, as a huge finite one did until
// memory ran out. Each case runs under a deadline so a hang fails the
// test instead of stalling the suite.
func TestGenMarkovTraceRejectsNonFiniteDuration(t *testing.T) {
	for _, dur := range []sim.Time{sim.Time(math.NaN()), sim.Time(math.Inf(1)), 0, -sim.Second, MaxTraceDuration + sim.Second} {
		done := make(chan error, 1)
		go func() {
			_, err := GenMarkovTrace(LTEStates(), dur, sim.Stream(1, "bw"))
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("duration %v: want an error", float64(dur))
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("duration %v: still running after 2s", float64(dur))
		}
	}
}

func TestWiFiSteady(t *testing.T) {
	rate, _ := WiFiSteady().Rate(0)
	if rate != 30e6 {
		t.Fatalf("wifi rate = %v", rate)
	}
}

func TestErlangBKnownValues(t *testing.T) {
	// B(rho=1, n=1) = 1/2; B(rho=2, n=2) = 0.4.
	if got := ErlangB(1, 1); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("ErlangB(1,1) = %v", got)
	}
	if got := ErlangB(2, 2); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("ErlangB(2,2) = %v", got)
	}
	if got := ErlangB(0, 5); got != 0 {
		t.Fatalf("ErlangB(0,5) = %v, want 0", got)
	}
	if got := ErlangB(5, 0); got != 1 {
		t.Fatalf("ErlangB(5,0) = %v, want 1", got)
	}
}

func TestErlangBMonotonicInServers(t *testing.T) {
	prev := 1.0
	for n := 1; n <= 20; n++ {
		b := ErlangB(10, n)
		if b > prev {
			t.Fatalf("blocking increased with more servers at n=%d", n)
		}
		prev = b
	}
}

func TestCapacityUsersShorterHoldMoreUsers(t *testing.T) {
	// 1 session per user per minute; 64 channel pairs; 2% blocking.
	long, err := CapacityUsers(1.0/60, 30, 64, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	short, err := CapacityUsers(1.0/60, 12, 64, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if short <= long {
		t.Fatalf("shorter hold should raise capacity: %d vs %d", short, long)
	}
	gain := float64(short-long) / float64(long)
	if gain < 0.5 {
		t.Fatalf("capacity gain %.2f implausibly small for 2.5× shorter hold", gain)
	}
}

func TestCapacityUsersErrors(t *testing.T) {
	cases := []struct {
		rate, hold float64
		n          int
		beta       float64
	}{
		{0, 30, 64, 0.02},
		{1, 0, 64, 0.02},
		{1, 30, 0, 0.02},
		{1, 30, 64, 0},
		{1, 30, 64, 1},
	}
	for i, c := range cases {
		if _, err := CapacityUsers(c.rate, c.hold, c.n, c.beta); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

// TestStepsCycleBoundaryProperty pins the cycle-boundary contract of
// Steps.Rate: the rate is exactly periodic (Rate(t) == Rate(t+Cycle)), the
// returned horizon strictly advances past the query time, and walking the
// trace horizon-to-horizon visits the pieces in order without ever holding
// a stale rate at an exact boundary. Dense sampling hugs each boundary
// from both sides, including float-adjacent offsets, and a large time
// offset exercises the floor-based cycle indexing where the old int
// truncation was unchecked.
func TestStepsCycleBoundaryProperty(t *testing.T) {
	s := Steps{
		Trace: []Step{
			{Start: 0, Bps: 4e6},
			{Start: 3 * sim.Second, Bps: 1e6},
			{Start: 7 * sim.Second, Bps: 9e6},
		},
		Cycle: 10 * sim.Second,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Dense boundary sampling: every piece boundary of the first cycles,
	// approached from below, hit exactly, and left from above — at small
	// and float-adjacent offsets — plus far-future instants.
	var samples []sim.Time
	boundaries := []sim.Time{0, 3 * sim.Second, 7 * sim.Second, 10 * sim.Second}
	for cycle := 0; cycle < 4; cycle++ {
		base := sim.Time(cycle) * s.Cycle
		for _, b := range boundaries {
			at := base + b
			samples = append(samples, at,
				at+sim.Microsecond, at-sim.Microsecond,
				sim.Time(math.Nextafter(float64(at), math.Inf(1))),
				sim.Time(math.Nextafter(float64(at), math.Inf(-1))),
			)
		}
	}
	samples = append(samples, 1e6*sim.Second, 1e6*sim.Second+3*sim.Second,
		sim.Time(math.Nextafter(1e7, math.Inf(-1))))
	for _, at := range samples {
		if at < 0 {
			continue
		}
		rate, until := s.Rate(at)
		if until <= at {
			t.Fatalf("Rate(%.17g): until %.17g does not advance", float64(at), float64(until))
		}
		if (at+s.Cycle)-s.Cycle != at {
			continue // the +Cycle shift itself rounded: phase changed
		}
		rate2, until2 := s.Rate(at + s.Cycle)
		if rate2 != rate {
			t.Fatalf("Rate(%.17g) = %v but Rate(+Cycle) = %v: not periodic", float64(at), rate, rate2)
		}
		if until2 <= at+s.Cycle {
			t.Fatalf("Rate(%.17g+Cycle): until %.17g does not advance", float64(at), float64(until2))
		}
	}
	// Horizon walk: stepping t = until must advance strictly and visit the
	// piece rates in cyclic order — at an exact boundary the *next* piece's
	// rate must be reported, never the previous one held for a microsecond.
	want := []float64{4e6, 1e6, 9e6}
	at := sim.Time(0)
	for i := 0; i < 30; i++ {
		rate, until := s.Rate(at)
		if w := want[i%3]; rate != w {
			t.Fatalf("walk step %d at %v: rate %v, want %v", i, at, rate, w)
		}
		if until <= at {
			t.Fatalf("walk step %d at %v: until %v does not advance", i, at, until)
		}
		at = until
	}
}

// TestStepsRateExactCycleBoundary is the regression for the stale
// microsecond hold: at now == k*Cycle the old code could return the last
// piece's rate (from the previous cycle) with until = now + 1µs.
func TestStepsRateExactCycleBoundary(t *testing.T) {
	s := Steps{
		Trace: []Step{{Start: 0, Bps: 8e6}, {Start: 6 * sim.Second, Bps: 2e6}},
		Cycle: 10 * sim.Second,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for k := 1; k < 5; k++ {
		at := sim.Time(k) * s.Cycle
		rate, until := s.Rate(at)
		if rate != 8e6 {
			t.Fatalf("Rate(%d*Cycle) = %v, want the first piece's 8e6", k, rate)
		}
		if want := at + 6*sim.Second; until != want {
			t.Fatalf("Rate(%d*Cycle) until = %v, want %v", k, until, want)
		}
	}
}
