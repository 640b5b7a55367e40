package sim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	eng := NewEngine()
	var order []int
	eng.Schedule(3*Second, func() { order = append(order, 3) })
	eng.Schedule(1*Second, func() { order = append(order, 1) })
	eng.Schedule(2*Second, func() { order = append(order, 2) })
	end := eng.Run()
	if end != 3*Second {
		t.Fatalf("end time = %v, want 3s", end)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineFIFOAmongEqualTimestamps(t *testing.T) {
	eng := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		eng.Schedule(Second, func() { order = append(order, i) })
	}
	eng.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("equal-time events not FIFO: %v", order)
		}
	}
}

func TestEngineNowAdvancesInsideCallbacks(t *testing.T) {
	eng := NewEngine()
	var at Time
	eng.Schedule(5*Second, func() { at = eng.Now() })
	eng.Run()
	if at != 5*Second {
		t.Fatalf("Now inside callback = %v, want 5s", at)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	eng := NewEngine()
	var hits []Time
	eng.Schedule(Second, func() {
		hits = append(hits, eng.Now())
		eng.Schedule(Second, func() { hits = append(hits, eng.Now()) })
	})
	eng.Run()
	if len(hits) != 2 || hits[0] != Second || hits[1] != 2*Second {
		t.Fatalf("hits = %v, want [1s 2s]", hits)
	}
}

func TestEngineNegativeDelayClampsToNow(t *testing.T) {
	eng := NewEngine()
	ran := false
	eng.Schedule(Second, func() {
		eng.Schedule(-5*Second, func() {
			ran = true
			if eng.Now() != Second {
				t.Errorf("clamped event at %v, want 1s", eng.Now())
			}
		})
	})
	eng.Run()
	if !ran {
		t.Fatal("clamped event did not run")
	}
}

func TestEngineCancel(t *testing.T) {
	eng := NewEngine()
	ran := false
	ev := eng.Schedule(Second, func() { ran = true })
	if !eng.Scheduled(ev) {
		t.Fatal("Scheduled() = false for a pending event")
	}
	eng.Cancel(ev)
	eng.Cancel(ev) // double cancel is a no-op
	eng.Run()
	if ran {
		t.Fatal("canceled event ran")
	}
	if eng.Scheduled(ev) {
		t.Fatal("Scheduled() = true after Cancel")
	}
}

// A handle retained past its firing must never cancel the recycled slot's
// new occupant: the generation check makes stale cancels no-ops.
func TestEngineStaleHandleCancelIsHarmless(t *testing.T) {
	eng := NewEngine()
	first := eng.Schedule(Second, func() {})
	eng.Run()
	// The slot behind `first` is now free; the next schedule reuses it.
	ran := false
	second := eng.Schedule(Second, func() { ran = true })
	if second.idx != first.idx {
		t.Fatalf("slot not reused: first idx %d, second idx %d", first.idx, second.idx)
	}
	eng.Cancel(first) // stale: must not touch the new event
	eng.Run()
	if !ran {
		t.Fatal("stale Cancel killed a recycled slot's new event")
	}
}

// The free list must keep the slab bounded: a schedule/fire cycle reuses
// slots instead of growing the slab.
func TestEngineSlotPoolingBoundsSlab(t *testing.T) {
	eng := NewEngine()
	for i := 0; i < 1000; i++ {
		eng.Schedule(Millisecond, func() {})
		eng.Run()
	}
	if n := len(eng.slots); n != 1 {
		t.Fatalf("slab grew to %d slots for serial schedule/fire cycles, want 1", n)
	}
}

// Steady-state schedule/fire through a warm engine must not allocate, in
// heap mode (64 pending) and in the calendar (256 pending, some due past
// the ring).
func TestEngineScheduleFireAllocFree(t *testing.T) {
	for _, n := range []int{crowdAt, 4 * crowdAt} {
		eng := NewEngine()
		fn := func() {}
		cycle := func() {
			for i := 0; i < n; i++ {
				eng.Schedule(Time(i)*Millisecond, fn)
			}
			if eng.crowded != (n > crowdAt) {
				t.Fatalf("%d pending: crowded = %v", n, eng.crowded)
			}
			eng.Run()
		}
		cycle() // warm-up: size the slab, heaps and calendar
		if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
			t.Fatalf("schedule/fire cycle of %d events allocates %.1f objects, want 0", n, avg)
		}
	}
}

func TestEngineCancelFromInsideEarlierEvent(t *testing.T) {
	eng := NewEngine()
	ran := false
	victim := eng.Schedule(2*Second, func() { ran = true })
	eng.Schedule(Second, func() { eng.Cancel(victim) })
	eng.Run()
	if ran {
		t.Fatal("event canceled mid-run still ran")
	}
}

func TestEngineRunUntilHorizon(t *testing.T) {
	eng := NewEngine()
	var ran []int
	eng.Schedule(Second, func() { ran = append(ran, 1) })
	eng.Schedule(10*Second, func() { ran = append(ran, 10) })
	end := eng.RunUntil(5 * Second)
	if end != 5*Second {
		t.Fatalf("RunUntil = %v, want 5s", end)
	}
	if len(ran) != 1 || ran[0] != 1 {
		t.Fatalf("ran = %v, want [1]", ran)
	}
	// Resume: the 10 s event should still be pending.
	end = eng.Run()
	if end != 10*Second || len(ran) != 2 {
		t.Fatalf("resume: end=%v ran=%v", end, ran)
	}
}

func TestEngineStop(t *testing.T) {
	eng := NewEngine()
	count := 0
	for i := 1; i <= 5; i++ {
		eng.Schedule(Time(i)*Second, func() {
			count++
			if count == 2 {
				eng.Stop()
			}
		})
	}
	eng.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2 (Stop should halt the loop)", count)
	}
	if eng.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", eng.Pending())
	}
}

// A callback that panics leaves its spent root entry behind; the engine
// must neither count it as pending nor fire anything twice when Run is
// called again after the panic is recovered — in heap mode, and crowded
// into its calendar by filler events due later.
func TestEngineRunAfterRecoveredPanic(t *testing.T) {
	for _, filler := range []int{0, crowdAt} {
		eng := NewEngine()
		var fired []int
		eng.Schedule(Millisecond, func() { fired = append(fired, 1); panic("model bug") })
		eng.Schedule(2*Millisecond, func() { fired = append(fired, 2) })
		for i := 0; i < filler; i++ {
			eng.Schedule(3*Millisecond, func() {})
		}
		if eng.crowded != (filler > 0) {
			t.Fatalf("%d filler events: crowded = %v", filler, eng.crowded)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("callback panic did not propagate")
				}
			}()
			eng.Run()
		}()
		if eng.Pending() != 1+filler {
			t.Fatalf("pending after recovered panic = %d, want %d", eng.Pending(), 1+filler)
		}
		eng.Run()
		if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 || eng.Pending() != 0 {
			t.Fatalf("%d filler events: fired %v, pending %d; want [1 2] and 0", filler, fired, eng.Pending())
		}
	}
}

func TestEngineExecutedCounter(t *testing.T) {
	eng := NewEngine()
	for i := 0; i < 7; i++ {
		eng.Schedule(Second, func() {})
	}
	eng.Run()
	if eng.Executed() != 7 {
		t.Fatalf("Executed = %d, want 7", eng.Executed())
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	eng := NewEngine()
	var ticks []Time
	tk := NewTicker(eng, 100*Millisecond, func(now Time) {
		ticks = append(ticks, now)
		if len(ticks) == 5 {
			eng.Stop()
		}
	})
	defer tk.Stop()
	eng.Run()
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5", len(ticks))
	}
	for i, tt := range ticks {
		want := Time(i+1) * 100 * Millisecond
		if math.Abs(float64(tt-want)) > 1e-12 {
			t.Fatalf("tick %d at %v, want %v", i, tt, want)
		}
	}
}

func TestTickerStopPreventsFurtherTicks(t *testing.T) {
	eng := NewEngine()
	count := 0
	var tk *Ticker
	tk = NewTicker(eng, Second, func(now Time) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	eng.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

// Regression: a tick callback that stops its ticker and immediately arms a
// replacement must see the replacement fire exactly once per period. The
// pooled-event engine reuses the delivered event's slot for the new
// ticker's first tick, so a Stop that canceled the already-delivered event
// would silently kill (or, pre-generation-checking, double-fire) the
// replacement.
func TestTickerStopWithinCallbackThenRearmFiresExactlyOnce(t *testing.T) {
	eng := NewEngine()
	var fires []Time
	var old *Ticker
	old = NewTicker(eng, Second, func(now Time) {
		old.Stop()
		NewTicker(eng, Second, func(now Time) {
			fires = append(fires, now)
			eng.Stop()
		})
	})
	eng.Run()
	if len(fires) != 1 || fires[0] != 2*Second {
		t.Fatalf("replacement ticks = %v, want exactly [2s]", fires)
	}
}

// Stop called from inside the tick callback must not cancel the event that
// delivered the very tick being processed (it already fired): scheduling
// an unrelated event right after Stop must be unaffected.
func TestTickerStopInsideCallbackLeavesOtherEventsAlone(t *testing.T) {
	eng := NewEngine()
	ran := false
	var tk *Ticker
	tk = NewTicker(eng, Second, func(now Time) {
		tk.Stop()
		// This reuses the freed slot of the tick that is executing.
		eng.Schedule(Second, func() { ran = true })
	})
	eng.Run()
	if !ran {
		t.Fatal("event scheduled after in-callback Stop never ran")
	}
}

// Canceling an event parked in the middle of the heap must preserve the
// order of the remaining events.
func TestEngineCancelMidHeapKeepsOrder(t *testing.T) {
	eng := NewEngine()
	var order []int
	evs := make([]Event, 10)
	for i := 0; i < 10; i++ {
		i := i
		evs[i] = eng.Schedule(Time(10-i)*Second, func() { order = append(order, i) })
	}
	eng.Cancel(evs[3]) // fires at 7s, sits mid-heap
	eng.Cancel(evs[8]) // fires at 2s
	eng.Run()
	want := []int{9, 7, 6, 5, 4, 2, 1, 0}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTimeoutResetPushesExpiry(t *testing.T) {
	eng := NewEngine()
	var fired Time
	to := NewTimeout(eng, 4*Second, func(now Time) { fired = now })
	to.Reset()
	// Activity at t=2s resets the tail timer; expiry moves to t=6s.
	eng.Schedule(2*Second, func() { to.Reset() })
	eng.Run()
	if fired != 6*Second {
		t.Fatalf("timeout fired at %v, want 6s", fired)
	}
}

func TestTimeoutStopDisarms(t *testing.T) {
	eng := NewEngine()
	fired := false
	to := NewTimeout(eng, Second, func(now Time) { fired = true })
	to.Reset()
	to.Stop()
	eng.Run()
	if fired {
		t.Fatal("stopped timeout fired")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := Stream(42, "decoder")
	b := Stream(42, "decoder")
	for i := 0; i < 100; i++ {
		if a.Uniform(0, 1) != b.Uniform(0, 1) {
			t.Fatal("same (seed,name) streams diverged")
		}
	}
}

func TestRNGStreamsIndependentByName(t *testing.T) {
	a := Stream(42, "decoder")
	b := Stream(42, "network")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uniform(0, 1) == b.Uniform(0, 1) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different names look identical (%d/100 equal)", same)
	}
}

func TestRNGLognormalMeanCVMatchesMoments(t *testing.T) {
	g := Stream(7, "lognormal")
	const n = 200000
	mean, cv := 5.0, 0.4
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := g.LognormalMeanCV(mean, cv)
		if x <= 0 {
			t.Fatal("lognormal draw not positive")
		}
		sum += x
		sumsq += x * x
	}
	m := sum / n
	v := sumsq/n - m*m
	if math.Abs(m-mean) > 0.05*mean {
		t.Fatalf("sample mean %.3f, want ≈ %.3f", m, mean)
	}
	wantSD := cv * mean
	if math.Abs(math.Sqrt(v)-wantSD) > 0.1*wantSD {
		t.Fatalf("sample sd %.3f, want ≈ %.3f", math.Sqrt(v), wantSD)
	}
}

func TestRNGLognormalDegenerateCases(t *testing.T) {
	g := Stream(7, "deg")
	if got := g.LognormalMeanCV(0, 0.5); got != 0 {
		t.Fatalf("mean 0 should return 0, got %v", got)
	}
	if got := g.LognormalMeanCV(3, 0); got != 3 {
		t.Fatalf("cv 0 should return the mean, got %v", got)
	}
}

func TestRNGUniformBounds(t *testing.T) {
	g := Stream(1, "uniform")
	f := func(loRaw, span uint16) bool {
		lo := float64(loRaw)
		hi := lo + float64(span) + 1
		x := g.Uniform(lo, hi)
		return x >= lo && x < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGPickRespectsWeights(t *testing.T) {
	g := Stream(9, "pick")
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[g.Pick([]float64{1, 2, 7})]++
	}
	if !(counts[2] > counts[1] && counts[1] > counts[0]) {
		t.Fatalf("weighted pick ordering wrong: %v", counts)
	}
	if got := g.Pick([]float64{0, 0, 0}); got != 0 {
		t.Fatalf("all-zero weights should return 0, got %d", got)
	}
}

func TestTimeHelpers(t *testing.T) {
	tt := 1500 * Millisecond
	if tt.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v", tt.Seconds())
	}
	if tt.String() != "1.500s" {
		t.Fatalf("String = %q", tt.String())
	}
}

// Property: for any batch of events with arbitrary delays, the engine runs
// them in nondecreasing time order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		eng := NewEngine()
		var seen []Time
		for _, d := range delays {
			eng.Schedule(Time(d)*Millisecond, func() { seen = append(seen, eng.Now()) })
		}
		eng.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPickTreatsNonFiniteWeightsAsZero pins the hardened weighted pick: a
// NaN or Inf weight used to poison the running total (NaN total fails
// every comparison, Inf never decrements below zero), making Pick
// silently return the last index regardless of the other weights.
func TestPickTreatsNonFiniteWeightsAsZero(t *testing.T) {
	g := Stream(1, "pick")
	weights := []float64{1, math.NaN(), 0, math.Inf(1)}
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		idx := g.Pick(weights)
		seen[idx] = true
		if idx != 0 {
			t.Fatalf("Pick chose index %d; only index 0 carries usable weight", idx)
		}
	}
	if !seen[0] {
		t.Fatal("index 0 never chosen")
	}
	// All weights unusable → the documented all-zero fallback.
	if idx := g.Pick([]float64{math.NaN(), math.Inf(1)}); idx != 0 {
		t.Fatalf("all-non-finite Pick = %d, want 0", idx)
	}
}

// TestScheduleRejectsNonFinite pins the non-finite guard on the event
// heap: NaN slips past the t < now clamp (every NaN comparison is false)
// and poisons every heap comparison, while ±Inf enters as an event
// that can never fire and turns later time arithmetic into Inf/NaN — so
// the engine refuses both loudly, naming the call site.
func TestScheduleRejectsNonFinite(t *testing.T) {
	for _, bad := range []struct {
		name string
		t    Time
	}{
		{"NaN", Time(math.NaN())},
		{"+Inf", Time(math.Inf(1))},
		{"-Inf", Time(math.Inf(-1))},
	} {
		for _, call := range []struct {
			name string
			do   func(e *Engine, t Time)
		}{
			{"At", func(e *Engine, t Time) { e.At(t, func() {}) }},
			{"Schedule", func(e *Engine, t Time) { e.Schedule(t, func() {}) }},
		} {
			t.Run(call.name+"/"+bad.name, func(t *testing.T) {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("%s time accepted", bad.name)
					}
					msg, ok := r.(string)
					if !ok || !strings.Contains(msg, "sim_test.go") {
						t.Fatalf("panic %v does not name the schedule site", r)
					}
				}()
				call.do(NewEngine(), bad.t)
			})
		}
	}
}
