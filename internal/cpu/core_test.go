package cpu

import (
	"math"
	"testing"
	"testing/quick"

	"videodvfs/internal/sim"
)

// testModel is a two-OPP model with trivial arithmetic: 1 GHz and 2 GHz,
// no transition latency unless a test sets one.
func testModel(latency sim.Time) Model {
	return Model{
		Name: "test",
		OPPs: []OPP{
			{FreqHz: 1e9, VoltageV: 0.8, ActiveW: 1.0, IdleW: 0.1},
			{FreqHz: 2e9, VoltageV: 1.0, ActiveW: 3.0, IdleW: 0.2},
		},
		TransitionLatency: latency,
	}
}

func newTestCore(t *testing.T, latency sim.Time) (*sim.Engine, *Core) {
	t.Helper()
	eng := sim.NewEngine()
	core, err := NewCore(eng, testModel(latency))
	if err != nil {
		t.Fatal(err)
	}
	return eng, core
}

func TestJobCompletionTime(t *testing.T) {
	eng, core := newTestCore(t, 0)
	var done sim.Time
	if err := core.Submit(Job{Cycles: 5e8, OnDone: func(now sim.Time) { done = now }}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if math.Abs(float64(done-500*sim.Millisecond)) > 1e-12 {
		t.Fatalf("5e8 cycles at 1 GHz finished at %v, want 0.5s", done)
	}
}

func TestJobsRunFIFOWithinPriority(t *testing.T) {
	eng, core := newTestCore(t, 0)
	var order []string
	mk := func(name string) Job {
		return Job{Cycles: 1e6, Priority: PrioDecode,
			OnDone: func(sim.Time) { order = append(order, name) }}
	}
	for _, n := range []string{"a", "b", "c"} {
		if err := core.Submit(mk(n)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
}

func TestPriorityOrdering(t *testing.T) {
	eng, core := newTestCore(t, 0)
	var order []string
	// Submit a running job first so the queue builds up behind it.
	if err := core.Submit(Job{Cycles: 1e6, Priority: PrioDecode,
		OnDone: func(sim.Time) { order = append(order, "head") }}); err != nil {
		t.Fatal(err)
	}
	if err := core.Submit(Job{Cycles: 1e6, Priority: PrioBackground,
		OnDone: func(sim.Time) { order = append(order, "bg") }}); err != nil {
		t.Fatal(err)
	}
	if err := core.Submit(Job{Cycles: 1e6, Priority: PrioDecode,
		OnDone: func(sim.Time) { order = append(order, "dec") }}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	want := []string{"head", "dec", "bg"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestZeroCycleJobCompletesInline(t *testing.T) {
	eng, core := newTestCore(t, 0)
	ran := false
	if err := core.Submit(Job{Cycles: 0, OnDone: func(sim.Time) { ran = true }}); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("zero-cycle job should complete synchronously")
	}
	eng.Run()
}

func TestSubmitErrors(t *testing.T) {
	_, core := newTestCore(t, 0)
	for _, p := range []Priority{-1, PrioBackground + 1, 99} {
		if err := core.Submit(Job{Cycles: 1, Priority: p}); err == nil {
			t.Fatalf("want error for invalid priority %d", p)
		}
	}
	if core.QueueLen() != 0 || core.Busy() {
		t.Fatal("a rejected job must not be queued")
	}
}

func TestFrequencyChangeMidJob(t *testing.T) {
	eng, core := newTestCore(t, 0)
	var done sim.Time
	if err := core.Submit(Job{Cycles: 2e9, OnDone: func(now sim.Time) { done = now }}); err != nil {
		t.Fatal(err)
	}
	// At t=0.5 s, 0.5e9 of 2e9 cycles retired at 1 GHz; the remaining
	// 1.5e9 at 2 GHz takes 0.75 s → completion at 1.25 s.
	eng.Schedule(500*sim.Millisecond, func() { core.SetOPP(1) })
	eng.Run()
	if math.Abs(float64(done-1250*sim.Millisecond)) > 1e-9 {
		t.Fatalf("completion at %v, want 1.25s", done)
	}
}

func TestFrequencyChangeWithTransitionStall(t *testing.T) {
	eng, core := newTestCore(t, 10*sim.Millisecond)
	var done sim.Time
	if err := core.Submit(Job{Cycles: 2e9, OnDone: func(now sim.Time) { done = now }}); err != nil {
		t.Fatal(err)
	}
	eng.Schedule(500*sim.Millisecond, func() { core.SetOPP(1) })
	eng.Run()
	want := 1260 * sim.Millisecond // 1.25 s + 10 ms stall
	if math.Abs(float64(done-want)) > 1e-9 {
		t.Fatalf("completion at %v, want %v", done, want)
	}
}

func TestSetOPPClampsAndIgnoresNoop(t *testing.T) {
	eng, core := newTestCore(t, 0)
	changes := 0
	core.OnOPPChange(func(sim.Time, int) { changes++ })
	core.SetOPP(-5)
	if core.OPP() != 0 {
		t.Fatalf("OPP = %d after clamp-low", core.OPP())
	}
	core.SetOPP(99)
	if core.OPP() != 1 {
		t.Fatalf("OPP = %d after clamp-high", core.OPP())
	}
	core.SetOPP(1) // no-op
	if changes != 1 {
		t.Fatalf("OPP change callbacks = %d, want 1 (no-op suppressed)", changes)
	}
	eng.Run()
}

func TestBusyTimeAccounting(t *testing.T) {
	eng, core := newTestCore(t, 0)
	if err := core.Submit(Job{Cycles: 3e8}); err != nil { // 0.3 s at 1 GHz
		t.Fatal(err)
	}
	eng.Schedule(150*sim.Millisecond, func() {
		if b := core.BusyTime(); math.Abs(float64(b-150*sim.Millisecond)) > 1e-12 {
			t.Errorf("mid-job BusyTime = %v, want 150ms", b)
		}
		if !core.Busy() {
			t.Error("core should be busy mid-job")
		}
	})
	eng.Run()
	if b := core.BusyTime(); math.Abs(float64(b-300*sim.Millisecond)) > 1e-12 {
		t.Fatalf("final BusyTime = %v, want 300ms", b)
	}
	if core.Busy() {
		t.Fatal("core should be idle after completion")
	}
}

func TestUtilSamplerWindow(t *testing.T) {
	eng, core := newTestCore(t, 0)
	s := NewUtilSampler(core)
	if err := core.Submit(Job{Cycles: 5e8}); err != nil { // busy 0–0.5 s
		t.Fatal(err)
	}
	var u1, u2 float64
	eng.Schedule(sim.Second, func() { u1 = s.Sample(eng.Now()) })
	eng.Schedule(2*sim.Second, func() { u2 = s.Sample(eng.Now()) })
	eng.Run()
	if math.Abs(u1-0.5) > 1e-9 {
		t.Fatalf("first window util = %v, want 0.5", u1)
	}
	if u2 != 0 {
		t.Fatalf("second window util = %v, want 0", u2)
	}
}

func TestPowerCallbackSequence(t *testing.T) {
	eng, core := newTestCore(t, 0)
	type sample struct {
		at sim.Time
		w  float64
	}
	var trace []sample
	core.OnPower(func(now sim.Time, w float64) { trace = append(trace, sample{now, w}) })
	if err := core.Submit(Job{Cycles: 1e9}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Expect: initial idle (0.1 W), busy at t=0 (1.0 W), idle at t=1 (0.1 W).
	if len(trace) != 3 {
		t.Fatalf("power trace = %v", trace)
	}
	if trace[0].w != 0.1 || trace[1].w != 1.0 || trace[2].w != 0.1 {
		t.Fatalf("power levels = %v", trace)
	}
	if trace[2].at != sim.Second {
		t.Fatalf("idle transition at %v, want 1s", trace[2].at)
	}
}

func TestFreqResidencySumsToElapsed(t *testing.T) {
	eng, core := newTestCore(t, 0)
	eng.Schedule(sim.Second, func() { core.SetOPP(1) })
	eng.Schedule(3*sim.Second, func() { core.SetOPP(0) })
	eng.Schedule(4*sim.Second, func() {})
	eng.Run()
	res := core.FreqResidency()
	var total sim.Time
	for _, d := range res {
		total += d
	}
	if math.Abs(float64(total-4*sim.Second)) > 1e-9 {
		t.Fatalf("residency sums to %v, want 4s", total)
	}
	if math.Abs(float64(res[1]-2*sim.Second)) > 1e-9 {
		t.Fatalf("OPP1 residency = %v, want 2s", res[1])
	}
}

// TestCyclesByTag checks that each priority's completed-cycle total holds
// exactly its own jobs' cycles.
func TestCyclesByTag(t *testing.T) {
	eng, core := newTestCore(t, 0)
	for _, j := range []Job{
		{Cycles: 1e6, Priority: PrioDecode},
		{Cycles: 5e5, Priority: PrioNetwork},
		{Cycles: 2e6, Priority: PrioDecode},
		{Cycles: 2.5e5, Priority: PrioBackground},
		{Cycles: 0, Priority: PrioBackground}, // completes inline, runs nothing
	} {
		if err := core.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	want := [...]float64{PrioDecode: 3e6, PrioNetwork: 5e5, PrioBackground: 2.5e5}
	for p, w := range want {
		if got := core.Cycles(Priority(p)); got != w {
			t.Fatalf("priority %d ran %v cycles, want %v", p, got, w)
		}
	}
}

func TestNewCoreRejectsInvalidModel(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewCore(eng, Model{Name: "bad"}); err == nil {
		t.Fatal("want error for invalid model")
	}
}

// Property: without DVFS changes, completion time is cycles/freq for any
// demand at any OPP.
func TestCompletionTimeProperty(t *testing.T) {
	f := func(cyclesRaw uint32, oppRaw bool) bool {
		cycles := float64(cyclesRaw) + 1
		eng, core := newTestCore(&testing.T{}, 0)
		opp := 0
		if oppRaw {
			opp = 1
		}
		core.SetOPP(opp)
		var done sim.Time
		if err := core.Submit(Job{Cycles: cycles, OnDone: func(now sim.Time) { done = now }}); err != nil {
			return false
		}
		eng.Run()
		want := cycles / core.Model().OPPs[opp].FreqHz
		return math.Abs(done.Seconds()-want) < 1e-9*want+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadGenProducesExpectedUtilization(t *testing.T) {
	eng, core := newTestCore(t, 0)
	gen := StartLoadGen(eng, core, sim.Stream(1, "load"))
	eng.Schedule(10*sim.Second, func() { gen.Stop(); eng.Stop() })
	eng.Run()
	if gen.Err() != nil {
		t.Fatal(gen.Err())
	}
	// 0.5e6 cycles / 50 ms at 1 GHz → ~1% utilization.
	util := core.BusyTime().Seconds() / 10
	if util < 0.005 || util > 0.02 {
		t.Fatalf("background util = %.4f, want ≈0.01", util)
	}
	if core.Cycles(PrioBackground) == 0 {
		t.Fatal("no background cycles recorded")
	}
}

// TestLoadGenRestartKeepsOneTickChain restarts a running generator on an
// engine that keeps running, as a recycled cohort viewer's would be: the
// restart cancels the pending tick, so the load keeps its rate instead of
// running a second tick chain beside the first.
func TestLoadGenRestartKeepsOneTickChain(t *testing.T) {
	eng, core := newTestCore(t, 0)
	gen := StartLoadGen(eng, core, sim.Stream(1, "bgload"))
	eng.RunUntil(sim.Second)
	gen.Restart()
	before := core.Cycles(PrioBackground)
	const window = 10 * sim.Second
	eng.RunUntil(eng.Now() + window)
	got := core.Cycles(PrioBackground) - before
	want := loadMeanCycles * float64(window/loadPeriod)
	if math.Abs(got-want) > 0.2*want {
		t.Fatalf("%.3g background cycles in %v after a restart, want ≈%.3g (one tick chain)", got, window, want)
	}
	gen.Stop()
	end := core.Cycles(PrioBackground)
	eng.RunUntil(eng.Now() + window)
	if after := core.Cycles(PrioBackground); after > end+loadMeanCycles*5 {
		t.Fatalf("a stopped generator kept submitting: %.3g cycles after Stop", after-end)
	}
}

// TestCoreResetCancelsWhatItScheduled rewinds a core mid-job on an engine
// that keeps running: the old job's completion must not fire on the reset
// core, where it would retire the next job early.
func TestCoreResetCancelsWhatItScheduled(t *testing.T) {
	eng, core := newTestCore(t, 0)
	if err := core.Submit(Job{Cycles: 1e9}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(100 * sim.Millisecond)
	if err := core.Reset(testModel(0)); err != nil {
		t.Fatal(err)
	}
	start := eng.Now()
	doneAt := sim.Time(-1)
	if err := core.Submit(Job{Cycles: 2e9, OnDone: func(now sim.Time) { doneAt = now }}); err != nil {
		t.Fatal(err)
	}
	want := start + 2*sim.Second // 2e9 cycles at 1 GHz
	eng.RunUntil(want - 10*sim.Millisecond)
	if doneAt >= 0 || !core.Busy() {
		t.Fatalf("after a reset mid-job: new job done at %v, busy %v; want still running until %v", doneAt, core.Busy(), want)
	}
	eng.Run()
	if math.Abs(float64(doneAt-want)) > 1e-9 {
		t.Fatalf("new job done at %v, want %v", doneAt, want)
	}
	var total float64
	for p := PrioDecode; p <= PrioBackground; p++ {
		total += core.Cycles(p)
	}
	if total != 2e9 || core.Cycles(PrioDecode) != 2e9 {
		t.Fatalf("%v cycles run after the reset (%v at decode priority), want only the new job's 2e9", total, core.Cycles(PrioDecode))
	}
}
