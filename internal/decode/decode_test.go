package decode

import (
	"math"
	"testing"

	"videodvfs/internal/cpu"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

func testCore(t *testing.T) (*sim.Engine, *cpu.Core) {
	t.Helper()
	eng := sim.NewEngine()
	core, err := cpu.NewCore(eng, cpu.Model{
		Name:              "test",
		OPPs:              []cpu.OPP{{FreqHz: 1e9, VoltageV: 1, ActiveW: 1, IdleW: 0.1}},
		TransitionLatency: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, core
}

func frame(idx int, cycles float64) video.Frame {
	return video.Frame{Index: idx, Type: video.FrameP, PTS: sim.Time(float64(idx) / 30), Cycles: cycles}
}

// frames returns frames [from, to) as one segment's slice.
func frames(from, to int, cycles float64) []video.Frame {
	fs := make([]video.Frame, 0, to-from)
	for i := from; i < to; i++ {
		fs = append(fs, frame(i, cycles))
	}
	return fs
}

func fixedDeadline(f video.Frame) sim.Time { return f.PTS + sim.Second }

type recordingHooks struct {
	starts, ends int
	idles        int
	lastDeadline sim.Time
	lastCycles   float64
	lastReady    int
	lastCap      int
}

func (h *recordingHooks) DecodeStart(_ sim.Time, _ video.Frame, deadline sim.Time, ready, queueCap int) {
	h.starts++
	h.lastDeadline = deadline
	h.lastReady = ready
	h.lastCap = queueCap
}

func (h *recordingHooks) DecodeEnd(_ sim.Time, _ video.Frame, _ sim.Time, cycles float64) {
	h.ends++
	h.lastCycles = cycles
}

func (h *recordingHooks) DecoderIdle(sim.Time) { h.idles++ }

func TestDecoderDecodesInOrder(t *testing.T) {
	eng, core := testCore(t)
	var got []int
	d, err := New(eng, core, 8, fixedDeadline, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.OnReady(func(f video.Frame) { got = append(got, f.Index) })
	d.Push(frames(0, 5, 1e6))
	eng.Run()
	if len(got) != 5 {
		t.Fatalf("decoded %d frames", len(got))
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("order = %v", got)
		}
	}
	if c := d.Counts(); c.Decoded != 5 || c.Discarded != 0 || c.Skipped != 0 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestDecoderRespectsQueueCap(t *testing.T) {
	eng, core := testCore(t)
	d, err := New(eng, core, 2, fixedDeadline, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Push(frames(0, 6, 1e6))
	eng.Run()
	if d.ReadyLen() != 2 {
		t.Fatalf("ready = %d, want cap 2", d.ReadyLen())
	}
	if d.PendingLen() != 4 {
		t.Fatalf("pending = %d, want 4", d.PendingLen())
	}
	// Popping should let the decoder resume.
	if _, ok := d.Pop(0); !ok {
		t.Fatal("Pop(0) failed")
	}
	eng.Run()
	if d.ReadyLen() != 2 || d.PendingLen() != 3 {
		t.Fatalf("after pop: ready=%d pending=%d", d.ReadyLen(), d.PendingLen())
	}
}

func TestDecoderPopSemantics(t *testing.T) {
	eng, core := testCore(t)
	d, err := New(eng, core, 4, fixedDeadline, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Push(frames(0, 2, 1e6))
	eng.Run()
	if _, ok := d.Pop(1); ok {
		t.Fatal("Pop(1) should fail while 0 heads the queue")
	}
	if !d.Ready(0) {
		t.Fatal("frame 0 should be ready")
	}
	f, ok := d.Pop(0)
	if !ok || f.Index != 0 {
		t.Fatalf("Pop(0) = %v %v", f, ok)
	}
	if _, ok := d.Pop(0); ok {
		t.Fatal("double pop should fail")
	}
}

func TestDecoderDiscardBelowDropsStaleReady(t *testing.T) {
	eng, core := testCore(t)
	d, err := New(eng, core, 8, fixedDeadline, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Push(frames(0, 4, 1e6))
	eng.Run()
	d.DiscardBelow(2)
	if !d.Ready(2) {
		t.Fatal("frame 2 should head the queue after discard")
	}
	c := d.Counts()
	if c.Discarded != 2 {
		t.Fatalf("discarded = %d, want 2", c.Discarded)
	}
	// DiscardBelow with a lower index is a no-op.
	d.DiscardBelow(1)
	if !d.Ready(2) {
		t.Fatal("lower DiscardBelow must not disturb the queue")
	}
}

func TestDecoderSkipsStalePendingWithoutDecoding(t *testing.T) {
	eng, core := testCore(t)
	d, err := New(eng, core, 8, fixedDeadline, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fill with one slow frame so the rest stay pending.
	d.Push(frames(0, 1, 1e9)) // 1 s decode
	d.Push(frames(1, 5, 1e6))
	eng.Schedule(100*sim.Millisecond, func() { d.DiscardBelow(4) })
	eng.Run()
	c := d.Counts()
	if c.Skipped != 3 {
		t.Fatalf("skipped = %d, want 3 (frames 1–3 never decoded)", c.Skipped)
	}
	if c.Discarded != 1 {
		t.Fatalf("discarded = %d, want 1 (in-flight frame 0)", c.Discarded)
	}
	if !d.Ready(4) {
		t.Fatal("frame 4 should be decoded and ready")
	}
}

func TestDecoderInFlightDiscard(t *testing.T) {
	eng, core := testCore(t)
	d, err := New(eng, core, 8, fixedDeadline, nil)
	if err != nil {
		t.Fatal(err)
	}
	ready := 0
	d.OnReady(func(video.Frame) { ready++ })
	d.Push(frames(0, 1, 1e9))
	eng.Schedule(500*sim.Millisecond, func() { d.DiscardBelow(1) })
	eng.Run()
	if ready != 0 {
		t.Fatal("discarded in-flight frame must not reach the ready queue")
	}
	if c := d.Counts(); c.Decoded != 1 || c.Discarded != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestDecoderHooksFire(t *testing.T) {
	eng, core := testCore(t)
	h := &recordingHooks{}
	d, err := New(eng, core, 2, fixedDeadline, h)
	if err != nil {
		t.Fatal(err)
	}
	d.Push(frames(0, 1, 2e6))
	eng.Run()
	if h.starts != 1 || h.ends != 1 {
		t.Fatalf("hooks: starts=%d ends=%d", h.starts, h.ends)
	}
	if h.lastCycles != 2e6 {
		t.Fatalf("measured cycles = %v", h.lastCycles)
	}
	if math.Abs(float64(h.lastDeadline-sim.Second)) > 1e-12 {
		t.Fatalf("deadline = %v, want 1s", h.lastDeadline)
	}
	if h.lastReady != 0 || h.lastCap != 2 {
		t.Fatalf("queue state = %d/%d, want 0/2", h.lastReady, h.lastCap)
	}
	if h.idles == 0 {
		t.Fatal("DecoderIdle never fired after draining")
	}
}

func TestDecoderDeadlineQueriedAtStart(t *testing.T) {
	eng, core := testCore(t)
	shift := sim.Time(0)
	deadlineOf := func(f video.Frame) sim.Time { return f.PTS + shift }
	h := &recordingHooks{}
	d, err := New(eng, core, 2, deadlineOf, h)
	if err != nil {
		t.Fatal(err)
	}
	d.Push(frames(0, 1, 1e6))
	eng.Run()
	first := h.lastDeadline
	shift = 5 * sim.Second // timeline shifted by a stall
	d.Push(frames(1, 2, 1e6))
	eng.Run()
	if h.lastDeadline-first < 4*sim.Second {
		t.Fatalf("deadline did not track the shift: %v then %v", first, h.lastDeadline)
	}
}

func TestDecoderConstructorValidation(t *testing.T) {
	eng, core := testCore(t)
	if _, err := New(eng, core, 0, fixedDeadline, nil); err == nil {
		t.Fatal("want error for zero capacity")
	}
	if _, err := New(eng, core, 4, nil, nil); err == nil {
		t.Fatal("want error for nil deadlineOf")
	}
}

func TestDecoderThroughputMatchesFrequency(t *testing.T) {
	eng, core := testCore(t)
	d, err := New(eng, core, 1000, fixedDeadline, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 100 frames × 10 M cycles at 1 GHz = 1 s total decode time.
	d.Push(frames(0, 100, 10e6))
	end := eng.Run()
	if math.Abs(float64(end-sim.Second)) > 1e-9 {
		t.Fatalf("drain time = %v, want 1s", end)
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}
