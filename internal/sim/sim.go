// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock and an event heap. Components schedule
// closures at absolute or relative virtual times; Run drains the heap in
// timestamp order (FIFO among equal timestamps) until the heap is empty, a
// horizon is reached, or Stop is called. The engine is strictly
// single-threaded: all model code runs inside event callbacks, so no model
// state needs locking.
//
// Event storage is pooled: scheduled callbacks live in a slab inside the
// engine and are recycled through a free list, so the steady-state
// schedule/fire/cancel cycle allocates nothing (see DESIGN.md §8). Handles
// are index+generation pairs, which makes stale cancels (of an event that
// already fired and whose slot was reused) harmless no-ops.
//
// All stochastic model inputs are drawn from RNG streams derived from a
// single seed (see rng.go), which makes every simulation fully reproducible.
package sim

import (
	"fmt"
	"math"
	"runtime"
)

// Time is a virtual-time instant or span, in seconds since simulation start.
//
// Seconds-as-float keeps cycle/frequency arithmetic natural
// (cycles ÷ Hz = seconds) at the cost of ~15 significant digits, which is
// far below event granularity for the hour-scale sessions simulated here.
type Time float64

// Common spans.
const (
	Nanosecond  Time = 1e-9
	Microsecond Time = 1e-6
	Millisecond Time = 1e-3
	Second      Time = 1
	Minute      Time = 60
)

// Forever is a horizon later than any event a model schedules.
const Forever Time = math.MaxFloat64

// Seconds returns the time as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) }

// Milliseconds returns the time as a float64 millisecond count.
func (t Time) Milliseconds() float64 { return float64(t) * 1e3 }

// String formats the time with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", float64(t)) }

// Event is a handle to a scheduled callback, usable for cancellation. The
// zero Event is "no event": canceling it is a no-op. Handles are
// generation-checked, so holding one past its firing (or past a Cancel) is
// safe — a later Cancel through the stale handle does nothing even if the
// underlying slot has been reused.
type Event struct {
	idx int32
	gen uint32
}

// Valid reports whether the handle refers to some scheduled event (past or
// present); the zero Event is invalid.
func (e Event) Valid() bool { return e.gen != 0 }

// eventSlot is one pooled event in the engine's slab. The ordering key
// lives in the heap entry, not here, so sifts never read through the slab.
type eventSlot struct {
	fn  func()
	gen uint32
	pos int32 // position in the heap; -1 when free
}

// heapEntry is one pending event's ordering key, stored inline in the heap
// array, plus the slab index of its callback.
type heapEntry struct {
	at  Time
	seq uint64
	idx int32
}

// Engine is a discrete-event simulator instance.
//
// The zero value is not usable; call NewEngine.
type Engine struct {
	now   Time
	slots []eventSlot
	free  []int32
	heap  []heapEntry // ordered by (at, seq)
	seq   uint64
	// executed counts callbacks run, for tests and runaway detection.
	executed uint64
	stopped  bool
	// spent is set while the firing event's entry still occupies heap[0]
	// (see RunUntil): the callback's first At overwrites it in place, and
	// RunUntil pops it only if the callback scheduled nothing.
	spent bool
}

// NewEngine returns an engine with the clock at zero and an empty heap.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of event callbacks run so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int {
	if e.spent {
		return len(e.heap) - 1
	}
	return len(e.heap)
}

// Schedule runs fn after delay (relative to Now). A negative delay is
// clamped to zero so causality is preserved. A non-finite delay panics,
// naming the call site: NaN would slip past the clamp (every comparison
// against NaN is false), enter the heap, and poison every heap
// comparison, while ±Inf enters as an event that can never fire and turns
// subsequent time arithmetic into Inf/NaN — the same silent corruption.
// It returns a handle usable with Cancel.
func (e *Engine) Schedule(delay Time, fn func()) Event {
	// delay != delay is math.IsNaN; the MaxFloat64 comparisons are
	// math.IsInf — spelled out to stay a branch-only hot path.
	if delay != delay || delay > math.MaxFloat64 || delay < -math.MaxFloat64 {
		panicNonFinite("Schedule", delay)
	}
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t, clamped to Now if already past.
// A non-finite time panics, naming the call site (see Schedule).
func (e *Engine) At(t Time, fn func()) Event {
	if t != t || t > math.MaxFloat64 || t < -math.MaxFloat64 {
		panicNonFinite("At", t)
	}
	if t < e.now {
		t = e.now
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		// Generations start at 1 so the zero Event never matches a slot.
		e.slots = append(e.slots, eventSlot{gen: 1})
		idx = int32(len(e.slots) - 1)
	}
	s := &e.slots[idx]
	s.fn = fn
	ent := heapEntry{at: t, seq: e.seq, idx: idx}
	e.seq++
	if e.spent {
		// Re-arm in place: the new event takes the firing event's root
		// entry, which every pending event follows, so one sift-down
		// restores the order a pop-then-push would have.
		e.spent = false
		e.heapDown(0, ent)
	} else {
		e.heap = append(e.heap, ent)
		e.heapUp(len(e.heap)-1, ent)
	}
	return Event{idx: idx, gen: s.gen}
}

// panicNonFinite reports a NaN or ±Inf schedule time, attributing it to
// the model code that called Schedule/At (two frames up: panicNonFinite,
// then the engine method) so the offending arithmetic is findable without
// a heap dump.
func panicNonFinite(method string, t Time) {
	site := "unknown call site"
	if _, file, line, ok := runtime.Caller(2); ok {
		site = fmt.Sprintf("%s:%d", file, line)
	}
	panic(fmt.Sprintf("sim: %s(%v) from %s: a non-finite time would poison event ordering", method, t, site))
}

// Scheduled reports whether the event the handle refers to is still
// pending (not yet fired and not canceled).
func (e *Engine) Scheduled(ev Event) bool {
	if !ev.Valid() || int(ev.idx) >= len(e.slots) {
		return false
	}
	s := &e.slots[ev.idx]
	return s.gen == ev.gen && s.pos >= 0
}

// Cancel prevents a scheduled event from running. Canceling the zero
// Event, an event that already ran, or canceling twice, is a no-op.
func (e *Engine) Cancel(ev Event) {
	if !ev.Valid() || int(ev.idx) >= len(e.slots) {
		return
	}
	s := &e.slots[ev.idx]
	if s.gen != ev.gen || s.pos < 0 {
		return // already fired, canceled, or slot reused
	}
	e.heapRemove(int(s.pos))
	e.release(ev.idx)
}

// release returns a slot to the free list and invalidates outstanding
// handles by bumping the generation.
func (e *Engine) release(idx int32) {
	s := &e.slots[idx]
	s.fn = nil
	s.gen++
	s.pos = -1
	e.free = append(e.free, idx)
}

// Stop makes the current Run return after the in-flight callback.
func (e *Engine) Stop() { e.stopped = true }

// Reset rewinds the engine to its initial state while keeping the event
// slab, so a recycled engine schedules into already-allocated slots: the
// clock returns to zero, every pending event is dropped, and all slots
// rejoin the free list. Each slot's generation is bumped, so handles held
// from before the reset can never cancel or match a post-reset event —
// stale cancels stay harmless no-ops, exactly as for fired events.
func (e *Engine) Reset() {
	for i := range e.slots {
		s := &e.slots[i]
		s.fn = nil
		s.gen++
		s.pos = -1
	}
	if cap(e.free) < len(e.slots) {
		e.free = make([]int32, 0, len(e.slots))
	}
	e.free = e.free[:0]
	// Descending indices so the next At pops slot 0 first and a recycled
	// engine fills its slab in the same order a fresh one grows it.
	for i := len(e.slots) - 1; i >= 0; i-- {
		e.free = append(e.free, int32(i))
	}
	e.heap = e.heap[:0]
	e.spent = false
	e.now = 0
	e.seq = 0
	e.executed = 0
	e.stopped = false
}

// Run drains the event heap until empty or Stop is called. It returns the
// final virtual time.
func (e *Engine) Run() Time { return e.RunUntil(Forever) }

// RunUntil drains events with timestamps ≤ horizon. Events scheduled beyond
// the horizon remain pending; the clock is advanced to the horizon if the
// heap empties earlier than horizon only when horizon is finite.
func (e *Engine) RunUntil(horizon Time) Time {
	e.stopped = false
	// A callback that panicked left its spent entry at the root.
	e.dropSpent()
	for len(e.heap) > 0 && !e.stopped {
		root := e.heap[0]
		if root.at > horizon {
			break
		}
		fn := e.slots[root.idx].fn
		e.now = root.at
		// Release before the callback so fn can recycle the slot; the
		// generation bump keeps any retained handle from matching it. The
		// spent entry stays at the root for the callback's first At.
		e.release(root.idx)
		e.spent = true
		e.executed++
		fn()
		e.dropSpent()
	}
	if horizon != Forever && e.now < horizon && !e.stopped {
		e.now = horizon
	}
	return e.now
}

// dropSpent pops the firing event's root entry if no At overwrote it.
func (e *Engine) dropSpent() {
	if e.spent {
		e.spent = false
		e.heapRemove(0)
	}
}

// less orders entries by (at, seq) so equal-time events run FIFO.
func (a heapEntry) less(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapRemove deletes the entry at heap position pos. The removed slot's
// pos is left for release to clear.
func (e *Engine) heapRemove(pos int) {
	last := len(e.heap) - 1
	ent := e.heap[last]
	e.heap = e.heap[:last]
	if pos == last {
		return
	}
	if pos > 0 && ent.less(e.heap[(pos-1)/2]) {
		e.heapUp(pos, ent)
	} else {
		e.heapDown(pos, ent)
	}
}

// heapUp places ent, moving the hole at pos toward the root past every
// parent that ent precedes: one store and one pos update per level.
func (e *Engine) heapUp(pos int, ent heapEntry) {
	h, slots := e.heap, e.slots
	for pos > 0 {
		parent := (pos - 1) / 2
		p := h[parent]
		if !ent.less(p) {
			break
		}
		h[pos] = p
		slots[p.idx].pos = int32(pos)
		pos = parent
	}
	h[pos] = ent
	slots[ent.idx].pos = int32(pos)
}

// heapDown places ent, moving the hole at pos toward the leaves past every
// smaller child.
func (e *Engine) heapDown(pos int, ent heapEntry) {
	h, slots := e.heap, e.slots
	n := len(h)
	for {
		child := 2*pos + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && h[right].less(h[child]) {
			child = right
		}
		c := h[child]
		if !c.less(ent) {
			break
		}
		h[pos] = c
		slots[c.idx].pos = int32(pos)
		pos = child
	}
	h[pos] = ent
	slots[ent.idx].pos = int32(pos)
}
