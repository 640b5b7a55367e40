// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock and an event queue. Components schedule
// closures at absolute or relative virtual times; Run fires them in
// timestamp order (FIFO among equal timestamps) until the queue is empty, a
// horizon is reached, or Stop is called. The engine is strictly
// single-threaded: all model code runs inside event callbacks, so no model
// state needs locking.
//
// The queue has two regimes with one firing order (see DESIGN.md §8). A
// run keeps a handful of events pending, in one binary heap. An engine
// crowded past crowdAt pending events, such as a cohort shard, files them
// in a calendar: a ring of fixed-width time buckets of which only the
// earliest occupied one is kept as a heap, plus a small heap for the rare
// events due beyond the ring.
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
	"math/bits"
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
// lives in the heap entry (or, for a ring event, the calendar's keys), not
// here, so sifts never read through the slab.
type eventSlot struct {
	fn  func()
	gen uint32
	pos int32 // heap position, or one of the pos* states below
}

// Slot positions. A position in the near heap (the only heap in heap
// mode) is stored as is, one in the far heap offset by farBase.
const (
	posFree = -1      // on the free list, or firing
	posRing = -2      // pending in a ring bucket
	posDead = -3      // canceled in a ring bucket; freed when it drains
	farBase = 1 << 30 // far-heap position 0
)

// The calendar's shape (DESIGN.md §8 has the measurements behind each).
const (
	// crowdAt is the pending-event count past which the engine files
	// events in its calendar. It returns to one heap below crowdAt/2, so
	// a count hovering at the threshold does not switch on every event.
	crowdAt = 1 << 6
	// bucketsPerSecond sets the bucket width: 2^-13 s, about 122 µs.
	bucketsPerSecond = 1 << 13
	// ringLen buckets span 250 ms, past most re-arm delays.
	ringLen  = 1 << 11
	ringMask = ringLen - 1
	// calendarEnd bounds the times the calendar buckets: a bucket index
	// stays exact in a float64 and an int64. Later times, up to Forever,
	// wait in the far heap and are never converted to an integer.
	calendarEnd Time = 1 << 32
)

// heapEntry is one pending event's ordering key, stored inline in the heap
// array, plus the slab index of its callback.
type heapEntry struct {
	at  Time
	seq uint64
	idx int32
}

// eventHeap is a binary min-heap of entries ordered by (at, seq). Each
// entry's slot records its position plus base, which names the heap too.
type eventHeap struct {
	h    []heapEntry
	base int32
}

// ringKey is a ring event's ordering key and the next event in its bucket.
type ringKey struct {
	at   Time
	seq  uint64
	next int32 // slab index, or -1
}

// calendar files a crowded engine's events due after the near bucket. The
// near bucket's events, and any earlier, sit in the engine's heap, so its
// root precedes every ring event; the far heap's root is compared on
// every pop. The calendar is allocated when the engine first crowds and
// kept across Reset.
type calendar struct {
	// near is the absolute index of the near bucket. The heap takes events
	// due before nearEnd, the ring those due before ringEnd.
	near             int64
	nearEnd, ringEnd Time
	heads            [ringLen]int32 // first event of each bucket, or -1
	occupied         [ringLen / 64]uint64
	keys             []ringKey // by slab index; read only for ring events
	live             int       // ring events not canceled
	far              eventHeap
}

// Engine is a discrete-event simulator instance.
//
// The zero value is not usable; call NewEngine.
type Engine struct {
	now   Time
	slots []eventSlot
	free  []int32
	// heap holds every pending event in heap mode; crowded, it is the
	// calendar's near heap.
	heap eventHeap
	cal  *calendar // nil until the engine first crowds
	// crowded is set while events are filed in cal.
	crowded bool
	seq     uint64
	// executed counts callbacks run, for tests and runaway detection.
	executed uint64
	stopped  bool
	// spent is set while the firing event's entry still occupies the heap
	// root in heap mode (see RunUntil): the callback's first At overwrites
	// it in place, and RunUntil pops it only if the callback scheduled
	// nothing.
	spent bool
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of event callbacks run so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int {
	n := len(e.heap.h)
	if e.spent {
		n--
	}
	if e.crowded {
		n += len(e.cal.far.h) + e.cal.live
	}
	return n
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
	switch {
	case e.spent:
		// Re-arm in place: the new event takes the firing event's root
		// entry, which every pending event follows, so one sift-down
		// restores the order a pop-then-push would have.
		e.spent = false
		e.heap.down(e.slots, 0, ent)
	case e.crowded:
		e.file(ent)
	default:
		e.heap.push(e.slots, ent)
		if len(e.heap.h) > crowdAt {
			e.crowd()
		}
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
	return s.gen == ev.gen && s.pos != posFree
}

// Cancel prevents a scheduled event from running. Canceling the zero
// Event, an event that already ran, or canceling twice, is a no-op.
func (e *Engine) Cancel(ev Event) {
	if !ev.Valid() || int(ev.idx) >= len(e.slots) {
		return
	}
	s := &e.slots[ev.idx]
	if s.gen != ev.gen || s.pos == posFree {
		return // already fired, canceled, or slot reused
	}
	switch {
	case s.pos == posRing:
		// A ring event is canceled in place and its slot freed when its
		// bucket drains. Its callback goes now, with whatever it holds.
		s.fn = nil
		s.gen++
		s.pos = posDead
		e.cal.live--
		return
	case s.pos >= farBase:
		e.cal.far.remove(e.slots, int(s.pos-farBase))
	default:
		e.heap.remove(e.slots, int(s.pos))
	}
	e.release(ev.idx)
}

// release returns a slot to the free list and invalidates outstanding
// handles by bumping the generation.
func (e *Engine) release(idx int32) {
	s := &e.slots[idx]
	s.fn = nil
	s.gen++
	s.pos = posFree
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
	if e.crowded {
		e.uncrowd()
	}
	for i := range e.slots {
		s := &e.slots[i]
		s.fn = nil
		s.gen++
		s.pos = posFree
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
	e.heap.h = e.heap.h[:0]
	e.spent = false
	e.now = 0
	e.seq = 0
	e.executed = 0
	e.stopped = false
}

// Run drains the event queue until empty or Stop is called. It returns
// the final virtual time.
func (e *Engine) Run() Time { return e.RunUntil(Forever) }

// RunUntil drains events with timestamps ≤ horizon. Events scheduled beyond
// the horizon remain pending; the clock is advanced to the horizon if the
// queue empties earlier than horizon only when horizon is finite.
func (e *Engine) RunUntil(horizon Time) Time {
	e.stopped = false
	// A callback that panicked left its spent entry at the root.
	e.dropSpent()
	for !e.stopped {
		if e.crowded {
			if !e.fireCrowded(horizon) {
				break
			}
			continue
		}
		if len(e.heap.h) == 0 {
			break
		}
		root := e.heap.h[0]
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
		e.heap.remove(e.slots, 0)
	}
}

// fireCrowded fires a crowded engine's next event if one is due by
// horizon, and reports whether it did. The event is popped before its
// callback runs: a crowded callback's successors rarely fall in the near
// bucket, so firing in place would buy nothing.
func (e *Engine) fireCrowded(horizon Time) bool {
	c := e.cal
	for len(e.heap.h) == 0 && e.refill() {
	}
	var ent heapEntry
	switch {
	case len(e.heap.h) > 0 && (len(c.far.h) == 0 || e.heap.h[0].less(c.far.h[0])):
		if ent = e.heap.h[0]; ent.at > horizon {
			return false
		}
		e.heap.remove(e.slots, 0)
	case len(c.far.h) > 0:
		if ent = c.far.h[0]; ent.at > horizon {
			return false
		}
		c.far.remove(e.slots, 0)
		if len(e.heap.h) == 0 {
			// The ring is empty too, so it may start at the new time.
			c.anchor(ent.at)
		}
	default:
		return false
	}
	fn := e.slots[ent.idx].fn
	e.now = ent.at
	e.release(ent.idx)
	e.executed++
	fn()
	if e.crowded && e.Pending() < crowdAt/2 {
		e.uncrowd()
	}
	return true
}

// crowd switches the engine to its calendar, refiling every pending event
// around a near bucket at the current time.
func (e *Engine) crowd() {
	if e.cal == nil {
		e.cal = &calendar{
			keys: make([]ringKey, cap(e.slots)),
			far:  eventHeap{h: make([]heapEntry, 0, 4*crowdAt), base: farBase},
		}
		for b := range e.cal.heads {
			e.cal.heads[b] = -1
		}
	}
	e.crowded = true
	e.cal.anchor(e.now)
	pending := e.heap.h
	// The near heap refills the same array from the front, never past
	// the entry being read.
	e.heap.h = pending[:0]
	for _, ent := range pending {
		e.file(ent)
	}
}

// uncrowd returns the engine to one heap: the ring's events and the far
// heap's join the near heap.
func (e *Engine) uncrowd() {
	c := e.cal
	e.crowded = false
	for w, word := range c.occupied {
		for ; word != 0; word &= word - 1 {
			e.drain(w<<6 | bits.TrailingZeros64(word))
		}
	}
	for _, ent := range c.far.h {
		e.heap.push(e.slots, ent)
	}
	c.far.h = c.far.h[:0]
}

// file places a crowded engine's event: in the near heap if it is due
// before the near bucket ends, in its bucket if it is due within the
// ring's span, in the far heap otherwise.
func (e *Engine) file(ent heapEntry) {
	c := e.cal
	switch {
	case ent.at < c.nearEnd:
		e.heap.push(e.slots, ent)
	case ent.at < c.ringEnd:
		b := int64(ent.at*bucketsPerSecond) & ringMask
		if int(ent.idx) >= len(c.keys) {
			// The keys follow the slab's growth.
			c.keys = append(c.keys, make([]ringKey, cap(e.slots)-len(c.keys))...)
		}
		c.keys[ent.idx] = ringKey{at: ent.at, seq: ent.seq, next: c.heads[b]}
		c.heads[b] = ent.idx
		c.occupied[b>>6] |= 1 << (b & 63)
		c.live++
		e.slots[ent.idx].pos = posRing
	default:
		c.far.push(e.slots, ent)
	}
}

// refill makes the ring's earliest occupied bucket the near bucket and
// moves its events into the empty near heap. It reports false when the
// ring holds nothing.
func (e *Engine) refill() bool {
	c := e.cal
	start := int((c.near + 1) & ringMask)
	b, ok := c.nextOccupied(start)
	if !ok {
		return false
	}
	c.setNear(c.near + 1 + int64((b-start)&ringMask))
	e.drain(b)
	return true
}

// drain empties bucket b into the near heap, freeing the slots of events
// canceled while they waited.
func (e *Engine) drain(b int) {
	c := e.cal
	for i := c.heads[b]; i >= 0; {
		k := c.keys[i]
		if e.slots[i].pos == posDead {
			e.release(i)
		} else {
			c.live--
			e.heap.push(e.slots, heapEntry{at: k.at, seq: k.seq, idx: i})
		}
		i = k.next
	}
	c.heads[b] = -1
	c.occupied[b>>6] &^= 1 << (b & 63)
}

// nextOccupied returns the first occupied bucket at or after b in ring
// order.
func (c *calendar) nextOccupied(b int) (int, bool) {
	w := b >> 6
	word := c.occupied[w] &^ (1<<(b&63) - 1)
	for n := 0; n <= len(c.occupied); n++ {
		if word != 0 {
			return w<<6 | bits.TrailingZeros64(word), true
		}
		w = (w + 1) % len(c.occupied)
		word = c.occupied[w]
	}
	return 0, false
}

// anchor makes the bucket holding t the near bucket. Only an empty ring
// may move backwards, and a time past calendarEnd leaves it where it is.
func (c *calendar) anchor(t Time) {
	if t < calendarEnd {
		c.setNear(int64(t * bucketsPerSecond))
	}
}

// setNear makes bucket k the near bucket; the ring covers the ringLen-1
// buckets after it.
func (c *calendar) setNear(k int64) {
	c.near = k
	c.nearEnd = Time(k+1) / bucketsPerSecond
	c.ringEnd = Time(k+ringLen) / bucketsPerSecond
}

// less orders entries by (at, seq) so equal-time events run FIFO.
func (a heapEntry) less(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push adds ent to the heap.
func (q *eventHeap) push(slots []eventSlot, ent heapEntry) {
	q.h = append(q.h, ent)
	q.up(slots, len(q.h)-1, ent)
}

// remove deletes the entry at heap position pos. The removed slot's pos
// is left for its new owner (or release) to set.
func (q *eventHeap) remove(slots []eventSlot, pos int) {
	last := len(q.h) - 1
	ent := q.h[last]
	q.h = q.h[:last]
	if pos == last {
		return
	}
	if pos > 0 && ent.less(q.h[(pos-1)/2]) {
		q.up(slots, pos, ent)
	} else {
		q.down(slots, pos, ent)
	}
}

// up places ent, moving the hole at pos toward the root past every parent
// that ent precedes: one store and one pos update per level.
func (q *eventHeap) up(slots []eventSlot, pos int, ent heapEntry) {
	h, base := q.h, q.base
	for pos > 0 {
		parent := (pos - 1) / 2
		p := h[parent]
		if !ent.less(p) {
			break
		}
		h[pos] = p
		slots[p.idx].pos = base + int32(pos)
		pos = parent
	}
	h[pos] = ent
	slots[ent.idx].pos = base + int32(pos)
}

// down places ent, moving the hole at pos toward the leaves past every
// smaller child.
func (q *eventHeap) down(slots []eventSlot, pos int, ent heapEntry) {
	h, base := q.h, q.base
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
		slots[c.idx].pos = base + int32(pos)
		pos = child
	}
	h[pos] = ent
	slots[ent.idx].pos = base + int32(pos)
}
