// Package decode models the player's decode-ahead worker: it pulls coded
// frames in presentation order, runs each as a CPU job, and parks decoded
// frames in a bounded output queue ahead of the display. The bounded queue
// is the slack store the energy-aware DVFS policy exploits.
//
// The input holds no copies: it is a queue of spans over the pushed
// segments' frame slices, which are shared and never written. The output
// is a fixed ring of queue-capacity slots. A decoder's memory is thus a
// few spans and one ring, whatever the buffer depth.
package decode

import (
	"fmt"

	"videodvfs/internal/cpu"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

// Hooks receives decoder lifecycle callbacks. The energy-aware governor
// implements this to observe demand and deadlines; all callbacks are
// optional-free (implementations may no-op).
//
// Governors must treat the frame's Cycles field as hidden (only the oracle
// reads it); measuredCycles in DecodeEnd is legitimate feedback, as a real
// integration derives it from thread CPU time × frequency.
type Hooks interface {
	// DecodeStart fires when a frame's decode job is issued, carrying the
	// frame's display deadline and the decoded-queue occupancy — the two
	// inputs of deadline- and slack-driven frequency selection.
	DecodeStart(now sim.Time, f video.Frame, deadline sim.Time, ready, queueCap int)
	// DecodeEnd fires when a frame finishes decoding.
	DecodeEnd(now sim.Time, f video.Frame, deadline sim.Time, measuredCycles float64)
	// DecoderIdle fires when the decoder has nothing runnable (input
	// empty or output queue full) — the race-to-idle opportunity.
	DecoderIdle(now sim.Time)
}

// Submitter runs CPU jobs — a single core or a big.LITTLE cluster router.
type Submitter interface {
	// Submit enqueues the job for execution.
	Submit(j cpu.Job) error
}

// NopHooks is an embeddable no-op Hooks implementation.
type NopHooks struct{}

// DecodeStart implements Hooks.
func (NopHooks) DecodeStart(sim.Time, video.Frame, sim.Time, int, int) {}

// DecodeEnd implements Hooks.
func (NopHooks) DecodeEnd(sim.Time, video.Frame, sim.Time, float64) {}

// DecoderIdle implements Hooks.
func (NopHooks) DecoderIdle(sim.Time) {}

var _ Hooks = NopHooks{}

// Counts summarizes decoder work.
type Counts struct {
	// Decoded frames completed (including later-discarded ones).
	Decoded int
	// Discarded frames that finished decoding after their display slot
	// was already skipped (wasted work).
	Discarded int
	// Skipped frames dropped from the input before decoding because
	// their display slot had passed.
	Skipped int
}

// span is one pushed frame slice as decode input: frames[next:revealed]
// are queued, frames[revealed:] are not yet revealed by Push. The slice
// is shared with its owner (a segment of an immutable stream) and only
// ever read.
type span struct {
	frames   []video.Frame
	next     int
	revealed int
}

// frameRing is the decoded-frame queue: a fixed ring of capacity slots.
// It never needs more, because maybeStart issues a decode only while the
// ring holds fewer frames than that and at most one decode is in flight.
type frameRing struct {
	buf  []video.Frame // len(buf) is the capacity
	head int
	n    int
}

// reset empties the ring and sizes it to capacity, reusing the backing
// array when it is large enough.
func (r *frameRing) reset(capacity int) {
	if cap(r.buf) < capacity {
		r.buf = make([]video.Frame, capacity)
	} else {
		r.buf = r.buf[:capacity]
	}
	r.head, r.n = 0, 0
}

func (r *frameRing) len() int            { return r.n }
func (r *frameRing) front() *video.Frame { return &r.buf[r.head] }

// slot maps the k-th queued position to its index in buf.
func (r *frameRing) slot(k int) int {
	i := r.head + k
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

func (r *frameRing) push(f video.Frame) {
	if r.n == len(r.buf) {
		panic("decode: decoded-frame ring overflow: a decode completed with the queue full")
	}
	r.buf[r.slot(r.n)] = f
	r.n++
}

func (r *frameRing) pop() video.Frame {
	f := r.buf[r.head]
	r.head = r.slot(1)
	r.n--
	return f
}

// dropBelow removes, in place and keeping order, every frame with Index
// below idx, and returns how many it removed.
func (r *frameRing) dropBelow(idx int) int {
	w := 0
	for k := 0; k < r.n; k++ {
		f := r.buf[r.slot(k)]
		if f.Index >= idx {
			r.buf[r.slot(w)] = f
			w++
		}
	}
	dropped := r.n - w
	r.n = w
	return dropped
}

// Decoder is the decode-ahead worker. It is driven entirely by the event
// loop: Push feeds it, the display pops from it.
type Decoder struct {
	eng  *sim.Engine
	core Submitter
	cap  int

	// pending is the coded input in presentation order; its spans are
	// never empty, so no spans means no input.
	pending  []span
	ready    frameRing
	inFlight bool

	// In-flight frame state: at most one decode job runs at a time, so
	// fields plus the pre-bound doneFn replace a per-frame closure.
	curFrame    video.Frame
	curDeadline sim.Time
	doneFn      func(now sim.Time)

	discardBelow int
	deadlineOf   func(f video.Frame) sim.Time
	hooks        Hooks
	onReady      func(f video.Frame)

	counts Counts
	subErr error
}

// New returns a decoder with the given decoded-frame queue capacity.
// deadlineOf must return the frame's current scheduled display time; it is
// consulted at decode start so stalls that shift the timeline are
// reflected. hooks may be nil.
func New(eng *sim.Engine, core Submitter, queueCap int, deadlineOf func(f video.Frame) sim.Time, hooks Hooks) (*Decoder, error) {
	if queueCap < 1 {
		return nil, fmt.Errorf("decode: queue capacity %d < 1", queueCap)
	}
	if deadlineOf == nil {
		return nil, fmt.Errorf("decode: deadlineOf is required")
	}
	if hooks == nil {
		hooks = NopHooks{}
	}
	d := &Decoder{eng: eng, core: core, cap: queueCap, deadlineOf: deadlineOf, hooks: hooks}
	d.ready.reset(queueCap)
	d.doneFn = d.jobDone
	return d, nil
}

// Reset rewinds the decoder to the state New would construct for
// (queueCap, hooks), keeping its allocations: the span array (its frame
// references dropped), the decoded ring, and the pre-bound completion
// callback survive, as do the deadlineOf function and the OnReady callback
// wired at construction (they belong to the owning player, which outlives
// the reset). The owning engine and submitter must be reset alongside; an
// in-flight decode job is simply forgotten here (the core's own reset
// drops it).
func (d *Decoder) Reset(queueCap int, hooks Hooks) error {
	if queueCap < 1 {
		return fmt.Errorf("decode: queue capacity %d < 1", queueCap)
	}
	if hooks == nil {
		hooks = NopHooks{}
	}
	d.cap = queueCap
	d.hooks = hooks
	clear(d.pending)
	d.pending = d.pending[:0]
	d.ready.reset(queueCap)
	d.inFlight = false
	d.curFrame = video.Frame{}
	d.curDeadline = 0
	d.discardBelow = 0
	d.counts = Counts{}
	d.subErr = nil
	return nil
}

// OnReady registers a callback invoked when a frame lands in the decoded
// queue (the display uses it to wake from stalls).
func (d *Decoder) OnReady(fn func(f video.Frame)) { d.onReady = fn }

// Push appends a slice of coded frames — a downloaded segment's — to the
// decode input in presentation order. The decoder reads the frames in
// place, so the caller must not write them afterwards. Frames are revealed
// to the input one at a time with a decode attempt after each, so Push(fs)
// acts exactly as one push per frame would: every hook fires in the same
// order with the same arguments.
func (d *Decoder) Push(frames []video.Frame) {
	for i := range frames {
		d.reveal(frames, i)
		d.maybeStart()
	}
}

// reveal appends frames[i] to the input: it extends the last span when
// that span is frames revealed up to i, and opens a new span otherwise
// (the first frame, a drained input, or a Push nested in a hook).
func (d *Decoder) reveal(frames []video.Frame, i int) {
	if n := len(d.pending); n > 0 {
		t := &d.pending[n-1]
		if t.revealed == i && len(t.frames) == len(frames) && &t.frames[0] == &frames[0] {
			t.revealed++
			return
		}
	}
	d.pending = append(d.pending, span{frames: frames, next: i, revealed: i + 1})
}

// frontPending returns the next input frame; the input must not be empty.
func (d *Decoder) frontPending() *video.Frame {
	s := &d.pending[0]
	return &s.frames[s.next]
}

// popPending removes and returns the next input frame, dropping its span
// once every revealed frame of it is consumed.
func (d *Decoder) popPending() video.Frame {
	s := &d.pending[0]
	f := s.frames[s.next]
	s.next++
	if s.next == s.revealed {
		n := copy(d.pending, d.pending[1:])
		d.pending[n] = span{}
		d.pending = d.pending[:n]
	}
	return f
}

// ReadyLen returns the decoded-queue depth.
func (d *Decoder) ReadyLen() int { return d.ready.len() }

// PendingLen returns the coded input backlog.
func (d *Decoder) PendingLen() int {
	n := 0
	for _, s := range d.pending {
		n += s.revealed - s.next
	}
	return n
}

// InFlight reports whether a decode job is executing.
func (d *Decoder) InFlight() bool { return d.inFlight }

// Cap returns the decoded-queue capacity.
func (d *Decoder) Cap() int { return d.cap }

// Counts returns the work summary so far.
func (d *Decoder) Counts() Counts { return d.counts }

// Err returns the first CPU submission error, if any.
func (d *Decoder) Err() error { return d.subErr }

// Ready reports whether frame idx is at the head of the decoded queue.
func (d *Decoder) Ready(idx int) bool {
	return d.ready.len() > 0 && d.ready.front().Index == idx
}

// Pop removes and returns frame idx if it heads the decoded queue.
func (d *Decoder) Pop(idx int) (video.Frame, bool) {
	if !d.Ready(idx) {
		return video.Frame{}, false
	}
	f := d.ready.pop()
	d.maybeStart()
	return f, true
}

// DiscardBelow drops all frames with Index < idx: queued decoded frames
// are removed, pending frames are skipped before decoding, and an
// in-flight frame is discarded at completion. The display calls this when
// it skips late frames.
func (d *Decoder) DiscardBelow(idx int) {
	if idx <= d.discardBelow {
		return
	}
	d.discardBelow = idx
	d.counts.Discarded += d.ready.dropBelow(idx)
	d.maybeStart()
}

func (d *Decoder) maybeStart() {
	if d.inFlight {
		return
	}
	// Skip input frames whose slot already passed.
	for len(d.pending) > 0 && d.frontPending().Index < d.discardBelow {
		d.popPending()
		d.counts.Skipped++
	}
	if len(d.pending) == 0 || d.ready.len() >= d.cap {
		d.hooks.DecoderIdle(d.eng.Now())
		return
	}
	f := d.popPending()
	d.inFlight = true
	d.curFrame = f
	d.curDeadline = d.deadlineOf(f)
	d.hooks.DecodeStart(d.eng.Now(), f, d.curDeadline, d.ready.len(), d.cap)
	if err := d.core.Submit(cpu.Job{Cycles: f.Cycles, Priority: cpu.PrioDecode, OnDone: d.doneFn}); err != nil {
		d.inFlight = false
		if d.subErr == nil {
			d.subErr = err
		}
	}
}

// jobDone is the CPU completion callback for the single in-flight decode
// job issued by maybeStart.
func (d *Decoder) jobDone(now sim.Time) {
	f := d.curFrame
	d.inFlight = false
	d.counts.Decoded++
	d.hooks.DecodeEnd(now, f, d.curDeadline, f.Cycles)
	if f.Index < d.discardBelow {
		d.counts.Discarded++
	} else {
		d.ready.push(f)
		if d.onReady != nil {
			d.onReady(f)
		}
	}
	d.maybeStart()
}
