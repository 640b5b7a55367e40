package decode

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"videodvfs/internal/cpu"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

// decoderLegacy is the decoder as it stood before its input became spans
// over shared segment frames and its output a fixed ring: Push took one
// frame and copied it into a growing pending queue, and the decoded queue
// was a growing head-cursor slice. It is retained verbatim (renamed) as the
// oracle of TestDecoderMatchesLegacy and must stay semantically frozen: any
// change here invalidates the test's ground truth.

// frameQueue is a FIFO of frames with a head cursor, so steady-state
// push/pop reuses one backing array instead of re-slicing capacity away.
type frameQueue struct {
	buf  []video.Frame
	head int
}

func (q *frameQueue) push(f video.Frame) { q.buf = append(q.buf, f) }
func (q *frameQueue) len() int           { return len(q.buf) - q.head }
func (q *frameQueue) front() video.Frame { return q.buf[q.head] }

func (q *frameQueue) pop() video.Frame {
	f := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head >= 64 && q.head > len(q.buf)/2 {
		// Compact: slide the live window to the front so append reuses
		// the vacated capacity instead of growing the array forever.
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return f
}

// decoderLegacy is the copying decoder: Push copies each frame into the
// pending frameQueue.
type decoderLegacy struct {
	eng  *sim.Engine
	core Submitter
	cap  int

	pending  frameQueue
	ready    frameQueue
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
func newDecoderLegacy(eng *sim.Engine, core Submitter, queueCap int, deadlineOf func(f video.Frame) sim.Time, hooks Hooks) (*decoderLegacy, error) {
	if queueCap < 1 {
		return nil, fmt.Errorf("decode: queue capacity %d < 1", queueCap)
	}
	if deadlineOf == nil {
		return nil, fmt.Errorf("decode: deadlineOf is required")
	}
	if hooks == nil {
		hooks = NopHooks{}
	}
	d := &decoderLegacy{eng: eng, core: core, cap: queueCap, deadlineOf: deadlineOf, hooks: hooks}
	d.ready.buf = make([]video.Frame, 0, queueCap+1)
	d.doneFn = d.jobDone
	return d, nil
}

// Reset rewinds the decoder to the state New would construct for
// (queueCap, hooks), keeping its allocations: both frame-queue backing
// arrays and the pre-bound completion callback survive, as do the
// deadlineOf function and the OnReady callback wired at construction (they
// belong to the owning player, which outlives the reset). The owning
// engine and submitter must be reset alongside; an in-flight decode job is
// simply forgotten here (the core's own reset drops it).
func (d *decoderLegacy) Reset(queueCap int, hooks Hooks) error {
	if queueCap < 1 {
		return fmt.Errorf("decode: queue capacity %d < 1", queueCap)
	}
	if hooks == nil {
		hooks = NopHooks{}
	}
	d.cap = queueCap
	d.hooks = hooks
	d.pending.buf = d.pending.buf[:0]
	d.pending.head = 0
	if cap(d.ready.buf) < queueCap+1 {
		d.ready.buf = make([]video.Frame, 0, queueCap+1)
	} else {
		d.ready.buf = d.ready.buf[:0]
	}
	d.ready.head = 0
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
func (d *decoderLegacy) OnReady(fn func(f video.Frame)) { d.onReady = fn }

// Push appends a coded frame to the decode input in presentation order.
func (d *decoderLegacy) Push(f video.Frame) {
	d.pending.push(f)
	d.maybeStart()
}

// ReadyLen returns the decoded-queue depth.
func (d *decoderLegacy) ReadyLen() int { return d.ready.len() }

// PendingLen returns the coded input backlog.
func (d *decoderLegacy) PendingLen() int { return d.pending.len() }

// InFlight reports whether a decode job is executing.
func (d *decoderLegacy) InFlight() bool { return d.inFlight }

// Cap returns the decoded-queue capacity.
func (d *decoderLegacy) Cap() int { return d.cap }

// Counts returns the work summary so far.
func (d *decoderLegacy) Counts() Counts { return d.counts }

// Err returns the first CPU submission error, if any.
func (d *decoderLegacy) Err() error { return d.subErr }

// Ready reports whether frame idx is at the head of the decoded queue.
func (d *decoderLegacy) Ready(idx int) bool {
	return d.ready.len() > 0 && d.ready.front().Index == idx
}

// Pop removes and returns frame idx if it heads the decoded queue.
func (d *decoderLegacy) Pop(idx int) (video.Frame, bool) {
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
func (d *decoderLegacy) DiscardBelow(idx int) {
	if idx <= d.discardBelow {
		return
	}
	d.discardBelow = idx
	w := 0
	for i := d.ready.head; i < len(d.ready.buf); i++ {
		f := d.ready.buf[i]
		if f.Index >= idx {
			d.ready.buf[w] = f
			w++
		} else {
			d.counts.Discarded++
		}
	}
	d.ready.buf = d.ready.buf[:w]
	d.ready.head = 0
	d.maybeStart()
}

func (d *decoderLegacy) maybeStart() {
	if d.inFlight {
		return
	}
	// Skip input frames whose slot already passed.
	for d.pending.len() > 0 && d.pending.front().Index < d.discardBelow {
		d.pending.pop()
		d.counts.Skipped++
	}
	if d.pending.len() == 0 || d.ready.len() >= d.cap {
		d.hooks.DecoderIdle(d.eng.Now())
		return
	}
	f := d.pending.pop()
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
func (d *decoderLegacy) jobDone(now sim.Time) {
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

// hookCall is one observed decoder callback: a Hooks method or OnReady.
type hookCall struct {
	method   string
	t        sim.Time
	frame    video.Frame
	deadline sim.Time
	ready    int
	queueCap int
	cycles   float64
}

// callLog records every callback a decoder makes, in order.
type callLog struct {
	eng   *sim.Engine
	calls []hookCall
}

func (l *callLog) DecodeStart(now sim.Time, f video.Frame, deadline sim.Time, ready, queueCap int) {
	l.calls = append(l.calls, hookCall{method: "start", t: now, frame: f, deadline: deadline, ready: ready, queueCap: queueCap})
}

func (l *callLog) DecodeEnd(now sim.Time, f video.Frame, deadline sim.Time, cycles float64) {
	l.calls = append(l.calls, hookCall{method: "end", t: now, frame: f, deadline: deadline, cycles: cycles})
}

func (l *callLog) DecoderIdle(now sim.Time) {
	l.calls = append(l.calls, hookCall{method: "idle", t: now})
}

func (l *callLog) onReady(f video.Frame) {
	l.calls = append(l.calls, hookCall{method: "ready", t: l.eng.Now(), frame: f})
}

// scriptSubmitter completes decode jobs after scripted delays, fails the
// scripted submissions, and, like cpu.Core, completes a zero-cycle job
// synchronously inside Submit.
type scriptSubmitter struct {
	eng    *sim.Engine
	delays []sim.Time // by submission ordinal, cycled
	failAt int        // submission ordinal that fails; -1 for none
	n      int
	evs    []sim.Event
}

func (s *scriptSubmitter) Submit(j cpu.Job) error {
	k := s.n
	s.n++
	if k == s.failAt {
		return fmt.Errorf("scripted failure of submission %d", k)
	}
	done := j.OnDone
	if j.Cycles <= 0 {
		done(s.eng.Now())
		return nil
	}
	s.evs = append(s.evs, s.eng.Schedule(s.delays[k%len(s.delays)], func() { done(s.eng.Now()) }))
	return nil
}

// reset forgets every outstanding job, as a core reset alongside the
// decoder's does.
func (s *scriptSubmitter) reset() {
	for _, ev := range s.evs {
		s.eng.Cancel(ev)
	}
	s.evs = s.evs[:0]
}

// decoderScript is one randomized driving script: the segments it pushes,
// the submitter's timing, and its step sequence.
type decoderScript struct {
	queueCap  int
	segs      [][]video.Frame
	delays    []sim.Time
	failAt    int
	nestEvery int // OnReady pushes the next segment every nestEvery-th call; 0 never
	steps     []decoderStep
}

// decoderStep is one scripted action; arg's meaning depends on op.
type decoderStep struct {
	op  int // 0 push, 1 advance, 2 pop, 3 pop a wrong index, 4 discard, 5 shift deadlines, 6 reset, 7 drain
	arg float64
}

func newDecoderScript(r *rand.Rand) decoderScript {
	sc := decoderScript{queueCap: 1 + r.Intn(32), failAt: -1}
	idx := 0
	for n := 5 + r.Intn(25); len(sc.segs) < n; {
		seg := make([]video.Frame, 1+r.Intn(90))
		for i := range seg {
			cycles := 0.0
			if r.Intn(5) > 0 {
				cycles = 1e5 + r.Float64()*3e7
			}
			seg[i] = video.Frame{Index: idx, Type: video.FrameType(1 + r.Intn(3)), PTS: sim.Time(float64(idx) / 30), Bits: 1e4, Cycles: cycles}
			idx++
		}
		sc.segs = append(sc.segs, seg)
	}
	sc.delays = make([]sim.Time, 1+r.Intn(64))
	for i := range sc.delays {
		if r.Intn(10) > 0 {
			sc.delays[i] = sim.Time(r.Float64() * 0.04)
		}
	}
	if r.Intn(3) == 0 {
		sc.failAt = r.Intn(200)
	}
	if r.Intn(3) == 0 {
		sc.nestEvery = 1 + r.Intn(12)
	}
	sc.steps = make([]decoderStep, 100+r.Intn(300))
	for i := range sc.steps {
		st := &sc.steps[i]
		switch p := r.Intn(100); {
		case p < 22:
			st.op = 0
		case p < 42:
			st.op, st.arg = 1, r.Float64()*0.06
		case p < 62:
			st.op = 2
		case p < 65:
			st.op = 3
		case p < 75:
			st.op, st.arg = 4, float64(r.Intn(130)-5) // behind, within and past the pushed frames
		case p < 80:
			st.op, st.arg = 5, r.Float64()*0.2-0.05
		case p < 82:
			st.op, st.arg = 6, float64(1+r.Intn(32))
		default:
			st.op = 7
		}
	}
	return sc
}

// decoderSide is one decoder under a script, with its own engine,
// submitter and callback log.
type decoderSide struct {
	eng     *sim.Engine
	sub     *scriptSubmitter
	log     *callLog
	nextSeg int
	readyN  int
	popped  video.Frame
	popOK   bool

	push     func(seg []video.Frame)
	pop      func(idx int) (video.Frame, bool)
	discard  func(idx int)
	reset    func(queueCap int, h Hooks) error
	observed func() decoderState
}

// decoderState is everything the differential test compares after a step.
type decoderState struct {
	Counts   Counts
	Err      string
	Ready    int
	Pending  int
	InFlight bool
}

func (s *decoderSide) pushNext(sc *decoderScript) {
	if s.nextSeg < len(sc.segs) {
		s.nextSeg++
		s.push(sc.segs[s.nextSeg-1])
	}
}

// The span decoder must be indistinguishable from the copying one: one
// Push of a segment's slice against one legacy Push per frame, through the
// same seeded scripts of pushes (zero-cycle frames included), display
// pops, discards behind, within and past the input, deadline shifts,
// mid-stream resets, submission failures and Pushes nested in OnReady. After
// every step the callback sequences (method, time, frame, deadline, ready,
// cap), Counts, Err, ReadyLen, PendingLen and InFlight must match, and the
// decoded ring must hold its capacity's slots and never more frames.
func TestDecoderMatchesLegacy(t *testing.T) {
	scripts := 400
	if testing.Short() {
		scripts = 60
	}
	for seed := int64(1); seed <= int64(scripts); seed++ {
		sc := newDecoderScript(rand.New(rand.NewSource(seed)))
		if err := runDecoderScript(&sc); err != nil {
			t.Fatalf("script %d (cap %d, %d segments): %v", seed, sc.queueCap, len(sc.segs), err)
		}
	}
}

func runDecoderScript(sc *decoderScript) error {
	var shift sim.Time
	deadlineOf := func(f video.Frame) sim.Time { return f.PTS + shift }
	newSide := func() *decoderSide {
		eng := sim.NewEngine()
		return &decoderSide{
			eng: eng,
			sub: &scriptSubmitter{eng: eng, delays: sc.delays, failAt: sc.failAt},
			log: &callLog{eng: eng},
		}
	}
	legacy, spanned := newSide(), newSide()
	ld, err := newDecoderLegacy(legacy.eng, legacy.sub, sc.queueCap, deadlineOf, legacy.log)
	if err != nil {
		return err
	}
	d, err := New(spanned.eng, spanned.sub, sc.queueCap, deadlineOf, spanned.log)
	if err != nil {
		return err
	}
	var ringErr error
	checkRing := func() {
		if ringErr == nil && (len(d.ready.buf) != d.cap || d.ready.n > d.cap) {
			ringErr = fmt.Errorf("ring has %d slots holding %d frames at cap %d", len(d.ready.buf), d.ready.n, d.cap)
		}
	}
	legacy.push = func(seg []video.Frame) {
		for _, f := range seg {
			ld.Push(f)
		}
	}
	spanned.push = func(seg []video.Frame) { d.Push(seg) }
	legacy.pop, spanned.pop = ld.Pop, d.Pop
	legacy.discard, spanned.discard = ld.DiscardBelow, d.DiscardBelow
	legacy.reset, spanned.reset = ld.Reset, d.Reset
	legacy.observed = func() decoderState {
		return decoderState{ld.Counts(), fmt.Sprint(ld.Err()), ld.ReadyLen(), ld.PendingLen(), ld.InFlight()}
	}
	spanned.observed = func() decoderState {
		return decoderState{d.Counts(), fmt.Sprint(d.Err()), d.ReadyLen(), d.PendingLen(), d.InFlight()}
	}
	for _, s := range []*decoderSide{legacy, spanned} {
		s := s
		onReady := func(f video.Frame) {
			s.log.onReady(f)
			checkRing()
			s.readyN++
			if sc.nestEvery > 0 && s.readyN%sc.nestEvery == 0 {
				s.pushNext(sc)
			}
		}
		if s == legacy {
			ld.OnReady(onReady)
		} else {
			d.OnReady(onReady)
		}
	}

	playhead := 0
	checked := 0
	for i, st := range sc.steps {
		for _, s := range []*decoderSide{legacy, spanned} {
			switch st.op {
			case 0:
				s.pushNext(sc)
			case 1:
				s.eng.RunUntil(s.eng.Now() + sim.Time(st.arg))
			case 2, 3:
				idx := playhead
				if st.op == 3 {
					idx++
				}
				s.popped, s.popOK = s.pop(idx)
			case 4:
				s.discard(playhead + int(st.arg))
			case 6:
				s.sub.reset()
				if err := s.reset(int(st.arg), s.log); err != nil {
					return err
				}
			case 7:
				s.eng.Run()
			}
		}
		// Shared script state moves once both sides have taken the step.
		switch st.op {
		case 2, 3:
			if legacy.popped != spanned.popped || legacy.popOK != spanned.popOK {
				return fmt.Errorf("step %d (op %d): popped %+v %v, legacy %+v %v", i, st.op, spanned.popped, spanned.popOK, legacy.popped, legacy.popOK)
			}
			if legacy.popOK {
				playhead = legacy.popped.Index + 1
			}
		case 4:
			if idx := playhead + int(st.arg); idx > playhead {
				playhead = idx
			}
		case 5:
			shift += sim.Time(st.arg)
		case 6:
			playhead = 0
			if legacy.nextSeg < len(sc.segs) {
				playhead = sc.segs[legacy.nextSeg][0].Index
			}
		}
		checkRing()
		if ringErr != nil {
			return fmt.Errorf("step %d (op %d): %v", i, st.op, ringErr)
		}
		if legacy.nextSeg != spanned.nextSeg {
			return fmt.Errorf("step %d (op %d): pushed %d segments, legacy %d", i, st.op, spanned.nextSeg, legacy.nextSeg)
		}
		if a, b := legacy.log.calls, spanned.log.calls; !reflect.DeepEqual(a[checked:], b[checked:]) {
			return fmt.Errorf("step %d (op %d): callbacks diverge after call %d:\nlegacy %+v\nspan   %+v", i, st.op, checked, a[checked:], b[checked:])
		}
		checked = len(legacy.log.calls)
		if a, b := legacy.observed(), spanned.observed(); a != b {
			return fmt.Errorf("step %d (op %d): state %+v, legacy %+v", i, st.op, b, a)
		}
	}
	return nil
}
