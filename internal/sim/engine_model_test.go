package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// The engine is checked against a flat-list reference: the reference keeps
// every pending event in an unordered slice and fires the (at, seq)
// minimum, which is the engine's contract stated with no data structure
// to get wrong. A script drives both through the same schedules, cancels,
// stops, horizons and resets, and every fire must agree on the event, the
// clock, the pending count and handle liveness. Scripts that may burst
// past crowdAt pending events run the calendar regime and both switches
// between the regimes against the same reference.

// modelEvent is one pending event in the reference.
type modelEvent struct {
	at  Time
	seq uint64
	id  int
}

// scriptDelays are the relative delays a script schedules at: few and
// shared, so equal timestamps (FIFO order) collide constantly, and
// straddling the calendar's bucket width (about 0.122 ms) and ring span
// (250 ms), with one delay past the ring.
var scriptDelays = [...]Time{
	0, 100 * Microsecond, 122 * Microsecond, Millisecond, 2 * Millisecond, 5 * Millisecond,
	249 * Millisecond, 250 * Millisecond, 251 * Millisecond, 3 * Second,
}

// scriptFar are the absolute times a script sometimes schedules at: either
// side of the last time the calendar buckets, and near Forever.
var scriptFar = [...]Time{calendarEnd - Millisecond, calendarEnd, Forever / 2, Forever}

// engineScript runs one decision stream against an engine and the
// reference side by side.
type engineScript struct {
	tb   testing.TB
	name string
	eng  *Engine
	// next returns a decision in [0, n).
	next func(n int) int

	pending  []modelEvent
	handles  []Event // by event id, every handle ever issued
	live     []bool  // by event id, whether the event is pending
	seq      uint64
	now      Time
	executed uint64
	budget   int // events the script may still schedule
	firing   int // id of the event whose callback is running, or -1
	stopped  bool
	fires    int
	// bursts lets an action schedule past crowdAt events at once. A
	// steady script starts with a burst, never resets, and each of its
	// callbacks re-arms one successor, as a cohort's events do, so the
	// engine stays crowded while the clock runs.
	bursts, steady bool
	// crowded records whether the engine ever switched to its calendar,
	// uncrowded whether firing ever drained it back (a Reset does not
	// count); inCrowd is the regime last seen.
	crowded, uncrowded, inCrowd bool
}

func newEngineScript(tb testing.TB, name string, budget int, next func(n int) int) *engineScript {
	return &engineScript{tb: tb, name: name, eng: NewEngine(), next: next, budget: budget, firing: -1}
}

func (s *engineScript) fatalf(format string, args ...any) {
	s.tb.Helper()
	s.tb.Fatalf("%s (fire %d, t=%v): %s", s.name, s.fires, s.now, fmt.Sprintf(format, args...))
}

// minIdx returns the reference position of the (at, seq)-least pending
// event, or -1.
func (s *engineScript) minIdx() int {
	best := -1
	for i, ev := range s.pending {
		if best < 0 || ev.at < s.pending[best].at ||
			(ev.at == s.pending[best].at && ev.seq < s.pending[best].seq) {
			best = i
		}
	}
	return best
}

// remove drops reference event i from the pending set.
func (s *engineScript) remove(i int) {
	s.live[s.pending[i].id] = false
	s.pending = append(s.pending[:i], s.pending[i+1:]...)
}

// checkState compares the pending count and the liveness of every handle
// ever issued, and notes regime switches.
func (s *engineScript) checkState(where string) {
	s.tb.Helper()
	if got, want := s.eng.Pending(), len(s.pending); got != want {
		s.fatalf("%s: Pending() = %d, reference has %d", where, got, want)
	}
	for id, h := range s.handles {
		if got, want := s.eng.Scheduled(h), s.live[id]; got != want {
			s.fatalf("%s: Scheduled(event %d) = %v, want %v", where, id, got, want)
		}
	}
	s.noteRegime()
}

// noteRegime records a switch between the engine's regimes.
func (s *engineScript) noteRegime() {
	if s.eng.crowded {
		s.crowded, s.inCrowd = true, true
	} else if s.inCrowd {
		s.uncrowded, s.inCrowd = true, false
	}
}

// schedule issues one event at a drawn delay and kind.
func (s *engineScript) schedule() {
	d := scriptDelays[s.next(len(scriptDelays))]
	s.scheduleAfter(d, s.next(8))
}

// scheduleAfter issues one event d after now through Schedule or At. By
// kind, At sometimes gets a time already past, which must clamp to Now,
// or an absolute far time.
func (s *engineScript) scheduleAfter(d Time, kind int) {
	if s.budget == 0 {
		return
	}
	s.budget--
	id := len(s.handles)
	fn := func() { s.fire(id) }
	var h Event
	at := s.now + d
	switch kind {
	case 0, 1, 2:
		h = s.eng.At(at, fn)
	case 3:
		h = s.eng.At(s.now-d, fn)
		at = s.now
	case 4:
		at = max(s.now, scriptFar[s.next(len(scriptFar))])
		h = s.eng.At(at, fn)
	default:
		h = s.eng.Schedule(d, fn)
	}
	s.handles = append(s.handles, h)
	s.live = append(s.live, true)
	s.pending = append(s.pending, modelEvent{at: at, seq: s.seq, id: id})
	s.seq++
}

// cancel cancels a random handle: pending, fired, stale, the zero Event,
// or the firing event's own.
func (s *engineScript) cancel() {
	k := s.next(len(s.handles) + 2)
	var id int
	switch {
	case k < len(s.handles):
		id = k
	case k == len(s.handles) && s.firing >= 0:
		id = s.firing
	default:
		s.eng.Cancel(Event{})
		return
	}
	s.eng.Cancel(s.handles[id])
	for i, ev := range s.pending {
		if ev.id == id {
			s.remove(i)
			break
		}
	}
	if s.eng.Scheduled(s.handles[id]) {
		s.fatalf("event %d still scheduled after Cancel", id)
	}
}

// act runs up to four schedule-or-cancel actions, each followed by a
// pending-count check. In a bursting script an action may instead
// schedule past crowdAt events at once, spread over every delay.
func (s *engineScript) act(where string) {
	for n := s.next(5); n > 0; n-- {
		switch {
		case s.bursts && s.next(16) == 15:
			s.burst()
		case s.next(3) == 0:
			s.cancel()
		default:
			s.schedule()
		}
		if got, want := s.eng.Pending(), len(s.pending); got != want {
			s.fatalf("%s: Pending() = %d after an action, reference has %d", where, got, want)
		}
		s.noteRegime()
	}
}

// burst schedules past crowdAt events at once, spread over every delay.
func (s *engineScript) burst() {
	d0, size := s.next(len(scriptDelays)), crowdAt+1+s.next(crowdAt)
	for k := 0; k < size; k++ {
		s.scheduleAfter(scriptDelays[(d0+k)%len(scriptDelays)], 7)
	}
}

// fire is every event's callback.
func (s *engineScript) fire(id int) {
	s.fires++
	s.executed++
	i := s.minIdx()
	if i < 0 {
		s.fatalf("event %d fired with nothing pending in the reference", id)
	}
	want := s.pending[i]
	if want.id != id {
		s.fatalf("fired event %d, reference fires event %d (at %v seq %d)", id, want.id, want.at, want.seq)
	}
	s.remove(i)
	s.now = want.at
	if s.eng.Now() != want.at {
		s.fatalf("Now() = %v inside event %d, want %v", s.eng.Now(), id, want.at)
	}
	if s.eng.Executed() != s.executed {
		s.fatalf("Executed() = %d, want %d", s.eng.Executed(), s.executed)
	}
	s.checkState("callback entry")
	s.firing = id
	// Callbacks schedule 0–3 successors, mostly; act also cancels. A
	// steady script's callback re-arms one and acts one time in four.
	if s.steady {
		s.schedule()
		if s.next(4) == 0 {
			s.act("callback")
		}
	} else {
		for n := s.next(4); n > 0; n-- {
			s.schedule()
		}
		s.act("callback")
	}
	if s.next(8) == 7 {
		s.eng.Stop()
		s.stopped = true
	}
	s.checkState("callback exit")
	s.firing = -1
}

// run drives the script to completion: top-level actions, then a Run or a
// RunUntil with a random horizon, until the engine and reference are both
// drained and the budget is spent.
func (s *engineScript) run() {
	for n := 1 + s.next(4); n > 0; n-- {
		s.schedule()
	}
	if s.steady {
		s.burst()
	}
	for round := 0; ; round++ {
		if round > 10000 {
			s.fatalf("script did not drain")
		}
		s.act("top level")
		if s.next(16) == 15 && !s.steady {
			s.eng.Reset()
			for len(s.pending) > 0 {
				s.remove(len(s.pending) - 1)
			}
			s.now, s.executed = 0, 0
			s.inCrowd = false
			s.checkState("after Reset")
		}
		if len(s.pending) == 0 {
			if s.budget == 0 || s.next(4) == 0 {
				break
			}
			s.schedule()
			continue
		}
		s.stopped = false
		horizon := Forever
		if s.next(2) == 1 {
			horizon = s.now + scriptDelays[s.next(len(scriptDelays))]
		}
		end := s.eng.RunUntil(horizon)
		if !s.stopped {
			if i := s.minIdx(); i >= 0 && s.pending[i].at <= horizon {
				s.fatalf("RunUntil(%v) returned with event %d at %v still due", horizon, s.pending[i].id, s.pending[i].at)
			}
			if horizon != Forever && s.now < horizon {
				s.now = horizon
			}
		}
		if end != s.now || s.eng.Now() != s.now {
			s.fatalf("RunUntil(%v) = %v, Now() = %v, want %v", horizon, end, s.eng.Now(), s.now)
		}
		s.checkState("after RunUntil")
	}
	s.checkState("end")
}

// TestEngineMatchesReferenceModel runs thousands of seeded scripts against
// the flat-list reference: small ones that stay in heap mode, bursting
// ones that crowd the engine into its calendar and drain it back below
// crowdAt/2, and steady ones that hold it crowded for seconds of virtual
// time, so far events come due among near ones and the ring wraps.
func TestEngineMatchesReferenceModel(t *testing.T) {
	for _, tc := range []struct {
		name           string
		scripts        int
		budget         int
		bursts, steady bool
		// minFires is the fewest fires a script may check on average;
		// minCrowded and minDrained the fewest scripts that crowd the
		// engine and that drain it back.
		minFires, minCrowded, minDrained int
	}{
		{"small", 5000, 64, false, false, 25, 0, 0},
		{"bursting", 1000, 2 * crowdAt, true, false, 40, 500, 250},
		{"steady", 20, 24 * crowdAt, true, true, 1000, 20, 10},
	} {
		fires, crowded, drained := 0, 0, 0
		for seed := int64(1); seed <= int64(tc.scripts); seed++ {
			r := rand.New(rand.NewSource(seed))
			s := newEngineScript(t, fmt.Sprintf("%s seed %d", tc.name, seed), tc.budget, r.Intn)
			s.bursts, s.steady = tc.bursts, tc.steady
			s.run()
			fires += s.fires
			if s.crowded {
				crowded++
			}
			if s.uncrowded {
				drained++
			}
		}
		if fires < tc.minFires*tc.scripts || crowded < tc.minCrowded || drained < tc.minDrained {
			t.Fatalf("%s scripts: %d fires checked over %d scripts, %d crowded the engine, %d drained it back; want at least %d, %d and %d",
				tc.name, fires, tc.scripts, crowded, drained, tc.minFires*tc.scripts, tc.minCrowded, tc.minDrained)
		}
		t.Logf("%s scripts: %d fires checked over %d scripts, %d crowded the engine, %d drained it back",
			tc.name, fires, tc.scripts, crowded, drained)
	}
}

// crowdingFuzzSeed is a fuzz seed that bursts the engine past crowdAt
// inside a callback, fires the burst in the calendar regime, and drains
// back to heap mode.
var crowdingFuzzSeed = []byte{
	0, 0, 0, // one event, due now through At
	1, 0, 1, 0, 0, // top level: one action, a schedule due now through At
	0, 0, // no Reset; Run to Forever
	// The first callback: no successors and one action, a burst of
	// crowdAt+1 events over every delay. Then the bytes run out, and
	// every later decision runs the engine dry.
	0, 1, 15, 0, 0,
}

// TestCrowdingFuzzSeedCrowds pins that the crowding seed reaches the
// calendar regime and comes back.
func TestCrowdingFuzzSeedCrowds(t *testing.T) {
	s := newEngineScript(t, "crowding seed", 8*crowdAt, byteDecisions(crowdingFuzzSeed))
	s.bursts = true
	s.run()
	if !s.crowded || !s.uncrowded {
		t.Fatalf("crowding seed: crowded %v, drained back %v; want both", s.crowded, s.uncrowded)
	}
}

// byteDecisions reads one decision per byte; once the bytes run out every
// decision reads 0, which schedules nothing further, neither stops nor
// resets, and lets the script drain.
func byteDecisions(data []byte) func(n int) int {
	return func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
}

// FuzzEngineSchedule drives the same reference check from a byte script,
// with bursts allowed.
func FuzzEngineSchedule(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 3, 1, 2, 0, 3, 1, 1, 2, 2, 0, 7})
	f.Add([]byte{0x21, 0x43, 0x65, 0x87, 0xa9, 0xcb, 0xed, 0x0f, 0x10, 0x32, 0x54, 0x76})
	f.Add([]byte{2, 0, 0, 0, 1, 0, 2, 1, 1, 1, 0, 0, 3, 2, 2, 2, 1, 0, 0, 15, 4, 4, 4})
	f.Add(crowdingFuzzSeed)
	f.Fuzz(func(t *testing.T, data []byte) {
		s := newEngineScript(t, "fuzz", 8*crowdAt, byteDecisions(data))
		s.bursts = true
		s.run()
	})
}
