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
// clock, the pending count and handle liveness.

// modelEvent is one pending event in the reference.
type modelEvent struct {
	at  Time
	seq uint64
	id  int
}

// scriptDelays are the relative delays a script schedules at; small and
// shared, so equal timestamps (FIFO order) collide constantly.
var scriptDelays = [...]Time{0, Millisecond, 2 * Millisecond, 5 * Millisecond}

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
	seq      uint64
	now      Time
	executed uint64
	budget   int // events the script may still schedule
	firing   int // id of the event whose callback is running, or -1
	stopped  bool
	fires    int
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

func (s *engineScript) isPending(id int) bool {
	for _, ev := range s.pending {
		if ev.id == id {
			return true
		}
	}
	return false
}

// checkState compares the pending count and the liveness of every handle
// ever issued.
func (s *engineScript) checkState(where string) {
	s.tb.Helper()
	if got, want := s.eng.Pending(), len(s.pending); got != want {
		s.fatalf("%s: Pending() = %d, reference has %d", where, got, want)
	}
	for id, h := range s.handles {
		if got, want := s.eng.Scheduled(h), s.isPending(id); got != want {
			s.fatalf("%s: Scheduled(event %d) = %v, want %v", where, id, got, want)
		}
	}
}

// schedule issues one event through Schedule or At (sometimes with a time
// already past, which must clamp to Now).
func (s *engineScript) schedule() {
	if s.budget == 0 {
		return
	}
	s.budget--
	id := len(s.handles)
	fn := func() { s.fire(id) }
	d := scriptDelays[s.next(len(scriptDelays))]
	var h Event
	at := s.now + d
	switch s.next(3) {
	case 0:
		h = s.eng.At(at, fn)
	case 1:
		h = s.eng.At(s.now-d, fn)
		at = s.now
	default:
		h = s.eng.Schedule(d, fn)
	}
	s.handles = append(s.handles, h)
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
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			break
		}
	}
	if s.eng.Scheduled(s.handles[id]) {
		s.fatalf("event %d still scheduled after Cancel", id)
	}
}

// act runs up to four schedule-or-cancel actions, each followed by a
// pending-count check.
func (s *engineScript) act(where string) {
	for n := s.next(5); n > 0; n-- {
		if s.next(3) == 0 {
			s.cancel()
		} else {
			s.schedule()
		}
		if got, want := s.eng.Pending(), len(s.pending); got != want {
			s.fatalf("%s: Pending() = %d after an action, reference has %d", where, got, want)
		}
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
	s.pending = append(s.pending[:i], s.pending[i+1:]...)
	s.now = want.at
	if s.eng.Now() != want.at {
		s.fatalf("Now() = %v inside event %d, want %v", s.eng.Now(), id, want.at)
	}
	if s.eng.Executed() != s.executed {
		s.fatalf("Executed() = %d, want %d", s.eng.Executed(), s.executed)
	}
	s.checkState("callback entry")
	s.firing = id
	// Callbacks schedule 0–3 successors, mostly; act also cancels.
	for n := s.next(4); n > 0; n-- {
		s.schedule()
	}
	s.act("callback")
	if s.next(8) == 0 {
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
	for round := 0; ; round++ {
		if round > 10000 {
			s.fatalf("script did not drain")
		}
		s.act("top level")
		if s.next(16) == 0 {
			s.eng.Reset()
			s.pending = s.pending[:0]
			s.now, s.executed = 0, 0
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
		if s.next(2) == 0 {
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
// the flat-list reference.
func TestEngineMatchesReferenceModel(t *testing.T) {
	const scripts = 5000
	fires := 0
	for seed := int64(1); seed <= scripts; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := newEngineScript(t, fmt.Sprintf("seed %d", seed), 64, r.Intn)
		s.run()
		fires += s.fires
	}
	if fires < 25*scripts {
		t.Fatalf("only %d fires checked over %d scripts; the scripts stopped exercising the engine", fires, scripts)
	}
	t.Logf("%d fires checked over %d scripts", fires, scripts)
}

// FuzzEngineSchedule drives the same reference check from a byte script;
// once the bytes run out every decision reads 0, which schedules nothing
// further and lets the script drain.
func FuzzEngineSchedule(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 3, 1, 2, 0, 3, 1, 1, 2, 2, 0, 7})
	f.Add([]byte{0x21, 0x43, 0x65, 0x87, 0xa9, 0xcb, 0xed, 0x0f, 0x10, 0x32, 0x54, 0x76})
	f.Add([]byte{2, 0, 0, 0, 1, 0, 2, 1, 1, 1, 0, 0, 3, 2, 2, 2, 1, 0, 0, 15, 4, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		newEngineScript(t, "fuzz", 64, next).run()
	})
}
