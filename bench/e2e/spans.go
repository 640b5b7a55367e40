package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the in-memory span log; spans beyond it are counted as
// dropped rather than recorded.
const maxSpans = 400_000

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one op share Op; Parent names the span that caused
// this one (0 for an op's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the log was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Attr is a short tag, such as a cache outcome or an HTTP status.
	Attr string `json:"attr,omitempty"`
	// N is a size attached to the span: frames, bytes or active viewers.
	N int64 `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps spans in memory for the whole run; they are written out
// once, at exit, so recording never touches the disk inside the window.
type spanLog struct {
	t0      time.Time
	next    atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// id reserves a span ID, so children can name a parent that has not ended.
func (l *spanLog) id() int64 { return l.next.Add(1) }

// record adds a finished span; id 0 assigns a fresh ID.
func (l *spanLog) record(id, parent, op int64, name string, start, end time.Time, attr string, n int64) {
	if id == 0 {
		id = l.id()
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0)), Attr: attr, N: n}
	l.mu.Lock()
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// snapshot returns a copy of the recorded spans.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// durations returns the durations in ms of spans named name whose Attr is
// attr ("" matches any).
func durations(spans []span, name, attr string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && (attr == "" || s.Attr == attr) {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

func (l *spanLog) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
