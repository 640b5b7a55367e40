package trace

import (
	"bufio"
	"io"
	"strconv"
)

// appendFloat appends the shortest round-trip decimal representation of
// v. The format is deterministic across platforms, which is what makes
// sink output byte-identical for same-seed runs.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// JSONLSink writes one JSON object per event, keys in fixed order, with
// shortest-round-trip float formatting. Every object carries "t" (virtual
// seconds) and "ev" (event name); remaining keys are per-event (see
// DESIGN.md §7 for the schema). Output is buffered; call Close once after
// the run. If the underlying writer implements io.Closer, Close closes it
// too.
type JSONLSink struct {
	bw  *bufio.Writer
	raw io.Writer
	buf []byte
	err error
}

// NewJSONL returns a JSONL sink over w.
func NewJSONL(w io.Writer) *JSONLSink {
	return &JSONLSink{bw: bufio.NewWriterSize(w, 1<<16), raw: w, buf: make([]byte, 0, 256)}
}

// line writes one finished object; the first write error sticks and is
// returned by Close.
func (s *JSONLSink) line(b []byte) {
	if s.err != nil {
		return
	}
	b = append(b, '\n')
	if _, err := s.bw.Write(b); err != nil {
		s.err = err
	}
}

// Close implements Sink: it flushes, closes an io.Closer writer, and
// returns the first error seen.
func (s *JSONLSink) Close() error {
	if err := s.bw.Flush(); s.err == nil {
		s.err = err
	}
	if c, ok := s.raw.(io.Closer); ok {
		if err := c.Close(); s.err == nil {
			s.err = err
		}
	}
	return s.err
}

func (s *JSONLSink) head(ev string, t float64) []byte {
	b := append(s.buf[:0], `{"t":`...)
	b = appendFloat(b, t)
	b = append(b, `,"ev":"`...)
	b = append(b, ev...)
	b = append(b, '"')
	return b
}

func jInt(b []byte, key string, v int) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, int64(v), 10)
}

func jFloat(b []byte, key string, v float64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return appendFloat(b, v)
}

func jStr(b []byte, key, v string) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, `":"`...)
	b = append(b, v...)
	return append(b, '"')
}

func jBool(b []byte, key string, v bool) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendBool(b, v)
}

// Decision implements Tracer.
func (s *JSONLSink) Decision(e DecisionEvent) {
	b := s.head("decision", e.T.Seconds())
	b = jInt(b, "frame", e.Frame)
	b = jStr(b, "ftype", e.Type.String())
	b = jFloat(b, "pred_cycles", e.PredCycles)
	b = jFloat(b, "slack_s", e.Slack.Seconds())
	b = jFloat(b, "budget_s", e.Budget.Seconds())
	b = jInt(b, "opp", e.OPP)
	b = jBool(b, "boost", e.Boost)
	s.line(append(b, '}'))
}

// Frame implements Tracer.
func (s *JSONLSink) Frame(e FrameEvent) {
	b := s.head(e.Stage.String(), e.T.Seconds())
	b = jInt(b, "frame", e.Frame)
	switch e.Stage {
	case StageDecodeStart:
		b = jStr(b, "ftype", e.Type.String())
		b = jFloat(b, "deadline_s", e.Deadline.Seconds())
	case StageDecodeEnd:
		b = jStr(b, "ftype", e.Type.String())
		b = jFloat(b, "deadline_s", e.Deadline.Seconds())
		b = jFloat(b, "cycles", e.Cycles)
	}
	s.line(append(b, '}'))
}

// OPP implements Tracer.
func (s *JSONLSink) OPP(e OPPEvent) {
	b := s.head("opp", e.T.Seconds())
	b = jInt(b, "from", e.From)
	b = jInt(b, "to", e.To)
	b = jFloat(b, "freq_mhz", e.FreqHz/1e6)
	s.line(append(b, '}'))
}

// CPUBusy implements Tracer.
func (s *JSONLSink) CPUBusy(e CPUBusyEvent) {
	b := s.head("cpu_busy", e.T.Seconds())
	b = jBool(b, "busy", e.Busy)
	if e.CState != "" {
		b = jStr(b, "cstate", e.CState)
	}
	s.line(append(b, '}'))
}

// RRC implements Tracer.
func (s *JSONLSink) RRC(e RRCEvent) {
	b := s.head("rrc", e.T.Seconds())
	b = jStr(b, "state", e.State)
	s.line(append(b, '}'))
}

// ABR implements Tracer.
func (s *JSONLSink) ABR(e ABREvent) {
	b := s.head("abr", e.T.Seconds())
	b = jInt(b, "segment", e.Segment)
	b = jInt(b, "from_rung", e.FromRung)
	b = jInt(b, "to_rung", e.ToRung)
	b = jFloat(b, "rate_bps", e.RateBps)
	s.line(append(b, '}'))
}

// Buffer implements Tracer.
func (s *JSONLSink) Buffer(e BufferEvent) {
	b := s.head("buffer", e.T.Seconds())
	b = jFloat(b, "level_s", e.LevelSec)
	b = jInt(b, "ready", e.Ready)
	b = jInt(b, "cap", e.Cap)
	s.line(append(b, '}'))
}

// Playback implements Tracer.
func (s *JSONLSink) Playback(e PlaybackEvent) {
	b := s.head("playback", e.T.Seconds())
	b = jBool(b, "playing", e.Playing)
	s.line(append(b, '}'))
}

// Power implements Tracer.
func (s *JSONLSink) Power(e PowerEvent) {
	b := s.head("power", e.T.Seconds())
	b = jStr(b, "component", e.Component)
	b = jFloat(b, "watts", e.Watts)
	s.line(append(b, '}'))
}

var _ Sink = (*JSONLSink)(nil)
