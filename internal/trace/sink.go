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

// writer is the shared buffered-output core of the sinks.
type writer struct {
	bw  *bufio.Writer
	raw io.Writer
	buf []byte
	err error
}

func newWriter(w io.Writer) writer {
	return writer{bw: bufio.NewWriterSize(w, 1<<16), raw: w, buf: make([]byte, 0, 256)}
}

func (w *writer) line(b []byte) {
	if w.err != nil {
		return
	}
	b = append(b, '\n')
	if _, err := w.bw.Write(b); err != nil {
		w.err = err
	}
}

func (w *writer) close() error {
	if err := w.bw.Flush(); w.err == nil {
		w.err = err
	}
	if c, ok := w.raw.(io.Closer); ok {
		if err := c.Close(); w.err == nil {
			w.err = err
		}
	}
	return w.err
}

// JSONLSink writes one JSON object per event, keys in fixed order, with
// shortest-round-trip float formatting. Every object carries "t" (virtual
// seconds) and "ev" (event name); remaining keys are per-event (see
// DESIGN.md §7 for the schema). Output is buffered; call Close once after
// the run. If the underlying writer implements io.Closer, Close closes it
// too.
type JSONLSink struct {
	w writer
}

// NewJSONL returns a JSONL sink over w.
func NewJSONL(w io.Writer) *JSONLSink {
	return &JSONLSink{w: newWriter(w)}
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error { return s.w.err }

// Close implements Sink.
func (s *JSONLSink) Close() error { return s.w.close() }

func (s *JSONLSink) head(ev string, t float64) []byte {
	b := append(s.w.buf[:0], `{"t":`...)
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
	s.w.line(append(b, '}'))
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
	s.w.line(append(b, '}'))
}

// OPP implements Tracer.
func (s *JSONLSink) OPP(e OPPEvent) {
	b := s.head("opp", e.T.Seconds())
	b = jInt(b, "from", e.From)
	b = jInt(b, "to", e.To)
	b = jFloat(b, "freq_mhz", e.FreqHz/1e6)
	s.w.line(append(b, '}'))
}

// CPUBusy implements Tracer.
func (s *JSONLSink) CPUBusy(e CPUBusyEvent) {
	b := s.head("cpu_busy", e.T.Seconds())
	b = jBool(b, "busy", e.Busy)
	if e.CState != "" {
		b = jStr(b, "cstate", e.CState)
	}
	s.w.line(append(b, '}'))
}

// RRC implements Tracer.
func (s *JSONLSink) RRC(e RRCEvent) {
	b := s.head("rrc", e.T.Seconds())
	b = jStr(b, "state", e.State)
	s.w.line(append(b, '}'))
}

// ABR implements Tracer.
func (s *JSONLSink) ABR(e ABREvent) {
	b := s.head("abr", e.T.Seconds())
	b = jInt(b, "segment", e.Segment)
	b = jInt(b, "from_rung", e.FromRung)
	b = jInt(b, "to_rung", e.ToRung)
	b = jFloat(b, "rate_bps", e.RateBps)
	s.w.line(append(b, '}'))
}

// Buffer implements Tracer.
func (s *JSONLSink) Buffer(e BufferEvent) {
	b := s.head("buffer", e.T.Seconds())
	b = jFloat(b, "level_s", e.LevelSec)
	b = jInt(b, "ready", e.Ready)
	b = jInt(b, "cap", e.Cap)
	s.w.line(append(b, '}'))
}

// Playback implements Tracer.
func (s *JSONLSink) Playback(e PlaybackEvent) {
	b := s.head("playback", e.T.Seconds())
	b = jBool(b, "playing", e.Playing)
	s.w.line(append(b, '}'))
}

// Power implements Tracer.
func (s *JSONLSink) Power(e PowerEvent) {
	b := s.head("power", e.T.Seconds())
	b = jStr(b, "component", e.Component)
	b = jFloat(b, "watts", e.Watts)
	s.w.line(append(b, '}'))
}

var _ Sink = (*JSONLSink)(nil)

// csvHeader is the CSV sink's fixed wide-format column set. Columns not
// applicable to an event are left empty.
const csvHeader = "t,ev,frame,ftype,pred_cycles,slack_s,budget_s,opp,boost," +
	"from,to,freq_mhz,deadline_s,cycles,state,segment,from_rung,to_rung," +
	"rate_bps,level_s,ready,cap,component,watts"

// csvCols is the number of columns in csvHeader.
const csvCols = 24

// Column indices into the CSV row (t and ev are 0 and 1).
const (
	colFrame = 2 + iota
	colFType
	colPredCycles
	colSlackS
	colBudgetS
	colOPP
	colBoost
	colFrom
	colTo
	colFreqMHz
	colDeadlineS
	colCycles
	colState
	colSegment
	colFromRung
	colToRung
	colRateBps
	colLevelS
	colReady
	colCap
	colComponent
	colWatts
)

// CSVSink writes the event stream as a wide CSV: one fixed header, one
// row per event, inapplicable columns empty. Same determinism contract as
// the JSONL sink. Close flushes (and closes an io.Closer writer).
type CSVSink struct {
	w     writer
	cells [csvCols]string
}

// NewCSV returns a CSV sink over w with the header already written.
func NewCSV(w io.Writer) *CSVSink {
	s := &CSVSink{w: newWriter(w)}
	s.w.line(append(s.w.buf[:0], csvHeader...))
	return s
}

// Err returns the first write error, if any.
func (s *CSVSink) Err() error { return s.w.err }

// Close implements Sink.
func (s *CSVSink) Close() error { return s.w.close() }

func (s *CSVSink) row(ev string, t float64) {
	b := appendFloat(s.w.buf[:0], t)
	b = append(b, ',')
	b = append(b, ev...)
	for i := 2; i < csvCols; i++ {
		b = append(b, ',')
		b = append(b, s.cells[i]...)
		s.cells[i] = ""
	}
	s.w.line(b)
}

func cInt(v int) string       { return strconv.Itoa(v) }
func cFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Decision implements Tracer.
func (s *CSVSink) Decision(e DecisionEvent) {
	s.cells[colFrame] = cInt(e.Frame)
	s.cells[colFType] = e.Type.String()
	s.cells[colPredCycles] = cFloat(e.PredCycles)
	s.cells[colSlackS] = cFloat(e.Slack.Seconds())
	s.cells[colBudgetS] = cFloat(e.Budget.Seconds())
	s.cells[colOPP] = cInt(e.OPP)
	s.cells[colBoost] = strconv.FormatBool(e.Boost)
	s.row("decision", e.T.Seconds())
}

// Frame implements Tracer.
func (s *CSVSink) Frame(e FrameEvent) {
	s.cells[colFrame] = cInt(e.Frame)
	switch e.Stage {
	case StageDecodeStart:
		s.cells[colFType] = e.Type.String()
		s.cells[colDeadlineS] = cFloat(e.Deadline.Seconds())
	case StageDecodeEnd:
		s.cells[colFType] = e.Type.String()
		s.cells[colDeadlineS] = cFloat(e.Deadline.Seconds())
		s.cells[colCycles] = cFloat(e.Cycles)
	}
	s.row(e.Stage.String(), e.T.Seconds())
}

// OPP implements Tracer.
func (s *CSVSink) OPP(e OPPEvent) {
	s.cells[colFrom] = cInt(e.From)
	s.cells[colTo] = cInt(e.To)
	s.cells[colFreqMHz] = cFloat(e.FreqHz / 1e6)
	s.row("opp", e.T.Seconds())
}

// CPUBusy implements Tracer.
func (s *CSVSink) CPUBusy(e CPUBusyEvent) {
	if e.Busy {
		s.cells[colState] = "busy"
	} else if e.CState != "" {
		s.cells[colState] = e.CState
	} else {
		s.cells[colState] = "idle"
	}
	s.row("cpu_busy", e.T.Seconds())
}

// RRC implements Tracer.
func (s *CSVSink) RRC(e RRCEvent) {
	s.cells[colState] = e.State
	s.row("rrc", e.T.Seconds())
}

// ABR implements Tracer.
func (s *CSVSink) ABR(e ABREvent) {
	s.cells[colSegment] = cInt(e.Segment)
	s.cells[colFromRung] = cInt(e.FromRung)
	s.cells[colToRung] = cInt(e.ToRung)
	s.cells[colRateBps] = cFloat(e.RateBps)
	s.row("abr", e.T.Seconds())
}

// Buffer implements Tracer.
func (s *CSVSink) Buffer(e BufferEvent) {
	s.cells[colLevelS] = cFloat(e.LevelSec)
	s.cells[colReady] = cInt(e.Ready)
	s.cells[colCap] = cInt(e.Cap)
	s.row("buffer", e.T.Seconds())
}

// Playback implements Tracer.
func (s *CSVSink) Playback(e PlaybackEvent) {
	s.cells[colState] = "paused"
	if e.Playing {
		s.cells[colState] = "playing"
	}
	s.row("playback", e.T.Seconds())
}

// Power implements Tracer.
func (s *CSVSink) Power(e PowerEvent) {
	s.cells[colComponent] = e.Component
	s.cells[colWatts] = cFloat(e.Watts)
	s.row("power", e.T.Seconds())
}

var _ Sink = (*CSVSink)(nil)
