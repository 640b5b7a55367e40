package netsim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"videodvfs/internal/sim"
)

// ErrInvalidTrace reports a bandwidth trace rejected by validation or the
// JSONL decoder: non-finite or negative values, non-monotonic timestamps,
// overlapping samples, malformed lines. Callers distinguish it with
// errors.Is; RunConfig.Validate additionally wraps it in ErrInvalidConfig
// so trace-backed configs fail through the standard taxonomy.
var ErrInvalidTrace = errors.New("invalid bandwidth trace")

// MaxTraceSamples bounds how many samples ReadTrace will accept: one
// sample per ~64 KiB chunk means even an hour-long gigabit recording
// stays far below it, while a hostile input cannot allocate unboundedly.
const MaxTraceSamples = 1 << 20

// TraceSample is one recorded transfer chunk: Bytes payload bytes
// observed on the wire during [Start, End). Fetch tags the download the
// chunk belonged to, so replay can tell mid-transfer stalls (gaps inside
// one fetch: the link delivered nothing) from idle time between fetches
// (the player simply wasn't asking).
type TraceSample struct {
	// Start is when the chunk's first byte was observed, on the
	// recording's session timeline.
	Start sim.Time
	// End is when the chunk's last byte was observed; strictly after
	// Start.
	End sim.Time
	// Bytes is the chunk payload in bytes (positive).
	Bytes float64
	// Fetch is the zero-based index of the download this chunk belongs
	// to; non-decreasing across samples.
	Fetch int
}

// rate returns the sample's mean delivery rate in bits/s.
func (s TraceSample) rate() float64 {
	return s.Bytes * 8 / (s.End - s.Start).Seconds()
}

// Trace replays a recorded bandwidth/timing trace as a piecewise-constant
// Bandwidth: the trace-driven netsim backend (RunConfig.Net = "trace").
//
// Rate semantics, chosen so a replayed player reproduces the recorded
// transfer behavior without being brittle to small timing misalignment:
//
//   - inside a sample, the link runs at the sample's measured mean rate;
//   - in a gap between two samples of the same fetch, the link delivers
//     nothing (rate 0) — the recording proves the wire stalled there
//     (ON-OFF shaping, throttling, loss recovery);
//   - in a gap between fetches (and before the first sample), the link
//     runs at the next sample's rate — that idle time was the recorded
//     player's choice, not the network's, so a replayed fetch issued
//     slightly early must not stall on it;
//   - after the last sample, the last rate holds forever, so replays
//     longer than the recording degrade gracefully instead of starving.
type Trace struct {
	// Samples is the chunk list, ascending and non-overlapping in time.
	Samples []TraceSample
}

// Validate checks the sample list: finite positive-duration samples,
// positive byte counts, global time monotonicity without overlap, and
// non-decreasing fetch indexes. Errors match ErrInvalidTrace.
func (t Trace) Validate() error {
	if len(t.Samples) == 0 {
		return fmt.Errorf("netsim: %w: no samples", ErrInvalidTrace)
	}
	for i, s := range t.Samples {
		if !isFinite(float64(s.Start)) || !isFinite(float64(s.End)) || !isFinite(s.Bytes) {
			return fmt.Errorf("netsim: %w: sample %d has non-finite fields", ErrInvalidTrace, i)
		}
		if s.Start < 0 {
			return fmt.Errorf("netsim: %w: sample %d starts at negative time %v", ErrInvalidTrace, i, s.Start)
		}
		if s.End <= s.Start {
			return fmt.Errorf("netsim: %w: sample %d spans [%v, %v], not positive", ErrInvalidTrace, i, s.Start, s.End)
		}
		if s.Bytes <= 0 {
			return fmt.Errorf("netsim: %w: sample %d carries %v bytes", ErrInvalidTrace, i, s.Bytes)
		}
		if s.Fetch < 0 {
			return fmt.Errorf("netsim: %w: sample %d has negative fetch index %d", ErrInvalidTrace, i, s.Fetch)
		}
		if i > 0 {
			if s.Start < t.Samples[i-1].End {
				return fmt.Errorf("netsim: %w: sample %d starts at %v before sample %d ends at %v",
					ErrInvalidTrace, i, s.Start, i-1, t.Samples[i-1].End)
			}
			if s.Fetch < t.Samples[i-1].Fetch {
				return fmt.Errorf("netsim: %w: sample %d fetch index %d decreases from %d",
					ErrInvalidTrace, i, s.Fetch, t.Samples[i-1].Fetch)
			}
		}
	}
	return nil
}

// Rate implements Bandwidth; see the type comment for the replay
// semantics. The trace must have been validated — Rate assumes ordered
// samples.
func (t Trace) Rate(now sim.Time) (float64, sim.Time) {
	n := len(t.Samples)
	if n == 0 {
		return 0, sim.Forever
	}
	// First sample still (partly) ahead of now.
	i := sort.Search(n, func(i int) bool { return t.Samples[i].End > now })
	if i == n {
		// Past the recording: hold the final rate.
		return t.Samples[n-1].rate(), sim.Forever
	}
	s := t.Samples[i]
	if now >= s.Start {
		return s.rate(), s.End
	}
	// In the gap before sample i.
	if i > 0 && t.Samples[i-1].Fetch == s.Fetch {
		// Mid-fetch stall: the wire was provably silent here.
		return 0, s.Start
	}
	// Between fetches (or lead-in before the first): the upcoming rate.
	return s.rate(), s.End
}

// Duration returns the end of the last sample (zero for an empty trace).
func (t Trace) Duration() sim.Time {
	if len(t.Samples) == 0 {
		return 0
	}
	return t.Samples[len(t.Samples)-1].End
}

// TotalBytes sums the recorded payload.
func (t Trace) TotalBytes() float64 {
	var sum float64
	for _, s := range t.Samples {
		sum += s.Bytes
	}
	return sum
}

// Fetches returns the number of distinct downloads in the trace.
func (t Trace) Fetches() int {
	if len(t.Samples) == 0 {
		return 0
	}
	return t.Samples[len(t.Samples)-1].Fetch + 1
}

// FetchBytes returns per-fetch byte totals, indexed by fetch.
func (t Trace) FetchBytes() []float64 {
	if len(t.Samples) == 0 {
		return nil
	}
	out := make([]float64, t.Fetches())
	for _, s := range t.Samples {
		out[s.Fetch] += s.Bytes
	}
	return out
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// traceHeader is the first JSONL line of a trace file, versioning the
// format.
type traceHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
}

// traceLine is the wire form of one sample: timestamps in seconds on the
// recording's session timeline.
type traceLine struct {
	T0    float64 `json:"t0"`
	T1    float64 `json:"t1"`
	Bytes float64 `json:"bytes"`
	Fetch int     `json:"fetch"`
}

const (
	traceFormat  = "videodvfs-bwtrace"
	traceVersion = 1
)

// WriteTrace emits the trace as JSONL: a header line
// {"format":"videodvfs-bwtrace","version":1} followed by one
// {"t0","t1","bytes","fetch"} object per sample, timestamps in seconds
// with shortest-round-trip floats. The output of WriteTrace always
// re-reads via ReadTrace byte-losslessly for a valid trace.
func WriteTrace(w io.Writer, t Trace) error {
	bw := bufio.NewWriter(w)
	hdr, err := json.Marshal(traceHeader{Format: traceFormat, Version: traceVersion})
	if err != nil {
		return fmt.Errorf("netsim: marshal trace header: %w", err)
	}
	bw.Write(hdr)
	bw.WriteByte('\n')
	buf := make([]byte, 0, 96)
	for _, s := range t.Samples {
		// Hand-rolled object for shortest-round-trip floats: json.Marshal
		// would also round-trip float64 exactly, but this pins the byte
		// form (field order, 'g' formatting) the golden testdata relies on.
		buf = append(buf[:0], `{"t0":`...)
		buf = strconv.AppendFloat(buf, s.Start.Seconds(), 'g', -1, 64)
		buf = append(buf, `,"t1":`...)
		buf = strconv.AppendFloat(buf, s.End.Seconds(), 'g', -1, 64)
		buf = append(buf, `,"bytes":`...)
		buf = strconv.AppendFloat(buf, s.Bytes, 'g', -1, 64)
		buf = append(buf, `,"fetch":`...)
		buf = strconv.AppendInt(buf, int64(s.Fetch), 10)
		buf = append(buf, '}', '\n')
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("netsim: write trace: %w", err)
		}
	}
	return bw.Flush()
}

// ReadTrace parses a JSONL bandwidth trace produced by WriteTrace (or by
// the dvfsstress recorder). The decoder is strict: the header line must
// match the known format and version, every sample line must be a JSON
// object with no unknown fields, and the assembled trace must pass
// Validate. All rejections — including NaN/Inf timestamps, negative
// values, and non-monotonic samples — return errors matching
// ErrInvalidTrace; no input panics.
func ReadTrace(r io.Reader) (Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return Trace{}, fmt.Errorf("netsim: read trace: %w", err)
		}
		return Trace{}, fmt.Errorf("netsim: %w: empty trace file", ErrInvalidTrace)
	}
	var hdr traceHeader
	if err := decodeStrictLine(sc.Bytes(), &hdr); err != nil {
		return Trace{}, fmt.Errorf("netsim: %w: header: %v", ErrInvalidTrace, err)
	}
	if hdr.Format != traceFormat {
		return Trace{}, fmt.Errorf("netsim: %w: header format %q, want %q", ErrInvalidTrace, hdr.Format, traceFormat)
	}
	if hdr.Version != traceVersion {
		return Trace{}, fmt.Errorf("netsim: %w: unsupported trace version %d", ErrInvalidTrace, hdr.Version)
	}
	var t Trace
	for line := 2; sc.Scan(); line++ {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue // tolerate a trailing newline
		}
		if len(t.Samples) >= MaxTraceSamples {
			return Trace{}, fmt.Errorf("netsim: %w: more than %d samples", ErrInvalidTrace, MaxTraceSamples)
		}
		var l traceLine
		if err := decodeStrictLine(raw, &l); err != nil {
			return Trace{}, fmt.Errorf("netsim: %w: line %d: %v", ErrInvalidTrace, line, err)
		}
		t.Samples = append(t.Samples, TraceSample{
			Start: sim.Time(l.T0),
			End:   sim.Time(l.T1),
			Bytes: l.Bytes,
			Fetch: l.Fetch,
		})
	}
	if err := sc.Err(); err != nil {
		return Trace{}, fmt.Errorf("netsim: read trace: %w", err)
	}
	if err := t.Validate(); err != nil {
		return Trace{}, err
	}
	return t, nil
}

// decodeStrictLine unmarshals exactly one JSON object from a line,
// rejecting unknown fields and trailing non-whitespace.
func decodeStrictLine(line []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON object")
	}
	return nil
}
