// Package trace is the simulation's structured observability layer: a
// Tracer interface receiving typed events from every simulated subsystem
// (governor decisions, frame decode lifecycle, OPP and C-state
// transitions, RRC state changes, ABR rung switches, buffer and power
// samples) and one serializer, JSONLSink. The stream's one accountant is
// the invariant checker (internal/invariant), which integrates it against
// the engine's own counters on strict runs.
//
// Emission is allocation-free by construction: events are small value
// structs passed to concrete interface methods (no boxing), and every
// emit site in the simulation guards with a nil check, so the default
// untraced run pays a single predictable branch per event and zero
// allocations.
//
// Determinism: the simulation engine is single-threaded and all model
// randomness derives from the run seed, so the event stream — order,
// timestamps, and payloads — is a pure function of the RunConfig. The sink
// formats floats with strconv's shortest round-trip representation, making
// JSONL output byte-identical across same-seed runs, platforms, and
// worker counts. The golden test in this package pins that contract.
package trace

import (
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

// FrameStage is the lifecycle point a FrameEvent reports.
type FrameStage uint8

// Frame lifecycle stages.
const (
	// StageDecodeStart marks the frame's decode job being issued.
	StageDecodeStart FrameStage = iota + 1
	// StageDecodeEnd marks decode completion (Cycles carries the
	// measured demand).
	StageDecodeEnd
	// StageShown marks the frame reaching the display on time — a
	// deadline hit.
	StageShown
	// StageDropped marks a display slot skipped because decode was late.
	StageDropped
)

// String returns the stage's event name as used in sink output.
func (s FrameStage) String() string {
	switch s {
	case StageDecodeStart:
		return "decode_start"
	case StageDecodeEnd:
		return "decode_end"
	case StageShown:
		return "frame_shown"
	case StageDropped:
		return "frame_drop"
	default:
		return "?"
	}
}

// DecisionEvent is one governor frequency decision at decode start: what
// the policy predicted, how much slack it had, and which OPP it chose.
// Only decision-per-frame policies (energyaware, oracle) emit these; the
// oracle reports the frame's true demand as PredCycles.
type DecisionEvent struct {
	// T is the decision time.
	T sim.Time
	// Frame is the frame index in presentation order.
	Frame int
	// Type is the frame coding type.
	Type video.FrameType
	// PredCycles is the predicted decode demand (zero on cold-predictor
	// boosts, where no prediction exists yet).
	PredCycles float64
	// Slack is deadline − now − guard at decision time.
	Slack sim.Time
	// Budget is the time the queue-setpoint rule allotted the frame
	// (zero on boosts).
	Budget sim.Time
	// OPP is the chosen OPP index.
	OPP int
	// Boost reports a forced top-OPP decision (startup, cold predictor,
	// or exhausted slack).
	Boost bool
}

// FrameEvent is one frame lifecycle transition.
type FrameEvent struct {
	// T is the event time.
	T sim.Time
	// Stage is the lifecycle point.
	Stage FrameStage
	// Frame is the frame index.
	Frame int
	// Type is the coding type (zero for Shown/Dropped, which fire after
	// the coded frame is gone).
	Type video.FrameType
	// Deadline is the frame's scheduled display time (decode stages).
	Deadline sim.Time
	// Cycles is the measured decode demand (StageDecodeEnd only).
	Cycles float64
}

// OPPEvent is one DVFS operating-point transition.
type OPPEvent struct {
	// T is the transition time.
	T sim.Time
	// From and To are OPP indices.
	From, To int
	// FreqHz is the new operating frequency.
	FreqHz float64
}

// CPUBusyEvent is one busy/idle transition of the CPU core.
type CPUBusyEvent struct {
	// T is the transition time.
	T sim.Time
	// Busy reports whether the core started (true) or stopped (false)
	// executing.
	Busy bool
	// CState names the C-state entered on idle (empty without the
	// cpuidle model or on wake).
	CState string
}

// RRCEvent is one radio resource control state change.
type RRCEvent struct {
	// T is the transition time.
	T sim.Time
	// State is the new state's name (IDLE, FACH, DCH).
	State string
}

// ABREvent is one adaptation decision that changed the rendition rung
// (the initial pick fires with FromRung −1).
type ABREvent struct {
	// T is the decision time.
	T sim.Time
	// Segment is the segment index about to be fetched.
	Segment int
	// FromRung and ToRung are ladder indices.
	FromRung, ToRung int
	// RateBps is the new rung's bitrate.
	RateBps float64
}

// BufferEvent is one media-buffer level sample (each displayed frame and
// each segment arrival).
type BufferEvent struct {
	// T is the sample time.
	T sim.Time
	// LevelSec is the media buffer level in seconds of content.
	LevelSec float64
	// Ready and Cap are the decoded-queue occupancy and capacity.
	Ready, Cap int
}

// PlaybackEvent is one playback state transition (start, stall, resume,
// finish).
type PlaybackEvent struct {
	// T is the transition time.
	T sim.Time
	// Playing reports whether the display is consuming frames.
	Playing bool
}

// PowerEvent is one piecewise-constant power level change of a device
// component.
type PowerEvent struct {
	// T is the change time.
	T sim.Time
	// Component is the energy-meter component name (cpu, radio,
	// display).
	Component string
	// Watts is the new draw.
	Watts float64
}

// Tracer receives the simulation's typed event stream. Implementations
// must not retain references past the call (arguments are stack values)
// and must be cheap: they run inside the event loop. A nil Tracer in
// RunConfig disables tracing entirely; emit sites never call through a
// nil interface.
type Tracer interface {
	// Decision receives governor frequency decisions.
	Decision(DecisionEvent)
	// Frame receives frame lifecycle transitions.
	Frame(FrameEvent)
	// OPP receives DVFS transitions.
	OPP(OPPEvent)
	// CPUBusy receives core busy/idle transitions.
	CPUBusy(CPUBusyEvent)
	// RRC receives radio state changes.
	RRC(RRCEvent)
	// ABR receives rung switches.
	ABR(ABREvent)
	// Buffer receives media-buffer samples.
	Buffer(BufferEvent)
	// Playback receives playback state transitions.
	Playback(PlaybackEvent)
	// Power receives component power changes.
	Power(PowerEvent)
}

// Sink is a Tracer writing to an external medium; Close flushes buffers
// and releases the underlying writer (closing it when it implements
// io.Closer).
type Sink interface {
	Tracer
	// Close flushes and releases the sink. It must be called once,
	// after the run completes.
	Close() error
}

// Nop is the no-op Tracer: every method does nothing. It exists for
// embedding and for call sites that want a non-nil default; the
// simulation's own hot paths use nil checks instead so the untraced
// path stays allocation- and call-free.
type Nop struct{}

// Decision implements Tracer.
func (Nop) Decision(DecisionEvent) {}

// Frame implements Tracer.
func (Nop) Frame(FrameEvent) {}

// OPP implements Tracer.
func (Nop) OPP(OPPEvent) {}

// CPUBusy implements Tracer.
func (Nop) CPUBusy(CPUBusyEvent) {}

// RRC implements Tracer.
func (Nop) RRC(RRCEvent) {}

// ABR implements Tracer.
func (Nop) ABR(ABREvent) {}

// Buffer implements Tracer.
func (Nop) Buffer(BufferEvent) {}

// Playback implements Tracer.
func (Nop) Playback(PlaybackEvent) {}

// Power implements Tracer.
func (Nop) Power(PowerEvent) {}

var _ Tracer = Nop{}

// Tee fans every event out to each child in order. Children that are
// also Sinks are not closed by the tee; close them individually.
type Tee []Tracer

// Decision implements Tracer.
func (t Tee) Decision(e DecisionEvent) {
	for _, c := range t {
		c.Decision(e)
	}
}

// Frame implements Tracer.
func (t Tee) Frame(e FrameEvent) {
	for _, c := range t {
		c.Frame(e)
	}
}

// OPP implements Tracer.
func (t Tee) OPP(e OPPEvent) {
	for _, c := range t {
		c.OPP(e)
	}
}

// CPUBusy implements Tracer.
func (t Tee) CPUBusy(e CPUBusyEvent) {
	for _, c := range t {
		c.CPUBusy(e)
	}
}

// RRC implements Tracer.
func (t Tee) RRC(e RRCEvent) {
	for _, c := range t {
		c.RRC(e)
	}
}

// ABR implements Tracer.
func (t Tee) ABR(e ABREvent) {
	for _, c := range t {
		c.ABR(e)
	}
}

// Buffer implements Tracer.
func (t Tee) Buffer(e BufferEvent) {
	for _, c := range t {
		c.Buffer(e)
	}
}

// Playback implements Tracer.
func (t Tee) Playback(e PlaybackEvent) {
	for _, c := range t {
		c.Playback(e)
	}
}

// Power implements Tracer.
func (t Tee) Power(e PowerEvent) {
	for _, c := range t {
		c.Power(e)
	}
}

var _ Tracer = Tee{}
