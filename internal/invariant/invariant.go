// Package invariant audits a simulation run against the conservation laws
// and scheduling invariants its results depend on. The Checker rides the
// trace.Tracer fan-out — it only observes the event stream, never perturbs
// it — and cross-checks the stream against itself during the run, then
// against the engine's own accounting (energy meter, residency counters,
// QoE report) at the end.
//
// Rule catalog (DESIGN.md §10):
//
//   - time-monotone: no event fires at t < Now() — every event timestamp
//     is finite, non-negative, and non-decreasing across the stream;
//   - opp-table: every OPP transition and governor decision names an index
//     inside the device's OPP table, transitions chain (From equals the
//     previous To), and the reported frequency is the table's, exactly;
//   - opp-residency: per-OPP dwell integrated from OPP events closes to
//     the run's end time, and matches the core's own residency counters;
//   - rrc-residency: radio-state dwell integrated from RRC events closes
//     to the end time and matches the radio's counters; state transitions
//     follow the RRC machine (FACH is only entered from DCH);
//   - cstate-residency: busy/idle dwell integrated from CPUBusy events
//     closes to the end time; with the cpuidle model armed, per-C-state
//     idle dwell matches the core's counters;
//   - energy-closure: per-component power events integrate to the energy
//     meter's per-component totals;
//   - buffer-bounds: the decoded-frame queue occupancy stays within
//     [0, capacity] and the media buffer level is finite and non-negative;
//   - frame-accounting: display slots are consumed exactly once and in
//     order, displayed-frame timestamps are monotone, every shown frame
//     was decoded first, and the counts conserve:
//     displayed + discarded + left-in-queue = decoded, and (on completed
//     sessions) displayed + dropped = total;
//   - power-sane: component power levels are finite and non-negative.
//
// Tolerance policy: closure checks compare two float64 accumulations of
// the same piecewise-constant signal. Both sides sum identical terms in
// identical order, so they agree to the last bit in practice; relTol
// (1e-9, relative with an absolute floor of 1) absorbs any associativity
// drift a future refactor might introduce without masking real
// bookkeeping bugs, which are orders of magnitude larger.
package invariant

import (
	"fmt"
	"math"

	"videodvfs/internal/sim"
	"videodvfs/internal/trace"
)

// Violation reports one broken invariant: which rule, when in virtual
// time, and what was observed versus expected. It is returned (wrapped)
// by experiments.Run for strict runs; unwrap with errors.As.
type Violation struct {
	// Rule names the broken rule from the package's rule catalog, e.g.
	// "energy-closure/cpu" or "buffer-bounds".
	Rule string
	// T is the virtual time the violation was detected at (the run's end
	// time for closure rules).
	T sim.Time
	// Observed and Expected are the offending values, when the rule
	// compares two quantities (both zero otherwise).
	Observed, Expected float64
	// Detail is a human-readable elaboration.
	Detail string
}

// Error implements error.
func (v *Violation) Error() string {
	if v.Observed == 0 && v.Expected == 0 {
		return fmt.Sprintf("invariant %s at t=%v: %s", v.Rule, v.T, v.Detail)
	}
	return fmt.Sprintf("invariant %s at t=%v: observed %v, expected %v: %s",
		v.Rule, v.T, v.Observed, v.Expected, v.Detail)
}

// Config arms a Checker with the run's static ground truth.
type Config struct {
	// OPPFreqsHz is the device's OPP table (frequency by index) — the
	// set chosen OPPs must come from.
	OPPFreqsHz []float64
	// CStateNames is the cpuidle ladder, shallowest first (the state the
	// core parks in at t = 0). nil when C-states are disabled.
	CStateNames []string
}

// relTol is the closure tolerance (see the package's tolerance policy).
const relTol = 1e-9

// Final carries the engine's own end-of-run accounting for Finalize to
// cross-check the event stream against.
type Final struct {
	// End is the run's final virtual time.
	End sim.Time
	// CPUJ, RadioJ, DisplayJ are the energy meter's per-component totals.
	CPUJ, RadioJ, DisplayJ float64
	// FreqResidency is the core's per-OPP dwell.
	FreqResidency map[int]sim.Time
	// RRCResidency is the radio's per-state dwell, keyed by state name.
	RRCResidency map[string]sim.Time
	// IdleResidency is the core's per-C-state dwell (nil when disabled).
	IdleResidency map[string]sim.Time
	// Displayed, Dropped, Total are the session's QoE frame counts.
	Displayed, Dropped, Total int
	// Decoded, Discarded, ReadyLeft are the decoder's work counts and the
	// decoded frames still queued at the end.
	Decoded, Discarded, ReadyLeft int
	// Completed reports whether the session finished within the horizon
	// (frame-total conservation only holds for completed sessions).
	Completed bool
}

// Checker is a trace.Tracer that audits the event stream. It records the
// first violation and keeps consuming events (the stream stays identical
// for every other tracer in the tee); read it with Err, or run the
// end-of-run closure checks with Finalize.
type Checker struct {
	cfg Config

	violation *Violation

	// Stream clock.
	lastT sim.Time

	// OPP tracking.
	oppIdx   int
	oppSince sim.Time
	oppDwell []sim.Time

	// RRC tracking (radio starts in IDLE at t = 0).
	rrcState string
	rrcSince sim.Time
	rrcDwell map[string]sim.Time

	// Busy/idle tracking (core starts idle at t = 0).
	busy       bool
	busySince  sim.Time
	busyDwell  sim.Time
	idleState  string
	idleSince  sim.Time
	idleDwell  map[string]sim.Time
	totalIdleT sim.Time

	// Energy integration per component.
	power map[string]*powerTrack

	// Frame accounting.
	decoded    map[int]struct{}
	decodeEnds int
	inFlight   int // in-flight decode frame index, -1 when none
	nextSlot   int // next display slot to be consumed (shown or dropped)
	shown      int
	dropped    int
	lastShownT sim.Time
}

type powerTrack struct {
	watts float64
	since sim.Time
	sum   float64
	seen  bool
}

// New returns a Checker armed with the run's ground truth.
func New(cfg Config) *Checker {
	c := &Checker{
		cfg:      cfg,
		oppDwell: make([]sim.Time, len(cfg.OPPFreqsHz)),
		rrcState: "IDLE",
		rrcDwell: make(map[string]sim.Time, 4),
		power:    make(map[string]*powerTrack, 4),
		decoded:  make(map[int]struct{}, 256),
		inFlight: -1,
	}
	if len(cfg.CStateNames) > 0 {
		c.idleState = cfg.CStateNames[0]
		c.idleDwell = make(map[string]sim.Time, len(cfg.CStateNames))
	}
	return c
}

// Err returns the first violation observed so far (nil if none).
func (c *Checker) Err() *Violation { return c.violation }

// fail records the first violation; later ones are dropped (the first is
// the root cause, everything after is usually fallout).
func (c *Checker) fail(rule string, t sim.Time, observed, expected float64, format string, args ...any) {
	if c.violation != nil {
		return
	}
	c.violation = &Violation{
		Rule: rule, T: t,
		Observed: observed, Expected: expected,
		Detail: fmt.Sprintf(format, args...),
	}
}

// clock enforces the time-monotone rule and advances the stream clock.
func (c *Checker) clock(t sim.Time) {
	if math.IsNaN(float64(t)) || math.IsInf(float64(t), 0) || t < 0 {
		c.fail("time-monotone", t, float64(t), 0, "event timestamp not a finite non-negative time")
		return
	}
	if t < c.lastT {
		c.fail("time-monotone", t, float64(t), float64(c.lastT),
			"event fired before the previous event's timestamp — time went backwards")
		return
	}
	c.lastT = t
}

// close2 reports whether two accumulations of the same signal agree
// within the tolerance policy (relative, with an absolute floor of 1).
func (c *Checker) close2(a, b float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= relTol*scale
}

// Decision implements trace.Tracer.
func (c *Checker) Decision(e trace.DecisionEvent) {
	c.clock(e.T)
	if e.OPP < 0 || e.OPP >= len(c.cfg.OPPFreqsHz) {
		c.fail("opp-table", e.T, float64(e.OPP), float64(len(c.cfg.OPPFreqsHz)-1),
			"governor decision chose OPP %d outside the device table [0, %d]", e.OPP, len(c.cfg.OPPFreqsHz)-1)
	}
	if math.IsNaN(e.PredCycles) || math.IsInf(e.PredCycles, 0) || e.PredCycles < 0 {
		c.fail("opp-table", e.T, e.PredCycles, 0, "decision predicted a non-finite or negative cycle demand")
	}
}

// Frame implements trace.Tracer.
func (c *Checker) Frame(e trace.FrameEvent) {
	c.clock(e.T)
	switch e.Stage {
	case trace.StageDecodeStart:
		if c.inFlight >= 0 {
			c.fail("frame-accounting", e.T, float64(e.Frame), float64(c.inFlight),
				"decode of frame %d started while frame %d was still in flight", e.Frame, c.inFlight)
			return
		}
		c.inFlight = e.Frame
	case trace.StageDecodeEnd:
		if c.inFlight != e.Frame {
			c.fail("frame-accounting", e.T, float64(e.Frame), float64(c.inFlight),
				"decode_end for frame %d does not match the in-flight frame %d", e.Frame, c.inFlight)
			return
		}
		if math.IsNaN(e.Cycles) || math.IsInf(e.Cycles, 0) || e.Cycles <= 0 {
			c.fail("frame-accounting", e.T, e.Cycles, 0, "frame %d decoded with a non-finite or non-positive cycle count", e.Frame)
		}
		c.inFlight = -1
		c.decoded[e.Frame] = struct{}{}
		c.decodeEnds++
	case trace.StageShown:
		if _, ok := c.decoded[e.Frame]; !ok {
			c.fail("frame-accounting", e.T, float64(e.Frame), 0,
				"frame %d shown without a preceding decode_end", e.Frame)
		}
		if e.T < c.lastShownT {
			c.fail("frame-accounting", e.T, float64(e.T), float64(c.lastShownT),
				"frame %d displayed before the previous frame's display time — display timestamps not monotone", e.Frame)
		}
		c.lastShownT = e.T
		c.consumeSlot(e.T, e.Frame)
		c.shown++
	case trace.StageDropped:
		c.consumeSlot(e.T, e.Frame)
		c.dropped++
	default:
		c.fail("frame-accounting", e.T, float64(e.Stage), 0, "unknown frame lifecycle stage %d", e.Stage)
	}
}

// consumeSlot enforces that display slots are consumed exactly once, in
// presentation order.
func (c *Checker) consumeSlot(t sim.Time, frame int) {
	if frame != c.nextSlot {
		c.fail("frame-accounting", t, float64(frame), float64(c.nextSlot),
			"display slot %d consumed out of order (expected slot %d)", frame, c.nextSlot)
		return
	}
	c.nextSlot++
}

// OPP implements trace.Tracer.
func (c *Checker) OPP(e trace.OPPEvent) {
	c.clock(e.T)
	n := len(c.cfg.OPPFreqsHz)
	if e.To < 0 || e.To >= n {
		c.fail("opp-table", e.T, float64(e.To), float64(n-1),
			"OPP transition to index %d outside the device table [0, %d]", e.To, n-1)
		return
	}
	if e.From != c.oppIdx {
		c.fail("opp-table", e.T, float64(e.From), float64(c.oppIdx),
			"OPP transition claims From=%d but the core was at OPP %d", e.From, c.oppIdx)
	}
	if e.FreqHz != c.cfg.OPPFreqsHz[e.To] {
		c.fail("opp-table", e.T, e.FreqHz, c.cfg.OPPFreqsHz[e.To],
			"OPP %d reported frequency %v Hz, table says %v Hz", e.To, e.FreqHz, c.cfg.OPPFreqsHz[e.To])
	}
	c.oppDwell[c.oppIdx] += e.T - c.oppSince
	c.oppIdx = e.To
	c.oppSince = e.T
}

// rrcTransitions is the RRC machine's legal (from, to) edge set:
// promotions land in DCH, FACH is only reachable by demotion from DCH.
var rrcTransitions = map[[2]string]bool{
	{"IDLE", "DCH"}: true, {"FACH", "DCH"}: true,
	{"DCH", "FACH"}: true, {"DCH", "IDLE"}: true, {"FACH", "IDLE"}: true,
}

// RRC implements trace.Tracer.
func (c *Checker) RRC(e trace.RRCEvent) {
	c.clock(e.T)
	switch e.State {
	case "IDLE", "FACH", "DCH":
	default:
		c.fail("rrc-residency", e.T, 0, 0, "unknown RRC state %q", e.State)
		return
	}
	if !rrcTransitions[[2]string{c.rrcState, e.State}] {
		c.fail("rrc-residency", e.T, 0, 0, "illegal RRC transition %s→%s", c.rrcState, e.State)
	}
	c.rrcDwell[c.rrcState] += e.T - c.rrcSince
	c.rrcState = e.State
	c.rrcSince = e.T
}

// CPUBusy implements trace.Tracer.
func (c *Checker) CPUBusy(e trace.CPUBusyEvent) {
	c.clock(e.T)
	if e.Busy == c.busy {
		c.fail("cstate-residency", e.T, 0, 0, "repeated busy=%v transition — busy/idle events must alternate", e.Busy)
		return
	}
	if e.Busy {
		// Wake: close the idle interval.
		d := e.T - c.idleSince
		c.totalIdleT += d
		if c.idleDwell != nil {
			c.idleDwell[c.idleState] += d
		}
		c.busy = true
		c.busySince = e.T
		return
	}
	// Idle entry: close the busy interval, note the C-state entered.
	c.busyDwell += e.T - c.busySince
	c.busy = false
	c.idleSince = e.T
	if c.idleDwell != nil {
		c.idleState = e.CState
		if e.CState == "" {
			c.fail("cstate-residency", e.T, 0, 0, "idle entry without a C-state name while the cpuidle model is armed")
		}
	}
}

// ABR implements trace.Tracer.
func (c *Checker) ABR(e trace.ABREvent) {
	c.clock(e.T)
	if math.IsNaN(e.RateBps) || math.IsInf(e.RateBps, 0) || e.RateBps <= 0 {
		c.fail("buffer-bounds", e.T, e.RateBps, 0, "ABR switch to a non-finite or non-positive bitrate")
	}
}

// Buffer implements trace.Tracer.
func (c *Checker) Buffer(e trace.BufferEvent) {
	c.clock(e.T)
	if e.Cap < 1 {
		c.fail("buffer-bounds", e.T, float64(e.Cap), 1, "decoded-queue capacity %d below 1", e.Cap)
	}
	if e.Ready < 0 || e.Ready > e.Cap {
		c.fail("buffer-bounds", e.T, float64(e.Ready), float64(e.Cap),
			"decoded-frame queue occupancy %d outside [0, %d]", e.Ready, e.Cap)
	}
	if math.IsNaN(e.LevelSec) || math.IsInf(e.LevelSec, 0) || e.LevelSec < 0 {
		c.fail("buffer-bounds", e.T, e.LevelSec, 0, "media buffer level not a finite non-negative second count")
	}
}

// Playback implements trace.Tracer.
func (c *Checker) Playback(e trace.PlaybackEvent) {
	c.clock(e.T)
}

// Power implements trace.Tracer.
func (c *Checker) Power(e trace.PowerEvent) {
	c.clock(e.T)
	if e.Component == "" {
		c.fail("power-sane", e.T, 0, 0, "power event without a component name")
		return
	}
	if math.IsNaN(e.Watts) || math.IsInf(e.Watts, 0) || e.Watts < 0 {
		c.fail("power-sane", e.T, e.Watts, 0, "component %q reported a non-finite or negative draw", e.Component)
		return
	}
	tr, ok := c.power[e.Component]
	if !ok {
		tr = &powerTrack{}
		c.power[e.Component] = tr
	}
	if tr.seen {
		tr.sum += tr.watts * (e.T - tr.since).Seconds()
	}
	tr.watts = e.Watts
	tr.since = e.T
	tr.seen = true
}

// energyJ closes one component's power integral at end.
func (c *Checker) energyJ(component string, end sim.Time) float64 {
	tr, ok := c.power[component]
	if !ok || !tr.seen {
		return 0
	}
	return tr.sum + tr.watts*(end-tr.since).Seconds()
}

// Finalize runs the end-of-run closure checks against the engine's own
// accounting and returns the first violation of the whole run (stream
// violations take precedence), or nil when every invariant held.
func (c *Checker) Finalize(f Final) *Violation {
	if c.violation != nil {
		return c.violation
	}
	end := f.End
	if end < c.lastT {
		c.fail("time-monotone", c.lastT, float64(c.lastT), float64(end),
			"an event fired after the run's reported end time")
		return c.violation
	}

	// opp-residency: the stream's dwell closes to the end time and
	// matches the core's counters.
	c.oppDwell[c.oppIdx] += end - c.oppSince
	c.oppSince = end
	var oppSum sim.Time
	for idx, d := range c.oppDwell {
		oppSum += d
		if got := f.FreqResidency[idx]; !c.close2(d.Seconds(), got.Seconds()) {
			c.fail("opp-residency", end, d.Seconds(), got.Seconds(),
				"OPP %d dwell from the event stream disagrees with the core's residency counter", idx)
			return c.violation
		}
	}
	if !c.close2(oppSum.Seconds(), end.Seconds()) {
		c.fail("opp-residency", end, oppSum.Seconds(), end.Seconds(),
			"per-OPP dwell does not close to the run's end time")
		return c.violation
	}

	// rrc-residency.
	c.rrcDwell[c.rrcState] += end - c.rrcSince
	c.rrcSince = end
	var rrcSum sim.Time
	for state, d := range c.rrcDwell {
		rrcSum += d
		if got := f.RRCResidency[state]; !c.close2(d.Seconds(), got.Seconds()) {
			c.fail("rrc-residency", end, d.Seconds(), got.Seconds(),
				"RRC %s dwell from the event stream disagrees with the radio's residency counter", state)
			return c.violation
		}
	}
	// A state the stream never visited must not carry dwell in the
	// radio's counters either; the loop above only covers stream keys.
	for state, got := range f.RRCResidency {
		if _, ok := c.rrcDwell[state]; ok {
			continue
		}
		if !c.close2(0, got.Seconds()) {
			c.fail("rrc-residency", end, 0, got.Seconds(),
				"radio reports dwell in RRC %s but the event stream never entered it", state)
			return c.violation
		}
	}
	if !c.close2(rrcSum.Seconds(), end.Seconds()) {
		c.fail("rrc-residency", end, rrcSum.Seconds(), end.Seconds(),
			"per-state RRC dwell does not close to the run's end time")
		return c.violation
	}

	// cstate-residency: busy + idle closes to the end time; per-state
	// idle dwell matches the core when the cpuidle model is armed.
	busy, idle := c.busyDwell, c.totalIdleT
	if c.busy {
		busy += end - c.busySince
	} else {
		idleTail := end - c.idleSince
		idle += idleTail
		if c.idleDwell != nil {
			c.idleDwell[c.idleState] += idleTail
		}
	}
	if !c.close2((busy + idle).Seconds(), end.Seconds()) {
		c.fail("cstate-residency", end, (busy + idle).Seconds(), end.Seconds(),
			"busy + idle dwell does not close to the run's end time")
		return c.violation
	}
	if c.idleDwell != nil {
		for state, d := range c.idleDwell {
			if got := f.IdleResidency[state]; !c.close2(d.Seconds(), got.Seconds()) {
				c.fail("cstate-residency", end, d.Seconds(), got.Seconds(),
					"C-state %s dwell from the event stream disagrees with the core's counter", state)
				return c.violation
			}
		}
		for state, got := range f.IdleResidency {
			if _, ok := c.idleDwell[state]; ok {
				continue
			}
			if !c.close2(0, got.Seconds()) {
				c.fail("cstate-residency", end, 0, got.Seconds(),
					"core reports dwell in C-state %s but the event stream never entered it", state)
				return c.violation
			}
		}
	}

	// energy-closure: the stream's power integrals match the meter.
	for _, comp := range [...]struct {
		name   string
		meterJ float64
	}{{"cpu", f.CPUJ}, {"radio", f.RadioJ}, {"display", f.DisplayJ}} {
		got := c.energyJ(comp.name, end)
		if !c.close2(got, comp.meterJ) {
			c.fail("energy-closure/"+comp.name, end, got, comp.meterJ,
				"power events integrate to %v J but the meter accumulated %v J", got, comp.meterJ)
			return c.violation
		}
	}

	// frame-accounting: stream counts match the session and decoder, and
	// the conservation identities hold.
	if c.shown != f.Displayed || c.dropped != f.Dropped {
		c.fail("frame-accounting", end, float64(c.shown+c.dropped), float64(f.Displayed+f.Dropped),
			"stream saw %d shown + %d dropped, session reports %d + %d",
			c.shown, c.dropped, f.Displayed, f.Dropped)
		return c.violation
	}
	if c.decodeEnds != f.Decoded {
		c.fail("frame-accounting", end, float64(c.decodeEnds), float64(f.Decoded),
			"stream saw %d decode completions, decoder reports %d", c.decodeEnds, f.Decoded)
		return c.violation
	}
	if f.Displayed+f.Discarded+f.ReadyLeft != f.Decoded {
		c.fail("frame-accounting", end, float64(f.Displayed+f.Discarded+f.ReadyLeft), float64(f.Decoded),
			"displayed (%d) + discarded (%d) + queued (%d) does not conserve decoded frames (%d)",
			f.Displayed, f.Discarded, f.ReadyLeft, f.Decoded)
		return c.violation
	}
	if f.Completed && f.Displayed+f.Dropped != f.Total {
		c.fail("frame-accounting", end, float64(f.Displayed+f.Dropped), float64(f.Total),
			"completed session displayed %d + dropped %d frames of %d total", f.Displayed, f.Dropped, f.Total)
		return c.violation
	}
	return nil
}

var _ trace.Tracer = (*Checker)(nil)
