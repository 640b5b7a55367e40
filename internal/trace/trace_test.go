package trace

import (
	"errors"
	"math"
	"strings"
	"testing"

	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

// feedAll pushes one event of every kind through tr at increasing times.
func feedAll(tr Tracer) {
	tr.Decision(DecisionEvent{T: 0.5, Frame: 42, Type: video.FrameP,
		PredCycles: 3e7, Slack: 20 * sim.Millisecond, Budget: 33 * sim.Millisecond, OPP: 2})
	tr.Frame(FrameEvent{T: 0.5, Stage: StageDecodeStart, Frame: 42,
		Type: video.FrameP, Deadline: 0.6})
	tr.Frame(FrameEvent{T: 0.51, Stage: StageDecodeEnd, Frame: 42,
		Type: video.FrameP, Deadline: 0.6, Cycles: 2.5e7})
	tr.Frame(FrameEvent{T: 0.6, Stage: StageShown, Frame: 42})
	tr.Frame(FrameEvent{T: 0.7, Stage: StageDropped, Frame: 43})
	tr.OPP(OPPEvent{T: 0.75, From: 0, To: 2, FreqHz: 2e9})
	tr.CPUBusy(CPUBusyEvent{T: 0.8, Busy: true})
	tr.CPUBusy(CPUBusyEvent{T: 0.85, Busy: false, CState: "C2"})
	tr.RRC(RRCEvent{T: 0.9, State: "DCH"})
	tr.ABR(ABREvent{T: 1, Segment: 3, FromRung: 1, ToRung: 2, RateBps: 4.5e6})
	tr.Buffer(BufferEvent{T: 1.1, LevelSec: 7.25, Ready: 5, Cap: 8})
	tr.Playback(PlaybackEvent{T: 1.2, Playing: true})
	tr.Power(PowerEvent{T: 1.3, Component: "cpu", Watts: 1.5})
}

func TestJSONLSerialization(t *testing.T) {
	var sb strings.Builder
	s := NewJSONL(&sb)
	feedAll(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		`{"t":0.5,"ev":"decision","frame":42,"ftype":"P","pred_cycles":3e+07,"slack_s":0.02,"budget_s":0.033,"opp":2,"boost":false}`,
		`{"t":0.5,"ev":"decode_start","frame":42,"ftype":"P","deadline_s":0.6}`,
		`{"t":0.51,"ev":"decode_end","frame":42,"ftype":"P","deadline_s":0.6,"cycles":2.5e+07}`,
		`{"t":0.6,"ev":"frame_shown","frame":42}`,
		`{"t":0.7,"ev":"frame_drop","frame":43}`,
		`{"t":0.75,"ev":"opp","from":0,"to":2,"freq_mhz":2000}`,
		`{"t":0.8,"ev":"cpu_busy","busy":true}`,
		`{"t":0.85,"ev":"cpu_busy","busy":false,"cstate":"C2"}`,
		`{"t":0.9,"ev":"rrc","state":"DCH"}`,
		`{"t":1,"ev":"abr","segment":3,"from_rung":1,"to_rung":2,"rate_bps":4.5e+06}`,
		`{"t":1.1,"ev":"buffer","level_s":7.25,"ready":5,"cap":8}`,
		`{"t":1.2,"ev":"playback","playing":true}`,
		`{"t":1.3,"ev":"power","component":"cpu","watts":1.5}`,
	}
	got := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(got), len(want), sb.String())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
}

func TestCSVSerialization(t *testing.T) {
	var sb strings.Builder
	s := NewCSV(&sb)
	feedAll(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if lines[0] != csvHeader {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 14 { // header + 13 events
		t.Fatalf("got %d lines, want 14", len(lines))
	}
	for i, ln := range lines {
		if n := strings.Count(ln, ","); n != csvCols-1 {
			t.Errorf("line %d has %d commas, want %d: %q", i+1, n, csvCols-1, ln)
		}
	}
	// Spot-check a full row and that cells reset between events: the
	// decision row fills the decision columns, and the following
	// decode_start row must not inherit them.
	if want := "0.5,decision,42,P,3e+07,0.02,0.033,2,false,,,,,,,,,,,,,,,"; lines[1] != want {
		t.Errorf("decision row:\n got %s\nwant %s", lines[1], want)
	}
	if want := "0.5,decode_start,42,P,,,,,,,,,0.6,,,,,,,,,,,"; lines[2] != want {
		t.Errorf("decode_start row:\n got %s\nwant %s", lines[2], want)
	}
	// CPUBusy folds busy/cstate/idle into the state column; Playback
	// writes playing/paused there.
	if !strings.Contains(lines[7], ",busy,") {
		t.Errorf("busy row missing state: %s", lines[7])
	}
	if !strings.Contains(lines[8], ",C2,") {
		t.Errorf("idle row missing C-state: %s", lines[8])
	}
	if !strings.Contains(lines[12], ",playing,") {
		t.Errorf("playback row missing state: %s", lines[12])
	}
}

func TestCSVIdleWithoutCState(t *testing.T) {
	var sb strings.Builder
	s := NewCSV(&sb)
	s.CPUBusy(CPUBusyEvent{T: 1, Busy: false})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), ",idle,") {
		t.Fatalf("want bare idle marker, got %q", sb.String())
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

func TestSinkWriteErrorSurfacesOnClose(t *testing.T) {
	s := NewJSONL(&failWriter{n: 16})
	for i := 0; i < 10000; i++ {
		s.Playback(PlaybackEvent{T: sim.Time(i), Playing: true})
	}
	if err := s.Close(); err == nil {
		t.Fatal("want write error from Close")
	}
}

// closeCounter records whether the sink closed its writer.
type closeCounter struct {
	strings.Builder
	closed int
}

func (c *closeCounter) Close() error { c.closed++; return nil }

func TestSinkClosesUnderlyingCloser(t *testing.T) {
	var cw closeCounter
	s := NewCSV(&cw)
	s.RRC(RRCEvent{T: 1, State: "IDLE"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if cw.closed != 1 {
		t.Fatalf("underlying writer closed %d times, want 1", cw.closed)
	}
}

func TestNopAndTee(t *testing.T) {
	c1, c2 := NewCollector(), NewCollector()
	tee := Tee{Nop{}, c1, c2}
	feedAll(tee)
	m1, m2 := c1.Finalize(2), c2.Finalize(2)
	if m1.Events != 13 || m2.Events != 13 {
		t.Fatalf("tee fan-out lost events: %d / %d, want 13", m1.Events, m2.Events)
	}
}

func TestFrameStageString(t *testing.T) {
	want := map[FrameStage]string{
		StageDecodeStart: "decode_start",
		StageDecodeEnd:   "decode_end",
		StageShown:       "frame_shown",
		StageDropped:     "frame_drop",
		FrameStage(0):    "?",
	}
	for stage, name := range want {
		if got := stage.String(); got != name {
			t.Errorf("stage %d = %q, want %q", stage, got, name)
		}
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestCollectorRollup(t *testing.T) {
	c := NewCollector()

	// Decisions: one boost (no slack sample), one normal with a
	// prediction scored by the matching decode_end.
	c.Decision(DecisionEvent{T: 0, Frame: 0, OPP: 1, Boost: true})
	c.Decision(DecisionEvent{T: 1, Frame: 7, PredCycles: 3e7,
		Slack: 20 * sim.Millisecond, OPP: 0})
	c.Frame(FrameEvent{T: 1, Stage: StageDecodeStart, Frame: 7})
	c.Frame(FrameEvent{T: 1.01, Stage: StageDecodeEnd, Frame: 7, Cycles: 2.5e7})
	c.Frame(FrameEvent{T: 1.1, Stage: StageShown, Frame: 7})
	c.Frame(FrameEvent{T: 1.2, Stage: StageShown, Frame: 8})
	c.Frame(FrameEvent{T: 1.3, Stage: StageDropped, Frame: 9})

	// OPP dwell: 0 for [0, 0.5) and [2, 3), 1 for [0.5, 2).
	c.OPP(OPPEvent{T: 0.5, From: 0, To: 1, FreqHz: 2e9})
	c.OPP(OPPEvent{T: 2, From: 1, To: 0, FreqHz: 1e9})

	// RRC dwell: DCH [0.2, 2.2), FACH [2.2, 3).
	c.RRC(RRCEvent{T: 0.2, State: "DCH"})
	c.RRC(RRCEvent{T: 2.2, State: "FACH"})

	// ABR: initial pick (FromRung −1) is not a switch; the second is.
	c.ABR(ABREvent{T: 0.1, Segment: 0, FromRung: -1, ToRung: 2, RateBps: 4.5e6})
	c.ABR(ABREvent{T: 2.1, Segment: 5, FromRung: 2, ToRung: 1, RateBps: 2.5e6})

	// Power: cpu at 2 W over [0, 1.5), then 0.5 W to the end — the
	// integral crosses two bin boundaries.
	c.Power(PowerEvent{T: 0, Component: "cpu", Watts: 2})
	c.Power(PowerEvent{T: 1.5, Component: "cpu", Watts: 0.5})

	m := c.Finalize(3)

	if m.End != 3 {
		t.Errorf("End = %v", m.End)
	}
	if m.Events != 15 {
		t.Errorf("Events = %d, want 15", m.Events)
	}
	if m.Decisions != 2 || m.BoostDecisions != 1 {
		t.Errorf("decisions %d/%d, want 2/1", m.Decisions, m.BoostDecisions)
	}
	if m.DecisionOPP[0] != 1 || m.DecisionOPP[1] != 1 {
		t.Errorf("DecisionOPP = %v", m.DecisionOPP)
	}
	if len(m.SlackS) != 1 || !approx(m.SlackS[0], 0.02) {
		t.Errorf("slack = %v", m.SlackS)
	}
	if len(m.PredRelErr) != 1 || !approx(m.PredRelErr[0], 0.2) {
		t.Errorf("pred rel err = %v, want [0.2]", m.PredRelErr)
	}
	if n := m.DecodeLatency.N(); n != 1 {
		t.Errorf("decode latency samples = %d, want 1", n)
	}
	if m.FramesShown != 2 || m.FramesDropped != 1 {
		t.Errorf("shown/dropped = %d/%d, want 2/1", m.FramesShown, m.FramesDropped)
	}
	if m.OPPSwitches != 2 {
		t.Errorf("OPPSwitches = %d, want 2", m.OPPSwitches)
	}
	if !approx(m.OPPResidency[0].Seconds(), 1.5) || !approx(m.OPPResidency[1].Seconds(), 1.5) {
		t.Errorf("OPPResidency = %v", m.OPPResidency)
	}
	if !approx(m.RRCResidency["DCH"].Seconds(), 2.0) || !approx(m.RRCResidency["FACH"].Seconds(), 0.8) {
		t.Errorf("RRCResidency = %v", m.RRCResidency)
	}
	if m.RungSwitches != 1 {
		t.Errorf("RungSwitches = %d, want 1", m.RungSwitches)
	}
	if !approx(m.EnergyJ["cpu"], 2*1.5+0.5*1.5) {
		t.Errorf("EnergyJ = %v, want 3.75", m.EnergyJ["cpu"])
	}
	// Timeline: [0,1) all at 2 W; [1,2) is 2 W for 0.5 s + 0.5 W for
	// 0.5 s; [2,3) at 0.5 W.
	if len(m.Timeline) != 3 {
		t.Fatalf("timeline bins = %d, want 3", len(m.Timeline))
	}
	for i, wantJ := range []float64{2, 1.25, 0.5} {
		if !approx(m.Timeline[i].J["cpu"], wantJ) {
			t.Errorf("bin %d = %v J, want %v", i, m.Timeline[i].J["cpu"], wantJ)
		}
		if m.Timeline[i].Start != sim.Time(i) {
			t.Errorf("bin %d start = %v", i, m.Timeline[i].Start)
		}
	}
}

func TestCollectorFinalizeUsesLatestEventTime(t *testing.T) {
	c := NewCollector()
	c.Power(PowerEvent{T: 0, Component: "cpu", Watts: 1})
	c.Playback(PlaybackEvent{T: 5, Playing: false})
	m := c.Finalize(2) // earlier than the last event
	if m.End != 5 {
		t.Fatalf("End = %v, want the last event time 5", m.End)
	}
	if !approx(m.EnergyJ["cpu"], 5) {
		t.Fatalf("EnergyJ = %v, want 5", m.EnergyJ["cpu"])
	}
}
