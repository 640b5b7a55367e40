package trace

import (
	"errors"
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
	s := NewJSONL(&cw)
	s.RRC(RRCEvent{T: 1, State: "IDLE"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if cw.closed != 1 {
		t.Fatalf("underlying writer closed %d times, want 1", cw.closed)
	}
}

// counter counts the events it receives.
type counter struct{ n int }

func (c *counter) Decision(DecisionEvent) { c.n++ }
func (c *counter) Frame(FrameEvent)       { c.n++ }
func (c *counter) OPP(OPPEvent)           { c.n++ }
func (c *counter) CPUBusy(CPUBusyEvent)   { c.n++ }
func (c *counter) RRC(RRCEvent)           { c.n++ }
func (c *counter) ABR(ABREvent)           { c.n++ }
func (c *counter) Buffer(BufferEvent)     { c.n++ }
func (c *counter) Playback(PlaybackEvent) { c.n++ }
func (c *counter) Power(PowerEvent)       { c.n++ }

func TestNopAndTee(t *testing.T) {
	c1, c2 := &counter{}, &counter{}
	tee := Tee{Nop{}, c1, c2}
	feedAll(tee)
	if c1.n != 13 || c2.n != 13 {
		t.Fatalf("tee fan-out lost events: %d / %d, want 13", c1.n, c2.n)
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
