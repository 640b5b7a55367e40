package player

import (
	"math"
	"testing"

	"videodvfs/internal/abr"
	"videodvfs/internal/cpu"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

// fakeFetcher delivers bits at a fixed rate with no radio modelling.
type fakeFetcher struct {
	eng      *sim.Engine
	bps      float64
	extra    sim.Time
	onActive func(now sim.Time, active bool)
	fetches  int
}

func (f *fakeFetcher) Fetch(bits float64, onDone func(now sim.Time)) error {
	f.fetches++
	if f.onActive != nil {
		f.onActive(f.eng.Now(), true)
	}
	f.eng.Schedule(f.extra+sim.Time(bits/f.bps), func() {
		if f.onActive != nil {
			f.onActive(f.eng.Now(), false)
		}
		if onDone != nil {
			onDone(f.eng.Now())
		}
	})
	return nil
}

func (f *fakeFetcher) OnActive(fn func(now sim.Time, active bool)) { f.onActive = fn }

// flatStream builds a stream with constant per-frame bits and cycles.
func flatStream(fps float64, seconds, bitrateBps, cycles float64) *video.Stream {
	spec := video.DefaultSpec(video.TitleNews, video.R360p)
	spec.FPS = fps
	spec.BitrateBps = bitrateBps
	n := int(fps * seconds)
	frames := make([]video.Frame, n)
	for i := range frames {
		frames[i] = video.Frame{
			Index:  i,
			Type:   video.FrameP,
			PTS:    sim.Time(float64(i) / fps),
			Bits:   bitrateBps / fps,
			Cycles: cycles,
		}
	}
	return &video.Stream{Spec: spec, Frames: frames}
}

func singleOPPCore(t *testing.T, hz float64) (*sim.Engine, *cpu.Core) {
	t.Helper()
	eng := sim.NewEngine()
	core, err := cpu.NewCore(eng, cpu.Model{
		Name: "test",
		OPPs: []cpu.OPP{{FreqHz: hz, VoltageV: 1, ActiveW: 1, IdleW: 0.1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, core
}

func runSession(t *testing.T, eng *sim.Engine, core *cpu.Core, bps float64, stream *video.Stream, cfg Config) *Session {
	t.Helper()
	fet := &fakeFetcher{eng: eng, bps: bps}
	s, err := NewSession(eng, core, fet, []*video.Stream{stream}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	eng.RunUntil(10 * sim.Minute)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	return s
}

func TestSessionHappyPath(t *testing.T) {
	eng, core := singleOPPCore(t, 1e9)
	stream := flatStream(30, 10, 1e6, 1e6) // 1 ms decode per 33 ms slot
	s := runSession(t, eng, core, 10e6, stream, DefaultConfig())
	m := s.Metrics()
	if !m.Completed {
		t.Fatal("session did not complete")
	}
	if m.DroppedFrames != 0 || m.RebufferCount != 0 {
		t.Fatalf("unexpected QoE loss: %+v", m)
	}
	if m.DisplayedFrames != 300 || m.TotalFrames != 300 {
		t.Fatalf("frame accounting: %+v", m)
	}
	// Startup: 4 s of 1 Mbps content at 10 Mbps ≈ 0.4 s + decode.
	if m.StartupDelay <= 0 || m.StartupDelay > sim.Second {
		t.Fatalf("startup delay %v implausible", m.StartupDelay)
	}
	// Session ≈ startup + 10 s of playback.
	want := m.StartupDelay + 10*sim.Second
	if math.Abs(float64(m.SessionDur-want)) > 0.1 {
		t.Fatalf("session duration %v, want ≈%v", m.SessionDur, want)
	}
}

func TestSessionSlowCPUDropsFrames(t *testing.T) {
	eng, core := singleOPPCore(t, 1e9)
	// 50 ms decode per 33 ms slot: decoder sustains ~2/3 of fps.
	stream := flatStream(30, 10, 1e6, 50e6)
	s := runSession(t, eng, core, 10e6, stream, DefaultConfig())
	m := s.Metrics()
	if !m.Completed {
		t.Fatal("session did not complete")
	}
	if m.DropRate() < 0.2 {
		t.Fatalf("drop rate %.2f, want ≥ 0.2 under 1.5× overload", m.DropRate())
	}
	if m.DisplayedFrames+m.DroppedFrames != m.TotalFrames {
		t.Fatalf("frames do not add up: %+v", m)
	}
}

func TestSessionSlowNetworkRebuffers(t *testing.T) {
	eng, core := singleOPPCore(t, 1e9)
	// Content at 2 Mbps over a 1 Mbps link: sustained starvation.
	stream := flatStream(30, 20, 2e6, 1e6)
	s := runSession(t, eng, core, 1e6, stream, DefaultConfig())
	m := s.Metrics()
	if !m.Completed {
		t.Fatal("session did not complete")
	}
	if m.RebufferCount == 0 || m.RebufferTime <= 0 {
		t.Fatalf("expected rebuffering: %+v", m)
	}
	if m.DroppedFrames != 0 {
		t.Fatalf("network starvation must stall, not drop: %+v", m)
	}
	// Total wall time ≈ download-bound: 20 s of content needs ≥ 40 s.
	if m.SessionDur < 38*sim.Second {
		t.Fatalf("session %v too fast for a 2× undersized link", m.SessionDur)
	}
}

func TestSessionBufferCapRespected(t *testing.T) {
	eng, core := singleOPPCore(t, 1e9)
	stream := flatStream(30, 60, 1e6, 1e6)
	cfg := DefaultConfig()
	cfg.MaxBufferSec = 10
	fet := &fakeFetcher{eng: eng, bps: 100e6}
	s, err := NewSession(eng, core, fet, []*video.Stream{stream}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxSeen := 0.0
	s.OnDone(func() {})
	probe := sim.NewTicker(eng, 100*sim.Millisecond, func(sim.Time) {
		if b := s.BufferSec(); b > maxSeen {
			maxSeen = b
		}
	})
	defer probe.Stop()
	s.Start()
	eng.RunUntil(5 * sim.Minute)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	// One segment of slack over the cap is allowed (fetch decided below
	// the cap completes above it).
	if maxSeen > cfg.MaxBufferSec+2.1 {
		t.Fatalf("buffer reached %.1f s, cap %v", maxSeen, cfg.MaxBufferSec)
	}
	if !s.Metrics().Completed {
		t.Fatal("session did not complete")
	}
}

func TestSessionABRSwitchesUpOnGoodNetwork(t *testing.T) {
	eng, core := singleOPPCore(t, 2e9)
	ladder, err := video.GenerateLadder(video.TitleNews, 30, video.DefaultLadder(), 30*sim.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ABR = abr.RateBased{}
	fet := &fakeFetcher{eng: eng, bps: 20e6}
	s, err := NewSession(eng, core, fet, ladder, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	eng.RunUntil(10 * sim.Minute)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	m := s.Metrics()
	if !m.Completed {
		t.Fatal("session did not complete")
	}
	// First segment at rung 0 (no estimate), then up to the top rung:
	// at least one switch, and a mean bitrate well above rung 0.
	if m.RungSwitches == 0 {
		t.Fatal("rate-based ABR never switched on a 20 Mbps link")
	}
	if m.MeanRungBps < 2e6 {
		t.Fatalf("mean bitrate %.1f Mbps too low", m.MeanRungBps/1e6)
	}
}

type captureHooks struct {
	NopSessionHooks
	playback []bool
	download []bool
	buffers  int
	starts   int
}

func (h *captureHooks) PlaybackState(_ sim.Time, playing bool) {
	h.playback = append(h.playback, playing)
}
func (h *captureHooks) DownloadActivity(_ sim.Time, a bool)                   { h.download = append(h.download, a) }
func (h *captureHooks) BufferState(sim.Time, float64, int, int)               { h.buffers++ }
func (h *captureHooks) DecodeStart(sim.Time, video.Frame, sim.Time, int, int) { h.starts++ }

func TestSessionHooksWiring(t *testing.T) {
	eng, core := singleOPPCore(t, 1e9)
	stream := flatStream(30, 5, 1e6, 1e6)
	cfg := DefaultConfig()
	h := &captureHooks{}
	cfg.Hooks = h
	fet := &fakeFetcher{eng: eng, bps: 10e6}
	s, err := NewSession(eng, core, fet, []*video.Stream{stream}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	eng.RunUntil(2 * sim.Minute)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	if len(h.playback) < 3 || h.playback[0] || !h.playback[1] {
		t.Fatalf("playback transitions = %v, want [false true ... false]", h.playback)
	}
	if h.playback[len(h.playback)-1] {
		t.Fatal("final playback state should be false")
	}
	if len(h.download) == 0 {
		t.Fatal("download activity hook never fired")
	}
	if h.buffers == 0 || h.starts != 150 {
		t.Fatalf("buffer updates=%d decode starts=%d (want 150 starts)", h.buffers, h.starts)
	}
}

func TestSessionValidation(t *testing.T) {
	eng, core := singleOPPCore(t, 1e9)
	stream := flatStream(30, 5, 1e6, 1e6)
	fet := &fakeFetcher{eng: eng, bps: 1e6}

	if _, err := NewSession(eng, core, fet, nil, DefaultConfig()); err == nil {
		t.Error("want error for no renditions")
	}
	if _, err := NewSession(eng, core, nil, []*video.Stream{stream}, DefaultConfig()); err == nil {
		t.Error("want error for nil fetcher")
	}
	bad := DefaultConfig()
	bad.DecodedQueueCap = 0
	if _, err := NewSession(eng, core, fet, []*video.Stream{stream}, bad); err == nil {
		t.Error("want error for zero queue cap")
	}
	// Mismatched renditions.
	short := flatStream(30, 4, 2e6, 1e6)
	if _, err := NewSession(eng, core, fet, []*video.Stream{stream, short}, DefaultConfig()); err == nil {
		t.Error("want error for frame-count mismatch")
	}
	otherFPS := flatStream(60, 2.5, 2e6, 1e6)
	if _, err := NewSession(eng, core, fet, []*video.Stream{stream, otherFPS}, DefaultConfig()); err == nil {
		t.Error("want error for fps mismatch")
	}
	sameRate := flatStream(30, 5, 1e6, 1e6)
	if _, err := NewSession(eng, core, fet, []*video.Stream{stream, sameRate}, DefaultConfig()); err == nil {
		t.Error("want error for non-ascending bitrates")
	}
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.StartupSec = 0 },
		func(c *Config) { c.ResumeSec = 0 },
		func(c *Config) { c.MaxBufferSec = 1 },
		func(c *Config) { c.SegmentDur = 0 },
		func(c *Config) { c.ABR = nil },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

func TestMetricsDerivedRates(t *testing.T) {
	m := Metrics{TotalFrames: 100, DroppedFrames: 5, SessionDur: 10 * sim.Second, RebufferTime: sim.Second}
	if math.Abs(m.DropRate()-0.05) > 1e-12 {
		t.Fatalf("DropRate = %v", m.DropRate())
	}
	if math.Abs(m.RebufferRatio()-0.1) > 1e-12 {
		t.Fatalf("RebufferRatio = %v", m.RebufferRatio())
	}
	var zero Metrics
	if zero.DropRate() != 0 || zero.RebufferRatio() != 0 {
		t.Fatal("zero metrics should report zero rates")
	}
}

func TestSessionIncompleteAtHorizon(t *testing.T) {
	eng, core := singleOPPCore(t, 1e9)
	stream := flatStream(30, 600, 2e6, 1e6)
	s := func() *Session {
		fet := &fakeFetcher{eng: eng, bps: 2.5e6}
		s, err := NewSession(eng, core, fet, []*video.Stream{stream}, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		eng.RunUntil(30 * sim.Second)
		return s
	}()
	if s.Metrics().Completed {
		t.Fatal("metrics should not claim completion")
	}
}

// TestSessionResetCancelsWhatItScheduled rewinds a playing session on an
// engine that keeps running, at a moment when the display tick is all it
// has pending (every segment fetched, the core idle): the old tick must
// not fire on the rewound session, where it would stall a session that
// never started and begin fetching for it.
func TestSessionResetCancelsWhatItScheduled(t *testing.T) {
	eng, core := singleOPPCore(t, 1e9)
	stream := flatStream(30, 10, 1e6, 1e6)
	fet := &fakeFetcher{eng: eng, bps: 10e6}
	s, err := NewSession(eng, core, fet, []*video.Stream{stream}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	for s.Metrics().DisplayedFrames < 60 || !s.allFetched() || core.Busy() {
		eng.RunUntil(eng.Now() + sim.Millisecond)
	}
	if err := s.Reset([]*video.Stream{stream}, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	fetches := fet.fetches
	eng.RunUntil(eng.Now() + 5*sim.Second)
	if m := s.Metrics(); m != (Metrics{}) || fet.fetches != fetches {
		t.Fatalf("a reset session that was never started moved: metrics %+v, %d new fetches", m, fet.fetches-fetches)
	}
	s.Start()
	eng.RunUntil(eng.Now() + 10*sim.Minute)
	if m := s.Metrics(); !m.Completed || m.DisplayedFrames != 300 || m.RebufferCount != 0 {
		t.Fatalf("the restarted session played %+v", m)
	}
}

// recordingABR captures every State the session feeds the ABR, delegating
// the decision to the wrapped algorithm.
type recordingABR struct {
	abr.Algorithm
	states []abr.State
	rungs  []int
}

func (r *recordingABR) NextRung(s abr.State) int {
	st := s
	st.Rates = append([]float64(nil), s.Rates...)
	r.states = append(r.states, st)
	rung := r.Algorithm.NextRung(s)
	r.rungs = append(r.rungs, rung)
	return rung
}

// TestSessionFirstSegmentColdStartRung is the regression for the ABR
// cold-start bug: the session's first NextRung call feeds the throughput
// EWMA before any sample warmed it, so the estimate is exactly 0 and the
// rate-based ABR must pick rung 0 by the documented cold-start contract —
// never a rung derived from the degenerate estimate.
func TestSessionFirstSegmentColdStartRung(t *testing.T) {
	eng, core := singleOPPCore(t, 1e9)
	ladder := []*video.Stream{
		flatStream(30, 10, 1e6, 1e6),
		flatStream(30, 10, 4e6, 1e6),
		flatStream(30, 10, 8e6, 1e6),
	}
	rec := &recordingABR{Algorithm: abr.RateBased{}}
	cfg := DefaultConfig()
	cfg.ABR = rec
	fet := &fakeFetcher{eng: eng, bps: 50e6} // plenty for the top rung once warmed
	s, err := NewSession(eng, core, fet, ladder, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	eng.RunUntil(10 * sim.Minute)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	if len(rec.states) == 0 {
		t.Fatal("ABR never consulted")
	}
	if got := rec.states[0].ThroughputBps; got != 0 {
		t.Fatalf("first NextRung saw throughput %v, want the unwarmed EWMA's 0", got)
	}
	if rec.rungs[0] != 0 {
		t.Fatalf("first segment fetched at rung %d, want the cold-start rung 0", rec.rungs[0])
	}
	// Once the estimator warms, the fast link carries the ABR upward.
	if last := rec.rungs[len(rec.rungs)-1]; last != 2 {
		t.Fatalf("warmed ABR ended at rung %d, want 2", last)
	}
}

// TestResetSegmentTableNoResurrection guards the segment-table memoization
// against stale entries resurfacing from the slices' backing arrays. A
// recycled session that shrinks its rendition set (re-slicing segments and
// segSrc down) and later grows it back can see the old entries again; if
// the segment duration changed in between, those entries hold tables cut
// at the old duration and must be rebuilt, not reused. With a session-wide
// duration stamp the stale entries passed the check, leaving
// len(segments[rung]) < numSegs and an index-out-of-range panic the first
// time the ABR climbed to that rung.
func TestResetSegmentTableNoResurrection(t *testing.T) {
	eng, core := singleOPPCore(t, 1e9)
	ladder := []*video.Stream{
		flatStream(30, 12, 1e6, 1e6),
		flatStream(30, 12, 2e6, 1e6),
		flatStream(30, 12, 4e6, 1e6),
	}
	fet := &fakeFetcher{eng: eng, bps: 50e6}

	cfg := DefaultConfig()
	cfg.SegmentDur = 2 * sim.Second
	s, err := NewSession(eng, core, fet, ladder, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Shrink to one rendition at a shorter segment duration...
	cfg.SegmentDur = 1 * sim.Second
	if err := s.Reset(ladder[:1], cfg); err != nil {
		t.Fatal(err)
	}
	// ...then grow back: rungs 1 and 2 reappear from the backing array
	// with 2 s tables and must be re-cut at 1 s.
	if err := s.Reset(ladder, cfg); err != nil {
		t.Fatal(err)
	}
	for i := range s.segments {
		if got := len(s.segments[i].segs); got != s.numSegs {
			t.Fatalf("rung %d has %d segments, want %d: stale table resurrected across Reset", i, got, s.numSegs)
		}
	}
}
