package player

import (
	"fmt"

	"videodvfs/internal/abr"
	"videodvfs/internal/decode"
	"videodvfs/internal/energy"
	"videodvfs/internal/sim"
	"videodvfs/internal/stats"
	"videodvfs/internal/trace"
	"videodvfs/internal/video"
)

// Fetcher is the downloader interface the session consumes
// (netsim.Downloader implements it).
type Fetcher interface {
	// Fetch downloads bits and calls onDone at completion.
	Fetch(bits float64, onDone func(now sim.Time)) error
	// OnActive registers the busy/idle listener.
	OnActive(fn func(now sim.Time, active bool))
}

// Session is one streaming playback session.
type Session struct {
	eng   *sim.Engine
	core  decode.Submitter
	fet   Fetcher
	cfg   Config
	hooks SessionHooks

	segments []segTable // per rendition, in ladder order
	rates    []float64  // per-rendition bitrates, handed to the ABR
	fps      float64
	numSegs  int
	total    int

	dec *decode.Decoder

	// Download state.
	nextSeg   int
	lastRung  int
	fetching  bool
	draining  bool      // burst mode: waiting for the buffer to hit low water
	planSeg   []float64 // scratch for the predictive planner's segment sizes
	tput      *stats.EWMA
	bitsSum   float64
	segsSum   int
	downLoade int // contiguous frames delivered to the decoder

	// In-flight fetch state. Exactly one fetch is outstanding at a time
	// (guarded by fetching), so fields plus the pre-bound fetchDoneFn
	// replace a per-fetch closure on the hot path.
	fetchRung   int
	fetchSeg    video.Segment
	fetchStart  sim.Time
	fetchDoneFn func(now sim.Time)

	// Playback state.
	started    bool
	playing    bool
	playhead   int
	nextTickAt sim.Time
	tickEv     sim.Event
	tickFn     func() // pre-bound s.tick, scheduled once per displayed frame
	stallStart sim.Time
	startedAt  sim.Time

	metrics Metrics
	done    bool
	onDone  []func()
	err     error

	// activityFn is the pre-bound downloader-activity listener; it reads
	// s.hooks at call time, so re-registering it after a fetcher reset
	// routes to whatever hooks the current run installed.
	activityFn func(now sim.Time, active bool)
}

// segTable is one rendition's segment table, the stream's shared one or
// the session's own, plus the stream (by pointer) and segment duration it
// was cut from, so Reset can keep the table when a recycled session
// replays the same immutable stream. The stamp lives with
// the table it describes: the rendition count can shrink and grow back
// across resets, and a stale entry resurfacing from the slice's backing
// array must not pass the check on the strength of a stamp some other
// rendition earned.
type segTable struct {
	segs []video.Segment
	src  *video.Stream
	dur  sim.Time
}

// NewSession builds a session over scene-aligned renditions (one per
// ladder rung, ascending bitrate; a single rendition is fine with a Fixed
// ABR). core may be a single cpu.Core or a cluster router implementing
// decode.Submitter. The session keeps the streams, not the slice, so the
// caller may reuse the slice's backing array once NewSession or Reset
// returns.
func NewSession(eng *sim.Engine, core decode.Submitter, fet Fetcher, renditions []*video.Stream, cfg Config) (*Session, error) {
	if fet == nil || core == nil {
		return nil, fmt.Errorf("player: fetcher and core are required")
	}
	s := &Session{
		eng:      eng,
		core:     core,
		fet:      fet,
		lastRung: -1,
		tput:     stats.NewEWMA(throughputAlpha),
	}
	if err := s.configure(renditions, cfg); err != nil {
		return nil, err
	}
	s.tickFn = s.tick
	s.fetchDoneFn = s.fetchDone
	s.activityFn = func(now sim.Time, active bool) { s.hooks.DownloadActivity(now, active) }
	dec, err := decode.New(eng, core, cfg.DecodedQueueCap, s.deadlineOf, s.hooks)
	if err != nil {
		return nil, err
	}
	s.dec = dec
	dec.OnReady(func(video.Frame) { s.tryStartOrResume() })
	fet.OnActive(s.activityFn)
	return s, nil
}

// configure validates (renditions, cfg) and installs them: config, wrapped
// hooks, bitrate table, and per-rung segment tables, reusing any segment
// table whose source stream and segment duration are unchanged (streams
// are immutable after generation, so identity implies identical segments).
// A stream that carries its own table at cfg.SegmentDur lends it, read-only
// (video.Stream.Segments); otherwise the session cuts its own.
func (s *Session) configure(renditions []*video.Stream, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(renditions) == 0 {
		return fmt.Errorf("player: no renditions")
	}
	base := renditions[0]
	for i, r := range renditions {
		if len(r.Frames) != len(base.Frames) {
			return fmt.Errorf("player: rendition %d has %d frames, rung 0 has %d", i, len(r.Frames), len(base.Frames))
		}
		if r.Spec.FPS != base.Spec.FPS {
			return fmt.Errorf("player: rendition %d fps %v differs from rung 0 (%v)", i, r.Spec.FPS, base.Spec.FPS)
		}
		if i > 0 && r.Spec.BitrateBps <= renditions[i-1].Spec.BitrateBps {
			return fmt.Errorf("player: renditions not ascending by bitrate at %d", i)
		}
	}
	hooks := cfg.Hooks
	if hooks == nil {
		hooks = NopSessionHooks{}
	}
	if cfg.Tracer != nil {
		hooks = tracingHooks{SessionHooks: hooks, tr: cfg.Tracer}
	}
	s.cfg = cfg
	s.hooks = hooks
	s.fps = base.Spec.FPS
	s.total = len(base.Frames)
	if cap(s.rates) < len(renditions) {
		s.rates = make([]float64, len(renditions))
		s.segments = make([]segTable, len(renditions))
	} else {
		s.rates = s.rates[:len(renditions)]
		s.segments = s.segments[:len(renditions)]
	}
	for i, r := range renditions {
		s.rates[i] = r.Spec.BitrateBps
		t := &s.segments[i]
		if t.src == r && t.dur == cfg.SegmentDur {
			continue
		}
		segs, err := r.Segments(cfg.SegmentDur)
		if err != nil {
			t.src = nil
			return fmt.Errorf("player: rendition %d: %w", i, err)
		}
		*t = segTable{segs: segs, src: r, dur: cfg.SegmentDur}
	}
	s.numSegs = len(s.segments[0].segs)
	return nil
}

// Reset rewinds the session to the state NewSession would construct for
// (renditions, cfg), keeping its allocations: segment tables for unchanged
// streams, the completion-callback list's backing array, the decoder (and
// its queues), and every pre-bound callback survive. A pending display
// tick is canceled. The core and fetcher the session was built over must
// be reset alongside by the caller; the fetcher's activity listener is
// re-registered here since a fetcher reset drops it.
func (s *Session) Reset(renditions []*video.Stream, cfg Config) error {
	if err := s.configure(renditions, cfg); err != nil {
		return err
	}
	if err := s.dec.Reset(cfg.DecodedQueueCap, s.hooks); err != nil {
		return err
	}
	s.fet.OnActive(s.activityFn)
	s.nextSeg = 0
	s.lastRung = -1
	s.fetching = false
	s.draining = false
	s.tput.Reinit(throughputAlpha)
	s.bitsSum = 0
	s.segsSum = 0
	s.downLoade = 0
	s.fetchRung = 0
	s.fetchSeg = video.Segment{}
	s.fetchStart = 0
	s.started = false
	s.playing = false
	s.playhead = 0
	s.nextTickAt = 0
	s.eng.Cancel(s.tickEv)
	s.tickEv = sim.Event{}
	s.stallStart = 0
	s.startedAt = 0
	s.metrics = Metrics{}
	s.done = false
	for i := range s.onDone {
		s.onDone[i] = nil
	}
	s.onDone = s.onDone[:0]
	s.err = nil
	return nil
}

// Start begins fetching; playback starts once the startup buffer fills.
func (s *Session) Start() {
	s.startedAt = s.eng.Now()
	s.metrics.TotalFrames = s.total
	if s.cfg.Meter != nil {
		s.cfg.Meter.Set(energy.ComponentDisplay, displayPowerW)
	}
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Power(trace.PowerEvent{T: s.eng.Now(), Component: energy.ComponentDisplay, Watts: displayPowerW})
	}
	s.hooks.StreamInfo(s.fps, s.total)
	s.hooks.PlaybackState(s.eng.Now(), false)
	s.maybeFetch()
}

// OnDone registers a completion callback.
func (s *Session) OnDone(fn func()) { s.onDone = append(s.onDone, fn) }

// Err returns the first internal error, if any.
func (s *Session) Err() error {
	if s.err != nil {
		return s.err
	}
	return s.dec.Err()
}

// Metrics returns the QoE summary (final once Done).
func (s *Session) Metrics() Metrics { return s.metrics }

// Decoder exposes the decode worker (for experiment inspection).
func (s *Session) Decoder() *decode.Decoder { return s.dec }

// BufferSec returns the media buffer level in seconds of content ahead of
// the playhead.
func (s *Session) BufferSec() float64 {
	return float64(s.downLoade-s.playhead) / s.fps
}

// deadlineOf returns the frame's current scheduled display time. Before
// playback (startup or stall) frames are urgent: racing restores QoE.
func (s *Session) deadlineOf(f video.Frame) sim.Time {
	if !s.playing {
		return s.eng.Now()
	}
	return s.nextTickAt + sim.Time(float64(f.Index-s.playhead)/s.fps)
}

func (s *Session) allFetched() bool { return s.nextSeg >= s.numSegs }

func (s *Session) maybeFetch() {
	if s.fetching || s.allFetched() || s.done {
		return
	}
	if s.BufferSec() >= s.cfg.MaxBufferSec {
		s.draining = s.cfg.LowWaterSec > 0
		return // re-entered from display ticks as the buffer drains
	}
	if s.draining {
		if s.cfg.Forecast != nil {
			if !s.shouldStartBurst() {
				return // predictive defer: re-evaluated every display tick
			}
		} else if s.BufferSec() > s.cfg.LowWaterSec {
			return // hysteresis: let the radio sleep until low water
		}
		s.draining = false
	}
	rung := s.cfg.ABR.NextRung(abr.State{
		ThroughputBps: s.tput.Value(),
		BufferSec:     s.BufferSec(),
		LastRung:      s.lastRung,
		Rates:         s.rates,
	})
	if s.lastRung >= 0 && rung != s.lastRung {
		s.metrics.RungSwitches++
	}
	if s.cfg.Tracer != nil && rung != s.lastRung {
		s.cfg.Tracer.ABR(trace.ABREvent{T: s.eng.Now(), Segment: s.nextSeg,
			FromRung: s.lastRung, ToRung: rung, RateBps: s.rates[rung]})
	}
	seg := s.segments[rung].segs[s.nextSeg]
	s.fetching = true
	s.fetchRung = rung
	s.fetchSeg = seg
	s.fetchStart = s.eng.Now()
	err := s.fet.Fetch(seg.Bits, s.fetchDoneFn)
	if err != nil {
		s.fetching = false
		if s.err == nil {
			s.err = fmt.Errorf("player: fetch segment %d: %w", s.nextSeg, err)
		}
	}
}

// fetchDone is the downloader completion callback for the single in-flight
// segment fetch started by maybeFetch.
func (s *Session) fetchDone(now sim.Time) {
	seg := s.fetchSeg
	s.fetching = false
	if dt := (now - s.fetchStart).Seconds(); dt > 0 {
		s.tput.Add(seg.Bits / dt)
	}
	s.lastRung = s.fetchRung
	s.nextSeg++
	s.bitsSum += seg.Bits
	s.segsSum++
	s.dec.Push(seg.Frames)
	s.downLoade += len(seg.Frames)
	s.hooks.BufferState(now, s.BufferSec(), s.dec.ReadyLen(), s.dec.Cap())
	s.tryStartOrResume()
	s.maybeFetch()
}

// tryStartOrResume begins or resumes playback when enough content is
// buffered and the next frame is decoded.
func (s *Session) tryStartOrResume() {
	if s.playing || s.done {
		return
	}
	need := s.cfg.ResumeSec
	if !s.started {
		need = s.cfg.StartupSec
	}
	if s.BufferSec() < need && !s.allFetched() {
		return
	}
	if !s.dec.Ready(s.playhead) {
		return // decoder's OnReady will retry
	}
	now := s.eng.Now()
	if !s.started {
		s.started = true
		s.metrics.StartupDelay = now - s.startedAt
	} else {
		s.metrics.RebufferTime += now - s.stallStart
	}
	s.playing = true
	s.hooks.PlaybackState(now, true)
	s.nextTickAt = now
	s.tick()
}

func (s *Session) tick() {
	if s.done {
		return
	}
	idx := s.playhead
	if idx >= s.total {
		s.finish()
		return
	}
	if s.dec.Ready(idx) {
		// Advance the timeline *before* popping so the decoder's next
		// job sees fresh deadlines and queue state.
		s.playhead++
		s.nextTickAt += sim.Time(1 / s.fps)
		s.metrics.DisplayedFrames++
		if s.cfg.Tracer != nil {
			s.cfg.Tracer.Frame(trace.FrameEvent{T: s.eng.Now(), Stage: trace.StageShown, Frame: idx})
		}
		if _, ok := s.dec.Pop(idx); !ok && s.err == nil {
			s.err = fmt.Errorf("player: frame %d vanished between Ready and Pop", idx)
		}
		s.afterAdvance()
		return
	}
	if idx >= s.downLoade {
		// Media buffer dry: stall.
		s.playing = false
		s.stallStart = s.eng.Now()
		s.metrics.RebufferCount++
		s.hooks.PlaybackState(s.eng.Now(), false)
		// Re-arm the fetch pipeline: a predictive deferral that rode the
		// buffer to dry has no fetch in flight and no further ticks to
		// re-evaluate at — stalled sessions always fetch immediately. On
		// the reactive path this is a no-op (a stall with segments left
		// always has a fetch outstanding), so schedules are unchanged.
		s.maybeFetch()
		return
	}
	// Downloaded but not decoded in time: drop the slot.
	s.metrics.DroppedFrames++
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Frame(trace.FrameEvent{T: s.eng.Now(), Stage: trace.StageDropped, Frame: idx})
	}
	s.playhead++
	s.nextTickAt += sim.Time(1 / s.fps)
	s.dec.DiscardBelow(idx + 1)
	s.afterAdvance()
}

func (s *Session) afterAdvance() {
	s.hooks.BufferState(s.eng.Now(), s.BufferSec(), s.dec.ReadyLen(), s.dec.Cap())
	s.maybeFetch()
	if s.playhead >= s.total {
		s.finish()
		return
	}
	s.tickEv = s.eng.At(s.nextTickAt, s.tickFn)
}

func (s *Session) finish() {
	if s.done {
		return
	}
	s.done = true
	s.playing = false
	now := s.eng.Now()
	s.metrics.SessionDur = now - s.startedAt
	s.metrics.Completed = true
	if s.segsSum > 0 {
		s.metrics.MeanRungBps = s.bitsSum / (float64(s.segsSum) * s.cfg.SegmentDur.Seconds())
	}
	if s.cfg.Meter != nil {
		s.cfg.Meter.Set(energy.ComponentDisplay, 0)
	}
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Power(trace.PowerEvent{T: now, Component: energy.ComponentDisplay, Watts: 0})
	}
	s.hooks.PlaybackState(now, false)
	s.eng.Cancel(s.tickEv)
	for _, fn := range s.onDone {
		fn()
	}
}
