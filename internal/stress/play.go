package stress

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"videodvfs/internal/cpu"
	"videodvfs/internal/experiments"
	"videodvfs/internal/governor"
	"videodvfs/internal/netsim"
	"videodvfs/internal/player"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

// PlayConfig describes one live player-driver run: the actual
// internal/player downloader/buffer/decode logic, in a virtual-time
// engine, fetching its segments from a real HTTP origin.
type PlayConfig struct {
	// OriginURL is the base URL of a stress origin (NewOrigin), e.g.
	// "http://127.0.0.1:8080". Required.
	OriginURL string
	// Governor names a stock cpufreq policy for the decode core
	// (default "ondemand"); the live driver has no radio model, so the
	// video-aware governors stay sim-side.
	Governor string
	// Device is the CPU model (DeviceFlagship if zero).
	Device cpu.Model
	// Title/Rung/FPS/Seed/Duration select the content exactly as
	// experiments.RunConfig does, so a replay config built from the same
	// fields streams identical segments.
	Title    video.Title
	Rung     video.Resolution
	FPS      float64
	Seed     int64
	Duration sim.Time
	// SegmentDur overrides the media segment duration (0 = 2 s).
	SegmentDur sim.Time
	// Client overrides the HTTP client (default: http.DefaultTransport
	// with no timeout — transfers are bounded by the origin).
	Client *http.Client
	// RateQuery, if non-empty, is appended to each /blob request
	// (e.g. "rate=4e6&shape=onoff") to override the origin's shaping.
	RateQuery string
}

// PlayResult is the outcome of a live run: the QoE metrics the real
// player produced, the recorded bandwidth trace, and the per-fetch
// payload ledger for byte accounting.
type PlayResult struct {
	// Metrics is the player's QoE report from the live run.
	Metrics player.Metrics
	// Trace is the recorded bandwidth/timing trace, valid per
	// netsim.Trace.Validate and replayable via RunConfig.Net = "trace".
	Trace netsim.Trace
	// SegmentBits holds each fetch's payload size in bits, in fetch
	// order: the ground truth the trace's per-fetch byte sums are checked
	// against (the origin serves ceil(bits/8) bytes per fetch).
	SegmentBits []float64
	// SimEnd is the virtual time the session finished at.
	SimEnd sim.Time
	// WallDur is how long the run took in real time.
	WallDur time.Duration
}

// Play executes one live player-driver run against a stress origin. The
// player, decoder, and CPU/governor all run in virtual time; each
// segment fetch blocks on a real HTTP transfer whose measured wall
// duration then elapses as virtual time, so the virtual timeline is the
// recorded timeline.
func Play(cfg PlayConfig) (*PlayResult, error) {
	if cfg.OriginURL == "" {
		return nil, fmt.Errorf("stress: origin URL is required")
	}
	if cfg.Governor == "" {
		cfg.Governor = "ondemand"
	}
	if cfg.Device.Name == "" {
		cfg.Device = cpu.DeviceFlagship()
	}
	if cfg.Title.Name == "" {
		cfg.Title = video.TitleSports
	}
	if cfg.Rung.Name == "" {
		cfg.Rung = video.R720p
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("stress: duration %v not positive", cfg.Duration)
	}
	fps := cfg.FPS
	if fps == 0 {
		fps = 30
	}

	// Generate the content exactly as the simulator's fixed-rung path
	// does, so the replay (same Title/Rung/FPS/Duration/Seed) fetches
	// byte-identical segments.
	spec := video.DefaultSpec(cfg.Title, cfg.Rung).WithCodec(video.DefaultCodec())
	spec.FPS = fps
	stream, err := video.Generate(spec, cfg.Duration, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("stress: generate content: %w", err)
	}

	eng := sim.NewEngine()
	core, err := cpu.NewCore(eng, cfg.Device)
	if err != nil {
		return nil, fmt.Errorf("stress: cpu core: %w", err)
	}
	gov, err := governor.New(cfg.Governor)
	if err != nil {
		return nil, fmt.Errorf("stress: %w", err)
	}
	if err := gov.Attach(eng, core); err != nil {
		return nil, fmt.Errorf("stress: attach governor: %w", err)
	}
	defer gov.Detach()

	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	fet := &httpFetcher{
		eng:       eng,
		client:    client,
		base:      cfg.OriginURL,
		rateQuery: cfg.RateQuery,
	}

	pcfg := player.DefaultConfig()
	if cfg.SegmentDur > 0 {
		pcfg.SegmentDur = cfg.SegmentDur
	}
	ps, err := player.NewSession(eng, core, fet, []*video.Stream{stream}, pcfg)
	if err != nil {
		return nil, fmt.Errorf("stress: player session: %w", err)
	}
	ps.OnDone(eng.Stop)

	horizon := experiments.RunConfig{Duration: cfg.Duration}.EffectiveHorizon()
	wallStart := time.Now()
	ps.Start()
	end := eng.RunUntil(horizon)

	if fet.err != nil {
		return nil, fmt.Errorf("stress: live fetch: %w", fet.err)
	}
	if err := ps.Err(); err != nil {
		return nil, fmt.Errorf("stress: session: %w", err)
	}
	m := ps.Metrics()
	if !m.Completed {
		return nil, fmt.Errorf("stress: session at %d/%d frames when the %v horizon hit",
			m.DisplayedFrames+m.DroppedFrames, m.TotalFrames, horizon)
	}
	tr := netsim.Trace{Samples: fet.samples}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("stress: recorded trace: %w", err)
	}
	return &PlayResult{
		Metrics:     m,
		Trace:       tr,
		SegmentBits: fet.segmentBits,
		SimEnd:      end,
		WallDur:     time.Since(wallStart),
	}, nil
}

// recorder tuning: reads coalesce into one sample until the transfer
// pauses for recGapThresh or the sample reaches recFlushBytes, whichever
// first. recMinSpan keeps every sample's duration positive.
const (
	recReadBuf    = 32 << 10
	recFlushBytes = 64 << 10
	recGapThresh  = 25 * time.Millisecond
	recMinSpan    = sim.Time(1e-6)
)

// httpFetcher implements player.Fetcher over real HTTP. Fetch performs
// the blocking transfer inside the engine's event callback — virtual
// time stands still while real bytes flow — then schedules the player's
// completion callback after the measured wall duration of virtual time.
// The wall-clock offsets of each read burst, rebased onto the virtual
// fetch start, become the recorded trace samples.
type httpFetcher struct {
	eng       *sim.Engine
	client    *http.Client
	base      string
	rateQuery string

	onActive func(now sim.Time, active bool)

	samples     []netsim.TraceSample
	segmentBits []float64
	fetch       int      // current fetch index
	lastEnd     sim.Time // absolute end of the last recorded sample
	err         error

	idleFn func() // pre-bound post-completion activity transition
	doneFn func(now sim.Time)
	doneAt func()
}

var _ player.Fetcher = (*httpFetcher)(nil)

// OnActive implements player.Fetcher.
func (f *httpFetcher) OnActive(fn func(now sim.Time, active bool)) { f.onActive = fn }

// Fetch implements player.Fetcher: one blocking HTTP transfer of
// ceil(bits/8) bytes from the origin, recorded and mapped to virtual
// time.
func (f *httpFetcher) Fetch(bits float64, onDone func(now sim.Time)) error {
	if f.err != nil {
		return f.err
	}
	if bits <= 0 {
		return fmt.Errorf("stress: fetch of %v bits", bits)
	}
	nbytes := int64(math.Ceil(bits / 8))
	now := f.eng.Now()
	if f.onActive != nil {
		f.onActive(now, true)
	}
	wallDur, err := f.transfer(nbytes, now)
	if err != nil {
		f.err = err
		return err
	}
	f.segmentBits = append(f.segmentBits, bits)
	f.fetch++
	f.doneFn = onDone
	if f.doneAt == nil {
		f.doneAt = func() {
			done := f.doneFn
			f.doneFn = nil
			if f.onActive != nil {
				f.onActive(f.eng.Now(), false)
			}
			done(f.eng.Now())
		}
	}
	f.eng.Schedule(sim.Time(wallDur.Seconds()), f.doneAt)
	return nil
}

// transfer streams nbytes from the origin, appending trace samples at
// absolute virtual times base+offset, and returns the wall duration.
func (f *httpFetcher) transfer(nbytes int64, base sim.Time) (time.Duration, error) {
	url := fmt.Sprintf("%s/blob?bytes=%d", f.base, nbytes)
	if f.rateQuery != "" {
		url += "&" + f.rateQuery
	}
	resp, err := f.client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("origin returned %s", resp.Status)
	}

	start := time.Now()
	buf := make([]byte, recReadBuf)
	var (
		total    int64
		prevOff  float64 // seconds since start of the last read completion
		curStart float64 // current sample start offset
		curBytes float64
		activeS  float64 // non-stalled transfer seconds, for rate estimates
	)
	flush := func(endOff float64) {
		if curBytes <= 0 {
			return
		}
		s := base + sim.Time(curStart)
		e := base + sim.Time(endOff)
		// Clamp into global monotonic order and keep spans positive; the
		// recorder's 1 µs floor is far below any real socket timing.
		if s < f.lastEnd {
			s = f.lastEnd
		}
		if e < s+recMinSpan {
			e = s + recMinSpan
		}
		f.samples = append(f.samples, netsim.TraceSample{
			Start: s, End: e, Bytes: curBytes, Fetch: f.fetch,
		})
		f.lastEnd = e
		curBytes = 0
	}
	for total < nbytes {
		n, rerr := resp.Body.Read(buf)
		off := time.Since(start).Seconds()
		if n > 0 {
			gap := off - prevOff
			if curBytes > 0 && gap > recGapThresh.Seconds() {
				// The wire stalled: close the sample at the last read and
				// place this read's bytes in a window sized by the
				// running mean rate, so the stall survives as an
				// inter-sample gap the replay renders as rate 0.
				flush(prevOff)
				est := 1e9 / 8 // line-rate fallback before any estimate
				if activeS > 0 {
					est = float64(total) / activeS
				}
				curStart = off - float64(n)/est
				if curStart < prevOff {
					curStart = prevOff
				}
			} else {
				if curBytes == 0 {
					curStart = prevOff
				}
				activeS += gap
			}
			curBytes += float64(n)
			total += int64(n)
			prevOff = off
			if curBytes >= recFlushBytes {
				flush(off)
			}
		}
		if rerr != nil {
			if rerr == io.EOF {
				break
			}
			return 0, rerr
		}
	}
	flush(prevOff)
	if total != nbytes {
		return 0, fmt.Errorf("origin sent %d bytes, want %d", total, nbytes)
	}
	wall := time.Since(start)
	// The completion event must land at or after the last sample's
	// (possibly clamped) end, or the next fetch could start inside it.
	if minWall := (f.lastEnd - base).Seconds(); wall.Seconds() < minWall {
		wall = time.Duration(minWall * float64(time.Second))
	}
	return wall, nil
}
