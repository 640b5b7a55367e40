package stress

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"videodvfs/internal/cpu"
	"videodvfs/internal/experiments"
	"videodvfs/internal/netsim"
	"videodvfs/internal/player"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

// PlayConfig describes one live player-driver run: the actual
// internal/player downloader/buffer/decode logic, in a virtual-time
// engine, fetching its segments from a real HTTP origin. The content and
// device fields are the experiments.RunConfig fields of the same names,
// so a replay config built from them streams identical segments by
// construction.
type PlayConfig struct {
	// OriginURL is the base URL of a stress origin (NewOrigin), e.g.
	// "http://127.0.0.1:8080". Required.
	OriginURL string
	// Governor names a stock cpufreq policy for the decode core
	// (default "ondemand"); the live driver has no radio model, so the
	// video-aware governors (energyaware, oracle) stay sim-side and are
	// refused.
	Governor string
	// Device is the CPU model (DeviceFlagship if zero).
	Device cpu.Model
	// Title/Rung/Seed/Duration select the content exactly as
	// experiments.RunConfig does, at its default 30 fps.
	Title    video.Title
	Rung     video.Resolution
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

// Play executes one live player-driver run against a stress origin. It is
// an experiments.Viewer whose player fetches over HTTP
// (ViewerOptions.Fetcher): the player, decoder, and CPU/governor all run
// in virtual time; each segment fetch blocks on a real HTTP transfer
// whose measured wall duration then elapses as virtual time, so the
// virtual timeline is the recorded timeline. Background load is off.
func Play(cfg PlayConfig) (*PlayResult, error) {
	if cfg.OriginURL == "" {
		return nil, fmt.Errorf("stress: origin URL is required")
	}
	if cfg.Governor == "" {
		cfg.Governor = "ondemand"
	}
	gov, err := experiments.ParseGovernorID(cfg.Governor)
	if err != nil {
		return nil, fmt.Errorf("stress: %w", err)
	}
	if gov == experiments.GovEnergyAware || gov == experiments.GovOracle {
		return nil, fmt.Errorf("stress: governor %q is video-aware; the live player-driver runs stock governors only", gov)
	}

	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	eng := sim.NewEngine()
	fet := &httpFetcher{
		eng:       eng,
		client:    client,
		base:      cfg.OriginURL,
		rateQuery: cfg.RateQuery,
	}
	v, err := experiments.NewViewer(eng, experiments.RunConfig{
		Device:     cfg.Device,
		Governor:   gov,
		Title:      cfg.Title,
		Rung:       cfg.Rung,
		Seed:       cfg.Seed,
		Duration:   cfg.Duration,
		SegmentDur: cfg.SegmentDur,
	}, experiments.ViewerOptions{Fetcher: fet, OnDone: eng.Stop})
	if err != nil {
		return nil, fmt.Errorf("stress: %w", err)
	}

	wallStart := time.Now()
	v.Start()
	end := eng.RunUntil(v.Deadline())
	if fet.err != nil {
		return nil, fmt.Errorf("stress: live fetch: %w", fet.err)
	}
	// A session still streaming at the horizon is cut, and Finish
	// reports it as experiments.ErrHorizonExceeded.
	v.Cut()
	var res experiments.RunResult
	if err := v.Finish(&res); err != nil {
		return nil, fmt.Errorf("stress: %w", err)
	}
	tr := netsim.Trace{Samples: fet.samples}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("stress: recorded trace: %w", err)
	}
	return &PlayResult{
		Metrics:     res.QoE,
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
