// Package experiments assembles full simulation runs and regenerates every
// table and figure of the (reconstructed) evaluation. Each experiment has
// an ID (t1, f1, …), a builder function returning a formatted Table, and a
// benchmark in the repository root that prints the same rows.
package experiments

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"unsafe"

	"videodvfs/internal/abr"
	"videodvfs/internal/core"
	"videodvfs/internal/cpu"
	"videodvfs/internal/invariant"
	"videodvfs/internal/lru"
	"videodvfs/internal/netsim"
	"videodvfs/internal/player"
	"videodvfs/internal/sim"
	"videodvfs/internal/trace"
	"videodvfs/internal/video"
)

// NetKind selects the bandwidth model of a run.
type NetKind string

// Built-in network profiles.
const (
	// NetWiFi is a steady 30 Mbps link.
	NetWiFi NetKind = "wifi"
	// NetLTE is a Markov-modulated LTE trace (≈12 Mbps mean).
	NetLTE NetKind = "lte"
	// NetUMTS is a Markov-modulated 3G trace (≈2.5 Mbps mean).
	NetUMTS NetKind = "umts"
	// NetConst8 is a constant 8 Mbps link (enough for the top rung).
	NetConst8 NetKind = "const8"
	// NetTrace replays a recorded bandwidth/timing trace
	// (RunConfig.BWTrace, typically captured by `dvfsstress play` over a
	// real TCP path) through the simulator.
	NetTrace NetKind = "trace"
)

// NetKinds returns every network kind, synthetic profiles first in
// report order, then the trace-replay backend.
func NetKinds() []NetKind { return []NetKind{NetWiFi, NetConst8, NetLTE, NetUMTS, NetTrace} }

// SyntheticNetKinds returns the self-contained profiles — the ones a
// sweep can iterate without supplying trace data. Experiments that fan
// out "across all networks" (FigF10) use this list, which is why its
// order matches the historical report order.
func SyntheticNetKinds() []NetKind { return []NetKind{NetWiFi, NetConst8, NetLTE, NetUMTS} }

// RunConfig describes one streaming simulation.
type RunConfig struct {
	// Device is the CPU model (DeviceFlagship if zero).
	Device cpu.Model
	// Governor selects the frequency policy: a stock cpufreq baseline,
	// GovEnergyAware, or GovOracle. Convert untrusted strings with
	// ParseGovernorID.
	Governor GovernorID
	// Policy tunes the energy-aware governor (DefaultConfig if zero).
	Policy core.Config
	// Title is the content profile (TitleSports default: the demanding
	// case).
	Title video.Title
	// Rung pins a single rendition by resolution when ABR is "" or
	// "fixed".
	Rung video.Resolution
	// ABR selects the adaptation algorithm ("" = ABRFixed). Convert
	// untrusted strings with ParseABRID.
	ABR ABRID
	// Net selects the bandwidth profile.
	Net NetKind
	// BWTrace is the recorded bandwidth trace replayed when Net is
	// NetTrace (required then, forbidden otherwise). Load one with
	// netsim.ReadTrace. The trace is read-only during the run, so one
	// trace may back many concurrent runs.
	BWTrace *netsim.Trace
	// RRC configures the radio (DefaultUMTS for NetUMTS, DefaultLTE
	// otherwise, if zero).
	RRC *netsim.RRCConfig
	// Duration is the content length.
	Duration sim.Time
	// Seed drives all stochastic inputs.
	Seed int64
	// BGSeed, when non-zero, reseeds only the background-load generator
	// while every content-derived input (video stream, bandwidth trace)
	// still follows Seed. Cohort runs use it to give each viewer of the
	// same live event an independent device-load history without
	// regenerating the shared stream per viewer; 0 means "derive from
	// Seed" — the single-run behavior this field generalizes.
	BGSeed int64
	// DecodedQueueCap overrides the player's decode-ahead depth (0 =
	// default 8).
	DecodedQueueCap int
	// LowWaterSec enables the player's burst-prefetch hysteresis (see
	// player.Config.LowWaterSec).
	LowWaterSec float64
	// Forecast arms the predictive download scheduler: the player replaces
	// the blind low-water burst trigger with a forecast scan that races
	// bursts into predicted good-channel windows and defers through fades
	// the buffer can ride out. Requires LowWaterSec > 0. Convert untrusted
	// strings with ParseForecastKind; "" keeps the reactive trigger.
	Forecast ForecastKind
	// ForecastLookahead is how far ahead the forecast sees (0 = 20 s when
	// a forecast is armed).
	ForecastLookahead sim.Time
	// ForecastRelErr is the noisy forecast's relative error — the CV of
	// the per-piece lognormal rate multiplier. Only meaningful (and only
	// accepted) with ForecastNoisy; 0 there reproduces the oracle.
	ForecastRelErr float64
	// ForecastSeed reseeds only the noisy forecast's error draw; 0 derives
	// it from Seed. The noise is keyed per forecast piece, so runs stay
	// deterministic and cacheable.
	ForecastSeed int64
	// Thermal, if set, attaches the RC thermal model + throttler.
	Thermal *cpu.ThermalConfig
	// CStates enables the cpuidle model (menu governor over the default
	// three-state ladder).
	CStates bool
	// Codec selects the decode model by name ("" = h264, "hevc").
	Codec string
	// LowLatency switches the player to live-streaming thresholds
	// (1 s startup, 0.5 s resume, 4 s buffer, 3-frame decode-ahead).
	LowLatency bool
	// SegmentDur overrides the media segment duration (0 = 2 s).
	SegmentDur sim.Time
	// Background enables the UI/OS load generator (default on via
	// DefaultRunConfig).
	Background bool
	// Horizon caps virtual time (0 = the default EffectiveHorizon
	// derives from the content length). A session still incomplete at
	// the cap makes Run fail with ErrHorizonExceeded.
	Horizon sim.Time
	// FPS overrides the frame rate (0 = 30).
	FPS float64
	// Trace, if set, replays this exact frame stream instead of
	// generating one (single rendition, fixed ABR). Load one with
	// video.ReadTrace or build it programmatically.
	Trace *video.Stream
	// OnSample, if set, receives a time-series sample every 100 ms of
	// virtual time: CPU frequency, CPU power, media buffer level. Used by
	// dvfsim's -timeline output for plotting.
	OnSample func(t sim.Time, freqGHz, cpuW, bufferSec float64)
	// Cancel, if non-nil, aborts the run when closed: the engine polls it
	// every 100 virtual ms and a closed channel fails the run with
	// ErrCanceled instead of simulating on to the horizon. dvfsd's
	// streaming endpoints wire a request context's Done channel here so an
	// abandoned client stops burning a pool worker. Cancel-armed configs
	// are uncacheable (the outcome depends on state outside the config).
	Cancel <-chan struct{}
	// Tracer, if set, receives the run's structured event stream: governor
	// decisions, frame lifecycle, OPP and C-state transitions, RRC state
	// changes, ABR switches, buffer levels, and per-component power. nil
	// (the default) disables tracing with zero overhead on the hot path.
	Tracer trace.Tracer
	// Strict arms the invariant checker (internal/invariant): the run's
	// event stream is audited against the simulator's conservation laws
	// and any breach fails Run with a wrapped *invariant.Violation. Off by
	// default — strict runs pay the tracing cost on the hot path, and
	// their results are never served from the dvfsd cache (DESIGN.md §10).
	Strict bool
}

// DefaultRunConfig returns the evaluation's base case: flagship device,
// sports content pinned at 720p, constant 8 Mbps link, background load on,
// 60 s of content.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Device:     cpu.DeviceFlagship(),
		Governor:   GovEnergyAware,
		Policy:     core.DefaultConfig(),
		Title:      video.TitleSports,
		Rung:       video.R720p,
		ABR:        ABRFixed,
		Net:        NetConst8,
		Duration:   60 * sim.Second,
		Seed:       1,
		Background: true,
	}
}

// EffectiveHorizon returns the virtual-time budget a run gets from its
// start to a forced cut: Horizon when set, otherwise six times the content
// length plus 60 s, so starved runs terminate and radio tails still fit.
// The content length is a frame trace's own when Duration is unset. A
// standalone run, a cohort viewer and dvfsd's clamp all read it here.
func (cfg RunConfig) EffectiveHorizon() sim.Time {
	if cfg.Horizon > 0 {
		return cfg.Horizon
	}
	d := cfg.Duration
	if cfg.Trace != nil && d <= 0 {
		d = cfg.Trace.Duration()
	}
	return d*6 + 60*sim.Second
}

// RunResult is the outcome of one simulation.
type RunResult struct {
	// Governor is the policy that ran.
	Governor string
	// CPUJ, RadioJ, DisplayJ are per-component energies in joules.
	CPUJ, RadioJ, DisplayJ float64
	// QoE is the player's metric report.
	QoE player.Metrics
	// MeanFreqGHz is the time-weighted mean CPU frequency.
	MeanFreqGHz float64
	// FreqResidency maps OPP index to seconds.
	FreqResidency map[int]sim.Time
	// RadioResidency maps RRC state to seconds.
	RadioResidency map[netsim.RRCState]sim.Time
	// RadioPromotions counts IDLE/FACH→DCH promotions.
	RadioPromotions int
	// Fetches is the number of completed segment downloads.
	Fetches int
	// Pred is the predictor accuracy report (energy-aware runs only).
	Pred *core.PredictionStats
	// MaxTempC, ThrottleEvents, ThrottledS report the thermal model
	// (zero when Thermal is unset).
	MaxTempC       float64
	ThrottleEvents int
	ThrottledS     float64
	// IdleResidency maps C-state name to seconds (nil unless CStates).
	IdleResidency map[string]sim.Time
	// OPPTransitions counts DVFS switches over the run.
	OPPTransitions int
	// SimEnd is the virtual time the run finished at.
	SimEnd sim.Time
}

// TotalJ returns whole-device energy.
func (r RunResult) TotalJ() float64 { return r.CPUJ + r.RadioJ + r.DisplayJ }

// ErrInvalidConfig reports a RunConfig rejected by Validate before any
// simulation state was built. Callers distinguish it with errors.Is;
// parse-level sentinels (ErrUnknownGovernor, ErrUnknownABR, ErrUnknownNet)
// also match through it.
var ErrInvalidConfig = errors.New("invalid run config")

// Validate checks the knobs Run cannot default: the governor and ABR
// names, the network kind, the duration and the frame count. It runs up
// front in Run so a bad config fails before any engine state exists,
// with every violation wrapped in ErrInvalidConfig.
func (cfg RunConfig) Validate() error {
	if _, err := ParseGovernorID(string(cfg.Governor)); err != nil {
		return fmt.Errorf("experiments: %w: %w", ErrInvalidConfig, err)
	}
	if _, err := ParseABRID(string(cfg.ABR)); err != nil {
		return fmt.Errorf("experiments: %w: %w", ErrInvalidConfig, err)
	}
	if _, err := ParseNetKind(string(cfg.Net)); err != nil {
		return fmt.Errorf("experiments: %w: %w", ErrInvalidConfig, err)
	}
	// The trace backend has no synthetic fallback: net "trace" without
	// sample data (or trace data under another net) is a contradiction
	// the caller must resolve, not something to paper over.
	if cfg.Net == NetTrace {
		if cfg.BWTrace == nil {
			return fmt.Errorf("experiments: %w: net %q requires a bandwidth trace (BWTrace)",
				ErrInvalidConfig, NetTrace)
		}
		if err := cfg.BWTrace.Validate(); err != nil {
			return fmt.Errorf("experiments: %w: %w", ErrInvalidConfig, err)
		}
	} else if cfg.BWTrace != nil {
		return fmt.Errorf("experiments: %w: bandwidth trace set but net is %q, not %q",
			ErrInvalidConfig, cfg.Net, NetTrace)
	}
	if cfg.Duration <= 0 && cfg.Trace == nil {
		return fmt.Errorf("experiments: %w: duration %v not positive", ErrInvalidConfig, cfg.Duration)
	}
	// A non-finite duration or horizon would defeat the horizon check
	// (every comparison against NaN is false), turning one bad request
	// into an unbounded simulation.
	if math.IsNaN(float64(cfg.Duration)) || math.IsInf(float64(cfg.Duration), 0) {
		return fmt.Errorf("experiments: %w: duration %v not finite", ErrInvalidConfig, cfg.Duration)
	}
	// A huge finite duration would generate frames and bandwidth steps
	// until memory runs out.
	if cfg.Duration > video.MaxDuration {
		return fmt.Errorf("experiments: %w: duration %v longer than the %v cap", ErrInvalidConfig, cfg.Duration, video.MaxDuration)
	}
	if math.IsNaN(float64(cfg.Horizon)) || math.IsInf(float64(cfg.Horizon), 0) {
		return fmt.Errorf("experiments: %w: horizon %v not finite", ErrInvalidConfig, cfg.Horizon)
	}
	// Found by FuzzRunConfigInvariants: a NaN or negative FPS reaches
	// video.Generate's frame-count conversion (int of NaN/negative is
	// implementation-specific per the Go spec, and a negative count panics
	// make), and the frame count scales as duration×fps, so an absurd FPS
	// is the same unbounded-allocation DoS the duration cap already
	// closes. 1000 fps is far beyond any real display pipeline.
	if cfg.FPS != 0 && (math.IsNaN(cfg.FPS) || cfg.FPS < 1 || cfg.FPS > 1000) {
		return fmt.Errorf("experiments: %w: fps %v outside [1, 1000]", ErrInvalidConfig, cfg.FPS)
	}
	// Within both caps, 1000 fps over 24 h is still 86 M frames (3.5 GB
	// per rendition), so the frame count has its own cap. A frame trace
	// brings its frames along and generates none.
	if cfg.Trace == nil {
		if frames := math.Floor(cfg.Duration.Seconds() * cfg.frameRate()); frames > video.MaxFrames {
			return fmt.Errorf("experiments: %w: %v at %v fps is %.0f frames, more than the %d cap",
				ErrInvalidConfig, cfg.Duration, cfg.frameRate(), frames, video.MaxFrames)
		}
	}
	// NaN here silently disables the prefetch hysteresis (every threshold
	// comparison against NaN is false) instead of failing loudly.
	if math.IsNaN(cfg.LowWaterSec) || math.IsInf(cfg.LowWaterSec, 0) || cfg.LowWaterSec < 0 {
		return fmt.Errorf("experiments: %w: low-water mark %v not a finite non-negative second count",
			ErrInvalidConfig, cfg.LowWaterSec)
	}
	// A non-finite segment duration poisons the per-segment frame count.
	if math.IsNaN(float64(cfg.SegmentDur)) || math.IsInf(float64(cfg.SegmentDur), 0) || cfg.SegmentDur < 0 {
		return fmt.Errorf("experiments: %w: segment duration %v not finite and non-negative",
			ErrInvalidConfig, cfg.SegmentDur)
	}
	if _, err := ParseForecastKind(string(cfg.Forecast)); err != nil {
		return fmt.Errorf("experiments: %w: %w", ErrInvalidConfig, err)
	}
	if cfg.Forecast != ForecastNone {
		// The predictive scheduler decides *when bursts start*; without the
		// burst hysteresis there is no burst structure to schedule, so a
		// forecast with LowWaterSec 0 is a contradiction, not a no-op.
		if cfg.LowWaterSec <= 0 {
			return fmt.Errorf("experiments: %w: forecast %q requires a positive low-water mark",
				ErrInvalidConfig, cfg.Forecast)
		}
		if math.IsNaN(float64(cfg.ForecastLookahead)) || math.IsInf(float64(cfg.ForecastLookahead), 0) ||
			cfg.ForecastLookahead < 0 || cfg.ForecastLookahead >= sim.Forever {
			return fmt.Errorf("experiments: %w: forecast lookahead %v not a finite non-negative duration",
				ErrInvalidConfig, cfg.ForecastLookahead)
		}
	} else if cfg.ForecastLookahead != 0 || cfg.ForecastRelErr != 0 || cfg.ForecastSeed != 0 {
		return fmt.Errorf("experiments: %w: forecast parameters set but no forecast kind selected",
			ErrInvalidConfig)
	}
	if cfg.Forecast == ForecastNoisy {
		if math.IsNaN(cfg.ForecastRelErr) || math.IsInf(cfg.ForecastRelErr, 0) || cfg.ForecastRelErr < 0 {
			return fmt.Errorf("experiments: %w: forecast error %v not a finite non-negative CV",
				ErrInvalidConfig, cfg.ForecastRelErr)
		}
	} else if cfg.ForecastRelErr != 0 {
		return fmt.Errorf("experiments: %w: forecast error is only meaningful for the %q forecast",
			ErrInvalidConfig, ForecastNoisy)
	}
	// Found by FuzzRunConfigInvariants: a duration×fps product below one
	// frame generated an empty stream that only failed deep inside the
	// player ("cannot segmentize empty stream") instead of up front.
	if cfg.Trace == nil {
		fps := cfg.FPS
		if fps == 0 {
			fps = 30
		}
		if cfg.Duration.Seconds()*fps < 1 {
			return fmt.Errorf("experiments: %w: duration %v at %g fps yields no frames",
				ErrInvalidConfig, cfg.Duration, fps)
		}
	}
	return nil
}

// Shared bandwidth values for the constant profiles: both are immutable
// value types, and package-level interface values keep the per-run boxing
// allocation off the arena's reset path.
var (
	bwWiFi   netsim.Bandwidth = netsim.WiFiSteady()
	bwConst8 netsim.Bandwidth = netsim.Constant{Bps: 8e6}
)

// inputKey identifies one generated run input by exactly what its
// generator reads: a rendition by the video.Spec, duration and seed
// video.Generate reads (net empty), a Markov bandwidth trace by its
// network, duration and seed (spec zero). Equal keys mean bit-identical
// inputs, so a fixed 720p run and a ladder run of the same title and
// seed share one 720p rendition, and so do codec "" and "h264".
type inputKey struct {
	spec video.Spec
	net  NetKind
	dur  sim.Time
	seed int64
}

// input is one generated run input: a rendition or a bandwidth trace.
type input struct {
	stream *video.Stream
	bw     netsim.Bandwidth
}

// inputBudget is the memo's byte budget. It covers every shipped working
// set: run-sweep's pool of 16 content seeds holds 6.9 MB of inputs, and
// the whole 30-experiment evaluation 2.3 MB.
const inputBudget = 32 << 20

// Bytes an input is charged: a rendition its frame array, a Markov trace
// its step array. The headers around them are noise beside these.
const (
	frameBytes = int64(unsafe.Sizeof(video.Frame{}))
	stepBytes  = int64(unsafe.Sizeof(netsim.Step{}))
)

// inputs memoizes generated run inputs across runs, cohort viewers and
// dvfsd requests. Inputs are immutable after generation: sessions
// segmentize renditions into subslices that decoders read in place, and
// bandwidth traces are only read. Sharing them between concurrent runs is
// therefore safe and changes no output; it only removes the setup cost of
// regenerating them. Eviction drops the memo's reference only, so a run
// still holding an evicted input keeps it, and a later miss regenerates
// an identical one.
var inputs = inputMemo{lru: lru.New[inputKey, input](inputBudget)}

// inputMemo is a byte-bounded LRU of generated inputs plus its traffic
// counters, all under one mutex: a hit reorders the LRU, so it cannot
// take a read lock. A hit allocates nothing. Generation is a pure
// function of the key, so when two runs race on the same miss both values
// are identical and either may be kept.
type inputMemo struct {
	mu           sync.Mutex
	lru          *lru.Cache[inputKey, input]
	hits, misses int64
}

func (m *inputMemo) load(key inputKey) (input, bool) {
	m.mu.Lock()
	v, ok := m.lru.Get(key)
	if ok {
		m.hits++
	} else {
		m.misses++
	}
	m.mu.Unlock()
	return v, ok
}

func (m *inputMemo) store(key inputKey, v input, cost int64) {
	m.mu.Lock()
	m.lru.Add(key, v, cost)
	m.mu.Unlock()
}

// MemoStats is a snapshot of the generated-input memo's counters.
type MemoStats struct {
	// Hits and Misses count lookups; a miss generates the input.
	Hits, Misses int64
	// Evictions counts inputs dropped to stay within the budget.
	Evictions int64
	// Entries and Bytes describe what the memo holds now; Bytes never
	// exceeds Budget.
	Entries int
	Bytes   int64
	Budget  int64
}

// HitRatio returns hits / (hits + misses), 0 before the first lookup.
func (s MemoStats) HitRatio() float64 {
	if n := s.Hits + s.Misses; n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// InputMemoStats snapshots the memo of generated renditions and bandwidth
// traces that every run draws its inputs from.
func InputMemoStats() MemoStats {
	m := &inputs
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{Hits: m.hits, Misses: m.misses, Evictions: m.lru.Evictions(),
		Entries: m.lru.Len(), Bytes: m.lru.Bytes(), Budget: m.lru.Budget()}
}

// buildBandwidth resolves the run's bandwidth model and RRC profile: the
// network's default profile unless RunConfig.RRC overrides it.
func buildBandwidth(cfg RunConfig) (netsim.Bandwidth, netsim.RRCConfig, error) {
	rrc := netsim.DefaultLTE()
	var bw netsim.Bandwidth
	switch cfg.Net {
	case NetWiFi, "":
		bw = bwWiFi
	case NetConst8:
		bw = bwConst8
	case NetLTE, NetUMTS:
		states, name := netsim.LTEStates, "bw/lte"
		if cfg.Net == NetUMTS {
			rrc = netsim.DefaultUMTS()
			states, name = netsim.UMTSStates, "bw/umts"
		}
		key := inputKey{net: cfg.Net, dur: cfg.Duration, seed: cfg.Seed}
		if cached, ok := inputs.load(key); ok {
			bw = cached.bw
			break
		}
		tr, err := netsim.GenMarkovTrace(states(), cfg.Duration*4, sim.Stream(cfg.Seed, name))
		if err != nil {
			return nil, rrc, err
		}
		bw = tr
		inputs.store(key, input{bw: bw}, int64(cap(tr.Trace))*stepBytes)
	case NetTrace:
		if cfg.BWTrace == nil {
			return nil, rrc, fmt.Errorf("experiments: net %q requires a bandwidth trace", NetTrace)
		}
		// Recorded traces are caller-owned and already immutable; no
		// memoization needed (and a (net, dur, seed) key could not tell
		// two different traces apart anyway).
		bw = *cfg.BWTrace
	default:
		return nil, rrc, fmt.Errorf("experiments: unknown network kind %q", cfg.Net)
	}
	if cfg.RRC != nil {
		rrc = *cfg.RRC
	}
	return bw, rrc, nil
}

// buildForecast resolves the run's bandwidth forecast over the resolved
// bandwidth model bw — the same value the downloader integrates, so the
// oracle's predictions are exactly the rates the run will observe. Returns
// nil when forecasting is off.
func buildForecast(cfg RunConfig, bw netsim.Bandwidth) (player.Forecast, error) {
	if cfg.Forecast == ForecastNone {
		return nil, nil
	}
	lookahead := cfg.ForecastLookahead
	if lookahead == 0 {
		lookahead = 20 * sim.Second
	}
	oracle := netsim.Oracle{BW: bw, Lookahead: lookahead}
	switch cfg.Forecast {
	case ForecastOracle:
		return oracle, nil
	case ForecastNoisy:
		seed := cfg.ForecastSeed
		if seed == 0 {
			seed = sim.ChildSeed(cfg.Seed, "forecast")
		}
		return netsim.NewNoisy(oracle, cfg.ForecastRelErr, seed)
	default:
		return nil, fmt.Errorf("experiments: %w %q (known: %v)", ErrUnknownForecast, cfg.Forecast, ForecastKinds())
	}
}

// abrFixed0 is the shared fixed-rung adaptation value: abr.Fixed is a
// stateless value type, and a package-level interface value keeps the
// per-run boxing allocation off the arena's reset path.
var abrFixed0 abr.Algorithm = abr.Fixed{Rung: 0}

// frameRate is the run's generated frame rate: FPS, or 30 when unset.
func (cfg RunConfig) frameRate() float64 {
	if cfg.FPS == 0 {
		return 30
	}
	return cfg.FPS
}

// defaultLadder is the rung list every ladder run streams; read-only.
var defaultLadder = video.DefaultLadder()

// buildRenditions resolves the run's renditions and adaptation algorithm:
// the frame trace, the pinned rung, or every rung of the default ladder
// under an adaptive ABR. The renditions are appended to buf[:0], a
// caller-owned buffer, and each comes from the input memo or is generated
// and memoized on a miss, so a run whose inputs are all memoized
// allocates nothing here.
func buildRenditions(cfg RunConfig, buf []*video.Stream) ([]*video.Stream, abr.Algorithm, error) {
	buf = buf[:0]
	if cfg.Trace != nil {
		if len(cfg.Trace.Frames) == 0 {
			return nil, nil, fmt.Errorf("experiments: empty frame trace")
		}
		return append(buf, cfg.Trace), abrFixed0, nil
	}
	// A bad codec name fails the run even under a ladder, whose
	// renditions are always generated with the default codec.
	codec := video.DefaultCodec()
	if cfg.Codec != "" {
		var err error
		if codec, err = video.CodecByName(cfg.Codec); err != nil {
			return nil, nil, err
		}
	}
	fps := cfg.frameRate()
	if cfg.ABR == "" || cfg.ABR == ABRFixed {
		spec := video.DefaultSpec(cfg.Title, cfg.Rung).WithCodec(codec)
		spec.FPS = fps
		s, err := rendition(spec, cfg.Duration, cfg.Seed)
		if err != nil {
			return nil, nil, err
		}
		return append(buf, s), abrFixed0, nil
	}
	algo, err := abr.New(string(cfg.ABR))
	if err != nil {
		return nil, nil, err
	}
	for _, rung := range defaultLadder {
		s, err := rendition(rung.Spec(cfg.Title, fps), cfg.Duration, cfg.Seed)
		if err != nil {
			return nil, nil, fmt.Errorf("rung %s: %w", rung.Res.Name, err)
		}
		buf = append(buf, s)
	}
	return buf, algo, nil
}

// rendition returns the stream video.Generate synthesizes for (spec, dur,
// seed), from the input memo when it holds it.
func rendition(spec video.Spec, dur sim.Time, seed int64) (*video.Stream, error) {
	key := inputKey{spec: spec, dur: dur, seed: seed}
	if cached, ok := inputs.load(key); ok {
		return cached.stream, nil
	}
	s, err := video.Generate(spec, dur, seed)
	if err != nil {
		return nil, err
	}
	inputs.store(key, input{stream: s}, int64(cap(s.Frames))*frameBytes)
	return s, nil
}

// ErrCanceled reports a run aborted because its RunConfig.Cancel channel
// closed mid-simulation — the caller (typically a streaming HTTP handler
// whose client disconnected) no longer wants the result. Callers
// distinguish it with errors.Is.
var ErrCanceled = errors.New("run canceled")

// ErrHorizonExceeded reports that a session was still incomplete when its
// horizon (RunConfig.EffectiveHorizon) cut the run off — the link could
// not sustain the stream within the cap. Callers distinguish it with
// errors.Is.
var ErrHorizonExceeded = errors.New("simulation horizon exceeded")

// newChecker builds the invariant checker; a test hook so the typed
// violation path through Run can be exercised with a deliberately
// mis-grounded checker (the model itself holds its invariants).
var newChecker = invariant.New

// buildChecker arms the invariant checker for strict runs (nil
// otherwise), grounding it in the run's static truth: the device's OPP
// table and, when the cpuidle model is on, the C-state ladder.
func buildChecker(cfg RunConfig) *invariant.Checker {
	if !cfg.Strict && !strictDefault() {
		return nil
	}
	ic := invariant.Config{OPPFreqsHz: make([]float64, len(cfg.Device.OPPs))}
	for i, o := range cfg.Device.OPPs {
		ic.OPPFreqsHz[i] = o.FreqHz
	}
	if cfg.CStates {
		for _, cs := range cpu.DefaultCStates() {
			ic.CStateNames = append(ic.CStateNames, cs.Name)
		}
	}
	return newChecker(ic)
}

// Run executes one simulation and returns its result. The config is
// validated up front (see Validate); invalid configs fail with
// ErrInvalidConfig before any simulation state is built.
//
// Run serves from a pool of arena Sessions (see Session): repeated calls
// recycle whole simulation instances instead of reconstructing them. The
// results are identical either way — SetSessionReuse(false) forces a fresh
// arena per call (the differential tests pin the equivalence).
func Run(cfg RunConfig) (RunResult, error) {
	var res RunResult
	if sessionReuseOff.Load() {
		if err := NewSession().RunInto(cfg, &res); err != nil {
			return RunResult{}, err
		}
		return res, nil
	}
	s := sessionPool.Get().(*Session)
	err := s.RunInto(cfg, &res)
	// Not returned on panic: a torn-down arena must not re-enter the pool.
	sessionPool.Put(s)
	if err != nil {
		return RunResult{}, err
	}
	return res, nil
}

func meanFreqGHz(model cpu.Model, residency map[int]sim.Time) float64 {
	// Iterate OPP indices in order, not the map: float summation order
	// must be fixed or the last bit of the mean varies run to run,
	// breaking the bit-identical determinism contract.
	var num, den float64
	for idx := range model.OPPs {
		d, ok := residency[idx]
		if !ok {
			continue
		}
		num += model.OPPs[idx].FreqHz * d.Seconds()
		den += d.Seconds()
	}
	if den == 0 {
		return 0
	}
	return num / den / 1e9
}
