package experiments

import (
	"fmt"

	"videodvfs/internal/abr"
	"videodvfs/internal/core"
	"videodvfs/internal/cpu"
	"videodvfs/internal/decode"
	"videodvfs/internal/energy"
	"videodvfs/internal/governor"
	"videodvfs/internal/invariant"
	"videodvfs/internal/netsim"
	"videodvfs/internal/player"
	"videodvfs/internal/sim"
	"videodvfs/internal/trace"
	"videodvfs/internal/video"
)

// ViewerOptions customizes how a viewer plugs into state it does not
// own: a cohort's shared cells, a real network, or a cohort that reads
// no per-viewer result. All fields are optional; the zero value wires a
// viewer exactly like a standalone Run.
type ViewerOptions struct {
	// WrapBandwidth, if set, decorates the viewer's resolved bandwidth
	// model before the downloader sees it. The cohort's cell-congestion
	// model wraps the shared base trace here, so contention stacks on
	// top of whatever profile the config selects.
	WrapBandwidth func(netsim.Bandwidth) netsim.Bandwidth
	// OnNetActivity, if set, observes the viewer's download busy/idle
	// transitions — the signal the shared cell counts active flows
	// from. It rides the player's hook chain because the downloader's
	// own OnActive slot is single-listener and the player owns it.
	OnNetActivity func(now sim.Time, active bool)
	// OnDone fires inside the viewer's completion (or horizon-cut)
	// event. The cohort shard collects the result here, while the engine
	// clock still reads the viewer's own end time; its Finish stops the
	// background load.
	OnDone func()
	// Fetcher, if set, replaces the simulated downloader as the player's
	// segment source: the live player-driver (stress.Play) fetches over
	// real HTTP. The viewer still builds its radio and downloader, which
	// then carry no traffic.
	Fetcher player.Fetcher
	// NoErrorLog, if set, keeps an energy-aware viewer's governor from
	// logging each frame's prediction error (core.Governor.SkipErrorLog):
	// the result's Pred still counts N and Underestimates, but its RelErr
	// stays nil. The log holds a float per frame, so it grows with content
	// length; a cohort sets this when nothing reads its viewers' results.
	NoErrorLog bool
}

// Viewer is one streaming session's full per-device component set —
// meter, CPU core, governor, radio, downloader, player, background load,
// optional thermal model — wired into a virtual-time engine. Its reset is
// the only place a device is wired in the program:
//
//   - a Session owns an engine and rewinds one Viewer over it run after
//     run; RunCluster (F15) and RunSMP (F21) are Sessions whose viewer
//     runs on a big.LITTLE pair or a shared-clock domain (platform);
//   - a cohort shard multiplexes thousands of viewers over one SHARED
//     engine that no viewer owns or stops. N viewers over one engine is
//     the cohort substrate: one event slab, one clock, shared immutable
//     stream/bandwidth tables (the input memo), per-viewer
//     everything else;
//   - RunPlaylist (T7) plays clips in turn on one viewer's device
//     (playNext), and the live player-driver (stress.Play) is a viewer
//     whose player fetches over real HTTP (ViewerOptions.Fetcher).
//
// Because every path runs the same reset, a single viewer started at t=0
// replays a standalone Run's event sequence exactly, and the N=1 cohort ≡
// Run equivalence holds by construction (results compare with DeepEqual,
// not tolerances).
type Viewer struct {
	cfg    RunConfig // defaults applied
	eng    *sim.Engine
	onDone func() // ViewerOptions.OnDone
	plat   *platform

	meter   *energy.Meter
	core    *cpu.Core
	radio   *netsim.Radio
	dl      *netsim.Downloader
	ps      *player.Session
	ea      *core.Governor // the energy-aware instance, rewound across resets
	bg      *cpu.LoadGen
	bgRNG   *sim.RNG
	thermal *cpu.Thermal
	gov     governor.Governor
	chk     *invariant.Checker

	// Pre-bound untraced power listeners and completion callback: built
	// on first use so every later reset re-registers them without
	// allocating.
	cpuPowerFn   func(now sim.Time, watts float64)
	radioPowerFn func(now sim.Time, watts float64)
	doneFn       func()

	bgActive bool
	done     bool
	horizon  sim.Time // relative to join, same default as Run
	join     sim.Time
}

// platform is a viewer's CPU beyond its one decode core. nil, the zero
// value, is the single cfg.Device core every run has unless RunSMP or
// RunCluster sets a platform on a fresh Session for one run.
//
//   - A shared-clock domain (F21) has cores cfg.Device cores. The
//     energy-aware governor scales the whole domain; decode runs on core
//     0 and network and background work on the last core; the domain's
//     summed power is the CPU meter component.
//   - A big.LITTLE pair (F15) has cfg.Device as its big core and a
//     DeviceEfficient little core, metered as componentLittle, that runs
//     network and background work. Cluster-aware, the ClusterGovernor
//     places each decode job on either core; otherwise the energy-aware
//     governor drives big and little only idles and leaks.
//
// Only the decode core (core 0, or big) carries the tracer, so the
// invariant checker's single-core rules hold unchanged.
type platform struct {
	cores        int  // a shared-clock domain of this many cores
	bigLittle    bool // a big.LITTLE pair instead of a domain
	clusterAware bool // big.LITTLE: the cluster governor places decode

	domain  *cpu.Domain
	little  *cpu.Core
	work    *cpu.Core // the core network and background jobs run on
	cluster *core.ClusterGovernor
}

// name labels the platform for trace factories: "" for the single core,
// "biglittle" or "biglittle-aware" for a pair, "smp<cores>" for a domain.
func (p *platform) name() string {
	switch {
	case p == nil:
		return ""
	case p.clusterAware:
		return "biglittle-aware"
	case p.bigLittle:
		return "biglittle"
	default:
		return fmt.Sprintf("smp%d", p.cores)
	}
}

// activityHooks decorates SessionHooks with a second download-activity
// listener: the player consumes the downloader's single OnActive slot,
// so shared-cell flow counting rides the hook chain instead. The cell's
// listener runs first; the inner hooks (the video-aware governor) see
// the identical call they would without the wrapper.
type activityHooks struct {
	player.SessionHooks
	fn func(now sim.Time, active bool)
}

// DownloadActivity implements player.SessionHooks.
func (h activityHooks) DownloadActivity(now sim.Time, active bool) {
	h.fn(now, active)
	h.SessionHooks.DownloadActivity(now, active)
}

// withDefaults validates cfg the way Run does and fills the defaults Run
// documents: a frame trace's own length as the duration, then the
// flagship device and sports content at 720p.
func (cfg RunConfig) withDefaults() (RunConfig, error) {
	if cfg.Trace != nil && cfg.Duration <= 0 {
		cfg.Duration = cfg.Trace.Duration()
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
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
	return cfg, nil
}

// NewViewer builds a viewer over the shared engine, validating cfg the
// same way Run does. Per-viewer OnSample and Tracer are rejected: a
// shared engine multiplexes thousands of sessions, and per-viewer
// callbacks are exactly the O(viewers) output the cohort design replaces
// with online aggregation.
func NewViewer(eng *sim.Engine, cfg RunConfig, opts ViewerOptions) (*Viewer, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.OnSample != nil || cfg.Tracer != nil {
		return nil, fmt.Errorf("experiments: %w: per-viewer OnSample/Tracer not supported in a cohort (aggregate via rollups)",
			ErrInvalidConfig)
	}
	// The checker is a strict viewer's whole tracer chain: a Session's
	// chain without the sink.
	chk := buildChecker(cfg)
	var tr trace.Tracer
	if chk != nil {
		tr = chk
	}
	v := &Viewer{eng: eng}
	if err := v.reset(cfg, chk, tr, opts); err != nil {
		// An attached governor or thermal sampler keeps scheduling into
		// the SHARED engine; a half-built viewer would haunt the cohort.
		v.teardown()
		return nil, err
	}
	return v, nil
}

// reset wires the viewer for cfg (defaults applied): each component is
// built on first use and rewound in place on every later call, always in
// this order — the engine hands out event slots and the RNGs child seeds
// in call order, so wiring in any other sequence would diverge bit for
// bit. tr is the tracer every component emits into (nil = untraced); an
// armed chk must already ride in tr's chain, and collect finalizes it. On
// error the caller tears the viewer down.
func (v *Viewer) reset(cfg RunConfig, chk *invariant.Checker, tr trace.Tracer, opts ViewerOptions) error {
	v.cfg, v.chk, v.onDone = cfg, chk, opts.OnDone
	v.done, v.bgActive = false, false

	if v.meter == nil {
		v.meter = energy.NewMeter(v.eng)
		v.cpuPowerFn = v.meter.Listener(energy.ComponentCPU)
		v.radioPowerFn = v.meter.Listener(energy.ComponentRadio)
		v.doneFn = v.handleDone
	} else {
		v.meter.Reset()
	}

	var err error
	if v.core == nil {
		if v.core, err = v.newCores(cfg.Device); err != nil {
			return err
		}
	} else if err := v.core.Reset(cfg.Device); err != nil {
		return err
	}
	if cfg.CStates {
		if err := v.core.EnableCStates(); err != nil {
			return err
		}
	}
	if tr != nil {
		v.core.SetTracer(tr)
	}
	switch {
	case v.plat != nil && v.plat.domain != nil:
		v.plat.domain.OnPower(tracedListener(v.meter, energy.ComponentCPU, tr))
	case tr != nil:
		v.core.OnPower(tracedListener(v.meter, energy.ComponentCPU, tr))
	default:
		v.core.OnPower(v.cpuPowerFn)
	}

	if err := v.attachGovernor(cfg, tr); err != nil {
		return err
	}
	if opts.NoErrorLog && v.ea != nil {
		v.ea.SkipErrorLog()
	}

	bw, rrcCfg, err := buildBandwidth(cfg)
	if err != nil {
		return err
	}
	if opts.WrapBandwidth != nil {
		bw = opts.WrapBandwidth(bw)
	}
	if v.radio == nil {
		if v.radio, err = netsim.NewRadio(v.eng, rrcCfg); err != nil {
			return err
		}
	} else if err := v.radio.Reset(rrcCfg); err != nil {
		return err
	}
	if tr != nil {
		v.radio.SetTracer(tr)
		v.radio.OnPower(tracedListener(v.meter, energy.ComponentRadio, tr))
	} else {
		v.radio.OnPower(v.radioPowerFn)
	}

	if v.dl == nil {
		if v.dl, err = netsim.NewDownloader(v.eng, bw, v.radio, v.workCore()); err != nil {
			return err
		}
	} else if err := v.dl.Reset(bw); err != nil {
		return err
	}

	if cfg.Thermal != nil {
		if v.thermal, err = cpu.StartThermal(v.eng, v.core, *cfg.Thermal); err != nil {
			return err
		}
	}

	if cfg.Background {
		bgSeed := cfg.Seed
		if cfg.BGSeed != 0 {
			bgSeed = cfg.BGSeed
		}
		if v.bg == nil {
			v.bgRNG = sim.Stream(bgSeed, "bgload")
			v.bg = cpu.StartLoadGen(v.eng, v.workCore(), v.bgRNG)
		} else {
			// Reseeding reproduces the exact stream a fresh
			// sim.Stream(seed, "bgload") would draw.
			v.bgRNG.Reseed(sim.ChildSeed(bgSeed, "bgload"))
			v.bg.Restart()
		}
		v.bgActive = true
	}

	// The player keeps what it needs out of the rendition list (each
	// stream and its segment table), so the list lives on the stack: one
	// slot per default-ladder rung.
	var buf [4]*video.Stream
	renditions, algo, err := buildRenditions(cfg, buf[:0])
	if err != nil {
		return err
	}
	submitter, hooks := v.decodePath()
	if opts.OnNetActivity != nil {
		inner := hooks
		if inner == nil {
			inner = player.NopSessionHooks{}
		}
		hooks = activityHooks{SessionHooks: inner, fn: opts.OnNetActivity}
	}
	// The forecast observes the wrapped bandwidth — in a cohort, the
	// cell-congested view this viewer's downloader actually integrates —
	// so oracles predict contended rates, not the pristine sector input.
	fc, err := buildForecast(cfg, bw)
	if err != nil {
		return err
	}
	pcfg := v.playerConfig(cfg, algo, hooks, fc, tr)
	if v.ps == nil {
		var fet player.Fetcher = v.dl
		if opts.Fetcher != nil {
			fet = opts.Fetcher
		}
		if v.ps, err = player.NewSession(v.eng, submitter, fet, renditions, pcfg); err != nil {
			return err
		}
	} else if err := v.ps.Reset(renditions, pcfg); err != nil {
		return err
	}
	v.ps.OnDone(v.doneFn)

	v.horizon = cfg.EffectiveHorizon()
	return nil
}

// newCores builds the viewer's CPU and returns its decode core: one
// cfg.Device core, or the platform's cores (see platform).
func (v *Viewer) newCores(device cpu.Model) (*cpu.Core, error) {
	p := v.plat
	switch {
	case p == nil:
		return cpu.NewCore(v.eng, device)
	case p.bigLittle:
		big, err := cpu.NewCore(v.eng, device)
		if err != nil {
			return nil, err
		}
		if p.little, err = cpu.NewCore(v.eng, cpu.DeviceEfficient()); err != nil {
			return nil, err
		}
		p.little.OnPower(v.meter.Listener(componentLittle))
		p.work = p.little
		return big, nil
	default:
		d, err := cpu.NewDomain(v.eng, device, p.cores)
		if err != nil {
			return nil, err
		}
		p.domain, p.work = d, d.Cores()[p.cores-1]
		return d.Cores()[0], nil
	}
}

// workCore is the core network and background jobs run on: the decode
// core itself unless a platform places them elsewhere.
func (v *Viewer) workCore() *cpu.Core {
	if v.plat != nil {
		return v.plat.work
	}
	return v.core
}

// decodePath is where the player sends decode jobs and which hooks watch
// them: the cluster governor for both on a cluster-aware pair; otherwise
// the decode core, hooked by a video-aware governor (energy-aware,
// oracle) and by nothing under a stock baseline.
func (v *Viewer) decodePath() (decode.Submitter, player.SessionHooks) {
	if v.plat != nil && v.plat.cluster != nil {
		return v.plat.cluster, v.plat.cluster
	}
	hooks, _ := v.gov.(player.SessionHooks)
	return v.core, hooks
}

// attachGovernor resolves the run's policy and puts it in control: the
// cluster governor over a cluster-aware big.LITTLE pair, the energy-aware
// governor (RunSMP's only policy) over a whole shared-clock domain, and
// otherwise the run's governor over the decode core. A non-nil tracer is
// attached to the video-aware policies. The energy-aware instance is
// rewound in place across resets (predictor state and decision tables);
// the oracle and the stock baselines are built fresh — they are
// allocation-light and keep per-run sampling state.
func (v *Viewer) attachGovernor(cfg RunConfig, tr trace.Tracer) error {
	pol := cfg.Policy
	if pol == (core.Config{}) {
		pol = core.DefaultConfig()
	}
	p := v.plat
	if p != nil && p.clusterAware {
		var err error
		if p.cluster, err = core.NewClusterGovernor(v.core, p.little, pol); err != nil {
			return err
		}
		if tr != nil {
			p.cluster.SetTracer(tr)
		}
		return nil
	}
	var gov governor.Governor
	switch cfg.Governor {
	case GovEnergyAware:
		if v.ea == nil {
			g, err := core.New(pol)
			if err != nil {
				return err
			}
			v.ea = g
		} else if err := v.ea.Reset(pol); err != nil {
			return err
		}
		if tr != nil {
			v.ea.SetTracer(tr)
		}
		gov = v.ea
	case GovOracle:
		o := &core.Oracle{}
		if tr != nil {
			o.SetTracer(tr)
		}
		gov = o
	default:
		g, err := governor.New(string(cfg.Governor))
		if err != nil {
			return err
		}
		gov = g
	}
	var err error
	if p != nil && p.domain != nil {
		err = v.ea.AttachScaler(v.eng, p.domain)
	} else {
		err = gov.Attach(v.eng, v.core)
	}
	if err != nil {
		return err
	}
	v.gov = gov
	return nil
}

// playerConfig is the player configuration for cfg on this viewer: the
// run's thresholds, the adaptation algorithm algo, the policy's hooks,
// the forecast fc, the meter and the tracer tr. A reset and every
// playlist clip build their player from it.
func (v *Viewer) playerConfig(cfg RunConfig, algo abr.Algorithm, hooks player.SessionHooks, fc player.Forecast, tr trace.Tracer) player.Config {
	pcfg := player.DefaultConfig()
	if cfg.SegmentDur > 0 {
		pcfg.SegmentDur = cfg.SegmentDur
	}
	pcfg.ABR = algo
	pcfg.Hooks = hooks
	pcfg.Meter = v.meter
	pcfg.Tracer = tr
	if cfg.LowLatency {
		pcfg.StartupSec = 1
		pcfg.ResumeSec = 0.5
		pcfg.MaxBufferSec = 4
		pcfg.DecodedQueueCap = 3
	}
	if cfg.DecodedQueueCap > 0 {
		pcfg.DecodedQueueCap = cfg.DecodedQueueCap
	}
	pcfg.LowWaterSec = cfg.LowWaterSec
	pcfg.Forecast = fc
	return pcfg
}

// playNext starts the next clip of a playlist at the engine's current
// time: a fresh player for cfg's content over the viewer's same core,
// radio, downloader, governor and background load, so the demand
// predictor stays warm and the radio keeps its tail state. The previous
// clip's player has finished; any of its leftover events fire on it
// harmlessly. A playlist clip has no forecast and no tracer.
func (v *Viewer) playNext(cfg RunConfig) error {
	var buf [4]*video.Stream
	renditions, algo, err := buildRenditions(cfg, buf[:0])
	if err != nil {
		return err
	}
	submitter, hooks := v.decodePath()
	ps, err := player.NewSession(v.eng, submitter, v.dl, renditions, v.playerConfig(cfg, algo, hooks, nil, nil))
	if err != nil {
		return err
	}
	v.ps, v.done = ps, false
	ps.OnDone(v.doneFn)
	ps.Start()
	return nil
}

// Start begins the viewer's playback at the engine's current time — its
// join time. The cohort calls it directly for t=0 joins (preserving the
// exact pre-run scheduling order of a standalone Run) and from arrival
// events for later ones.
func (v *Viewer) Start() {
	v.join = v.eng.Now()
	v.ps.Start()
}

// Deadline returns the absolute virtual time of the viewer's horizon
// cap; valid after Start.
func (v *Viewer) Deadline() sim.Time { return v.join + v.horizon }

// handleDone runs inside the player's completion event, or the cohort's
// horizon cut, and hands off to OnDone — where a Session stops its
// engine, a cohort shard collects while the shared clock still reads
// this viewer's end, and a playlist waits out its think time before the
// next clip. The background load runs on until teardown.
func (v *Viewer) handleDone() {
	if v.done {
		return
	}
	v.done = true
	if v.onDone != nil {
		v.onDone()
	}
}

// Cut force-finishes a viewer still streaming when its horizon hits —
// the shared-engine analogue of RunUntil returning at the horizon with
// the session incomplete. It reports false (and does nothing) when the
// viewer already finished. A cut viewer's leftover player events drain
// harmlessly in the shared engine (they mirror the events a standalone
// Run leaves in the heap at its horizon); its Finish reports
// ErrHorizonExceeded, matching Run.
func (v *Viewer) Cut() bool {
	if v.done {
		return false
	}
	v.handleDone()
	return true
}

// Finish closes out a done viewer: energy accounting, then collect into
// res (reusing res's maps — the cohort passes one scratch RunResult per
// shard, never one per viewer). Call it from OnDone, while the engine
// clock still reads the viewer's end time.
func (v *Viewer) Finish(res *RunResult) error {
	if !v.done {
		return fmt.Errorf("experiments: viewer still streaming; Finish belongs in OnDone")
	}
	defer v.teardown()
	v.meter.Finish()
	return v.collect(res)
}

// collect is the close-out both Finish methods share: the session error,
// the invariant finalize, the horizon check, downloader and background
// errors, then the outcome into res (reusing res's maps and slices when
// present). A session neither failed nor completed was cut at its
// horizon: a Session's engine only stops early on completion or Cancel,
// and a viewer's only on completion or Cut.
func (v *Viewer) collect(res *RunResult) error {
	if err := v.ps.Err(); err != nil {
		return fmt.Errorf("experiments: session: %w", err)
	}
	if err := v.finalizeChecker(); err != nil {
		return err
	}
	if m := v.ps.Metrics(); !m.Completed {
		return fmt.Errorf("experiments: %w: session at %d/%d frames when the %v horizon hit",
			ErrHorizonExceeded, m.DisplayedFrames+m.DroppedFrames, m.TotalFrames, v.horizon)
	}
	if v.dl.Err() != nil {
		return fmt.Errorf("experiments: downloader: %w", v.dl.Err())
	}
	if v.bgActive && v.bg.Err() != nil {
		return fmt.Errorf("experiments: background load: %w", v.bg.Err())
	}
	v.collectResult(res)
	return nil
}

// finalizeChecker closes out an armed invariant checker against the
// run's final ground truth; no checker is a no-op. Any violation is
// returned wrapped exactly as strict Run reports it.
func (v *Viewer) finalizeChecker() error {
	if v.chk == nil {
		return nil
	}
	m := v.ps.Metrics()
	counts := v.ps.Decoder().Counts()
	rrcRes := make(map[string]sim.Time, 4)
	for state, d := range v.radio.Residency() {
		rrcRes[state.String()] = d
	}
	if viol := v.chk.Finalize(invariant.Final{
		End:           v.eng.Now(),
		CPUJ:          v.meter.ComponentJ(energy.ComponentCPU),
		RadioJ:        v.meter.ComponentJ(energy.ComponentRadio),
		DisplayJ:      v.meter.ComponentJ(energy.ComponentDisplay),
		FreqResidency: v.core.FreqResidency(),
		RRCResidency:  rrcRes,
		IdleResidency: v.core.IdleStateResidency(),
		Displayed:     m.DisplayedFrames,
		Dropped:       m.DroppedFrames,
		Total:         m.TotalFrames,
		Decoded:       counts.Decoded,
		Discarded:     counts.Discarded,
		ReadyLeft:     v.ps.Decoder().ReadyLen(),
		Completed:     m.Completed,
	}); viol != nil {
		return fmt.Errorf("experiments: strict: %w", viol)
	}
	return nil
}

// collectResult gathers a finished simulation's outcome into res, reusing
// res's maps and slices when present.
func (v *Viewer) collectResult(res *RunResult) {
	res.Governor = string(v.cfg.Governor)
	res.CPUJ = v.meter.ComponentJ(energy.ComponentCPU)
	res.RadioJ = v.meter.ComponentJ(energy.ComponentRadio)
	res.DisplayJ = v.meter.ComponentJ(energy.ComponentDisplay)
	res.QoE = v.ps.Metrics()
	if res.FreqResidency == nil {
		res.FreqResidency = make(map[int]sim.Time, len(v.cfg.Device.OPPs))
	}
	v.core.FreqResidencyInto(res.FreqResidency)
	if res.RadioResidency == nil {
		res.RadioResidency = make(map[netsim.RRCState]sim.Time, 4)
	}
	v.radio.ResidencyInto(res.RadioResidency)
	res.RadioPromotions = v.radio.Promotions()
	res.Fetches = v.dl.Fetches()
	res.SimEnd = v.eng.Now()
	res.MeanFreqGHz = meanFreqGHz(v.cfg.Device, res.FreqResidency)
	if v.cfg.CStates {
		if res.IdleResidency == nil {
			res.IdleResidency = make(map[string]sim.Time, 4)
		}
		v.core.IdleStateResidencyInto(res.IdleResidency)
	} else {
		// A nil map, not an emptied one: it must compare equal to a fresh
		// run's result, which never allocates the map without C-states.
		res.IdleResidency = nil
	}
	res.OPPTransitions = v.core.Transitions()
	res.MaxTempC, res.ThrottleEvents, res.ThrottledS = 0, 0, 0
	if v.thermal != nil {
		res.MaxTempC = v.thermal.MaxTempC()
		res.ThrottleEvents = v.thermal.ThrottleEvents()
		res.ThrottledS = v.thermal.ThrottledTime().Seconds()
	}
	if v.cfg.Governor == GovEnergyAware && v.ea != nil {
		// (A cluster-aware pair runs the rule inside its cluster
		// governor and has no v.ea.) Copy the stats out: the governor's
		// RelErr backing array is recycled by the next reset, so the
		// result must own its slice. A NoErrorLog viewer logged nothing,
		// so nothing is copied and RelErr stays nil.
		st := v.ea.PredStats()
		if res.Pred == nil {
			res.Pred = new(core.PredictionStats)
		}
		res.Pred.N = st.N
		res.Pred.Underestimates = st.Underestimates
		res.Pred.RelErr = append(res.Pred.RelErr[:0], st.RelErr...)
	} else {
		res.Pred = nil
	}
}

// teardown quiesces the viewer's per-run machinery — background load,
// thermal sampler, governor ticker — and detaches the checker from the
// component tracers, so events a shared engine fires after the viewer
// finished (radio tails, which a standalone Run's stopped engine never
// fires) cannot reach it. A cohort viewer tears down inside its own
// completion event, because its OnDone calls Finish.
func (v *Viewer) teardown() {
	if v.bgActive {
		v.bg.Stop()
	}
	if v.thermal != nil {
		v.thermal.Stop()
		v.thermal = nil
	}
	if v.gov != nil {
		v.gov.Detach()
		v.gov = nil
	}
	if v.chk != nil {
		if v.core != nil {
			v.core.SetTracer(nil)
		}
		if v.radio != nil {
			v.radio.SetTracer(nil)
		}
	}
}
