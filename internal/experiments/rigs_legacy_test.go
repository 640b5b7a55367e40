package experiments

// Frozen copies of the hand-wired rigs RunCluster (F15), RunSMP (F21) and
// RunPlaylist (T7) as they stood before Viewer.reset became the only
// wiring. They are the bit-exact reference TestRigsMatchLegacy holds the
// viewer-based rigs to; the goldens print 0.1 J and cannot catch a
// last-bit drift. Do not edit them to follow the live code.

import (
	"math"
	"reflect"
	"testing"

	"videodvfs/internal/core"
	"videodvfs/internal/cpu"
	"videodvfs/internal/decode"
	"videodvfs/internal/energy"
	"videodvfs/internal/governor"
	"videodvfs/internal/netsim"
	"videodvfs/internal/player"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

// The legacy big.LITTLE rig metered big under its own name.
const (
	legacyComponentBig    = "cpu-big"
	legacyComponentLittle = "cpu-little"
)

// legacyRunCluster is the hand-wired RunCluster.
func legacyRunCluster(res video.Resolution, dur sim.Time, seed int64, clusterAware bool) (ClusterResult, error) {
	eng := sim.NewEngine()
	meter := energy.NewMeter(eng)

	big, err := cpu.NewCore(eng, cpu.DeviceFlagship())
	if err != nil {
		return ClusterResult{}, err
	}
	big.OnPower(meter.Listener(legacyComponentBig))
	little, err := cpu.NewCore(eng, cpu.DeviceEfficient())
	if err != nil {
		return ClusterResult{}, err
	}
	little.OnPower(meter.Listener(legacyComponentLittle))

	radio, err := netsim.NewRadio(eng, netsim.DefaultLTE())
	if err != nil {
		return ClusterResult{}, err
	}
	radio.OnPower(meter.Listener(energy.ComponentRadio))
	// Network-stack processing runs on the little cluster on both
	// configurations, as vendor schedulers place it.
	dl, err := netsim.NewDownloader(eng, netsim.Constant{Bps: 8e6}, radio, little)
	if err != nil {
		return ClusterResult{}, err
	}
	bg := cpu.StartLoadGen(eng, little, sim.Stream(seed, "bgload"))

	streams, _, err := buildRenditions(RunConfig{Title: video.TitleSports, Rung: res, Duration: dur, Seed: seed}, nil)
	if err != nil {
		return ClusterResult{}, err
	}

	var (
		submitter   decode.Submitter
		hooks       player.SessionHooks
		clusterGov  *core.ClusterGovernor
		littleShare float64
	)
	if clusterAware {
		clusterGov, err = core.NewClusterGovernor(big, little, core.DefaultConfig())
		if err != nil {
			return ClusterResult{}, err
		}
		submitter = clusterGov
		hooks = clusterGov
	} else {
		gov, gerr := core.New(core.DefaultConfig())
		if gerr != nil {
			return ClusterResult{}, gerr
		}
		if aerr := gov.Attach(eng, big); aerr != nil {
			return ClusterResult{}, aerr
		}
		submitter = big
		hooks = gov
	}

	pcfg := player.DefaultConfig()
	pcfg.Hooks = hooks
	pcfg.Meter = meter
	sess, err := player.NewSession(eng, submitter, dl, streams, pcfg)
	if err != nil {
		return ClusterResult{}, err
	}
	sess.OnDone(func() {
		bg.Stop()
		eng.Stop()
	})
	sess.Start()
	eng.RunUntil(RunConfig{Duration: dur}.EffectiveHorizon())
	meter.Finish()
	if err := sess.Err(); err != nil {
		return ClusterResult{}, err
	}

	out := ClusterResult{
		BigJ:    meter.ComponentJ(legacyComponentBig),
		LittleJ: meter.ComponentJ(legacyComponentLittle),
		QoE:     sess.Metrics(),
	}
	if clusterGov != nil {
		total := clusterGov.FramesOnBig() + clusterGov.FramesOnLittle()
		if total > 0 {
			littleShare = float64(clusterGov.FramesOnLittle()) / float64(total)
		}
	}
	out.LittleShare = littleShare
	return out, nil
}

// legacyRunSMP is the hand-wired RunSMP.
func legacyRunSMP(cores int, res video.Resolution, dur sim.Time, seed int64) (SMPResult, error) {
	eng := sim.NewEngine()
	meter := energy.NewMeter(eng)

	domain, err := cpu.NewDomain(eng, cpu.DeviceFlagship(), cores)
	if err != nil {
		return SMPResult{}, err
	}
	domain.OnPower(meter.Listener(energy.ComponentCPU))

	gov, err := core.New(core.DefaultConfig())
	if err != nil {
		return SMPResult{}, err
	}
	if err := gov.AttachScaler(eng, domain); err != nil {
		return SMPResult{}, err
	}
	defer gov.Detach()

	radio, err := netsim.NewRadio(eng, netsim.DefaultLTE())
	if err != nil {
		return SMPResult{}, err
	}
	radio.OnPower(meter.Listener(energy.ComponentRadio))
	// Network work enters the domain and the balancer places it.
	dl, err := netsim.NewDownloader(eng, netsim.Constant{Bps: 8e6}, radio, domain.Cores()[cores-1])
	if err != nil {
		return SMPResult{}, err
	}
	bg := cpu.StartLoadGen(eng, domain.Cores()[cores-1], sim.Stream(seed, "bgload"))

	streams, _, err := buildRenditions(RunConfig{Title: video.TitleSports, Rung: res, Duration: dur, Seed: seed}, nil)
	if err != nil {
		return SMPResult{}, err
	}
	pcfg := player.DefaultConfig()
	pcfg.Hooks = gov
	pcfg.Meter = meter
	sess, err := player.NewSession(eng, domain.Cores()[0], dl, streams, pcfg)
	if err != nil {
		return SMPResult{}, err
	}
	sess.OnDone(func() {
		bg.Stop()
		eng.Stop()
	})
	sess.Start()
	eng.RunUntil(RunConfig{Duration: dur}.EffectiveHorizon())
	meter.Finish()
	if err := sess.Err(); err != nil {
		return SMPResult{}, err
	}
	return SMPResult{
		CPUJ:        meter.ComponentJ(energy.ComponentCPU),
		QoE:         sess.Metrics(),
		BoostFrames: gov.BoostFrames(),
	}, nil
}

// legacyRunPlaylist is the hand-wired RunPlaylist.
func legacyRunPlaylist(cfg PlaylistConfig) (PlaylistResult, error) {
	if err := cfg.Validate(); err != nil {
		return PlaylistResult{}, err
	}
	eng := sim.NewEngine()
	meter := energy.NewMeter(eng)

	coreCPU, err := cpu.NewCore(eng, cpu.DeviceFlagship())
	if err != nil {
		return PlaylistResult{}, err
	}
	coreCPU.OnPower(meter.Listener(energy.ComponentCPU))

	var (
		gov   governor.Governor
		hooks player.SessionHooks
	)
	if cfg.Governor == "energyaware" {
		g, gerr := core.New(core.DefaultConfig())
		if gerr != nil {
			return PlaylistResult{}, gerr
		}
		gov, hooks = g, g
	} else {
		g, gerr := governor.New(cfg.Governor)
		if gerr != nil {
			return PlaylistResult{}, gerr
		}
		gov = g
	}
	if err := gov.Attach(eng, coreCPU); err != nil {
		return PlaylistResult{}, err
	}
	defer gov.Detach()

	rrc := netsim.DefaultUMTS()
	rrc.FastDormancy = cfg.FastDormancy
	radio, err := netsim.NewRadio(eng, rrc)
	if err != nil {
		return PlaylistResult{}, err
	}
	radio.OnPower(meter.Listener(energy.ComponentRadio))
	dl, err := netsim.NewDownloader(eng, netsim.Constant{Bps: 8e6}, radio, coreCPU)
	if err != nil {
		return PlaylistResult{}, err
	}
	bg := cpu.StartLoadGen(eng, coreCPU, sim.Stream(cfg.Seed, "bgload"))

	var out PlaylistResult
	var startClip func(i int)
	startClip = func(i int) {
		if i >= cfg.Videos {
			bg.Stop()
			eng.Stop()
			return
		}
		streams, _, gerr := buildRenditions(RunConfig{Title: video.TitleSports, Rung: video.R720p,
			Duration: cfg.VideoDur, Seed: cfg.Seed + int64(i)}, nil)
		if gerr != nil {
			if err == nil {
				err = gerr
			}
			eng.Stop()
			return
		}
		pcfg := player.DefaultConfig()
		pcfg.Hooks = hooks
		pcfg.Meter = meter
		pcfg.LowWaterSec = 10 // burst prefetch: realistic radio pattern
		sess, serr := player.NewSession(eng, coreCPU, dl, streams, pcfg)
		if serr != nil {
			if err == nil {
				err = serr
			}
			eng.Stop()
			return
		}
		sess.OnDone(func() {
			m := sess.Metrics()
			out.Drops += m.DroppedFrames
			out.Rebuffers += m.RebufferCount
			out.Completed++
			eng.Schedule(cfg.ThinkDur, func() { startClip(i + 1) })
		})
		sess.Start()
	}
	startClip(0)
	// The playlist's content gets a run's horizon, plus the think time
	// between clips.
	n := sim.Time(cfg.Videos)
	eng.RunUntil(RunConfig{Duration: n * cfg.VideoDur}.EffectiveHorizon() + n*cfg.ThinkDur)
	meter.Finish()
	if err != nil {
		return PlaylistResult{}, err
	}
	out.CPUJ = meter.ComponentJ(energy.ComponentCPU)
	out.RadioJ = meter.ComponentJ(energy.ComponentRadio)
	out.DisplayJ = meter.ComponentJ(energy.ComponentDisplay)
	out.WallS = eng.Now().Seconds()
	return out, nil
}

// TestRigsMatchLegacy runs the F15, F21 and T7 rigs over a 192-point grid
// and requires every energy, share, wall time and player.Metrics to equal
// the frozen hand-wired rig's bit for bit.
func TestRigsMatchLegacy(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

	// F15: 4 resolutions × aware/unaware × 3 seeds × 2 durations = 48.
	for _, res := range video.Resolutions() {
		for _, aware := range []bool{false, true} {
			for _, seed := range []int64{1, 2, 7} {
				for _, dur := range []sim.Time{30 * sim.Second, 60 * sim.Second} {
					got, err := RunCluster(res, dur, seed, aware)
					want, werr := legacyRunCluster(res, dur, seed, aware)
					if err != nil || werr != nil {
						t.Fatalf("f15 %s aware=%v seed=%d %v: %v / legacy %v", res.Name, aware, seed, dur, err, werr)
					}
					if !same(got.BigJ, want.BigJ) || !same(got.LittleJ, want.LittleJ) ||
						!same(got.LittleShare, want.LittleShare) || got.QoE != want.QoE {
						t.Errorf("f15 %s aware=%v seed=%d %v:\n got %+v\nwant %+v", res.Name, aware, seed, dur, got, want)
					}
				}
			}
		}
	}

	// F21: 1–4 cores × 4 resolutions × 2 seeds = 32.
	for cores := 1; cores <= 4; cores++ {
		for _, res := range video.Resolutions() {
			for _, seed := range []int64{1, 2} {
				got, err := RunSMP(cores, res, 60*sim.Second, seed)
				want, werr := legacyRunSMP(cores, res, 60*sim.Second, seed)
				if err != nil || werr != nil {
					t.Fatalf("f21 %d cores %s seed=%d: %v / legacy %v", cores, res.Name, seed, err, werr)
				}
				if !same(got.CPUJ, want.CPUJ) || got.BoostFrames != want.BoostFrames || got.QoE != want.QoE {
					t.Errorf("f21 %d cores %s seed=%d:\n got %+v\nwant %+v", cores, res.Name, seed, got, want)
				}
			}
		}
	}

	// T7: 7 governors × dormancy × 2 seeds × 1 or 3 clips × 0 or 30 s
	// think = 112.
	govs := append(governor.BaselineNames(), string(GovEnergyAware))
	for _, gov := range govs {
		for _, fd := range []bool{false, true} {
			for _, seed := range []int64{1, 4} {
				for _, videos := range []int{1, 3} {
					for _, think := range []sim.Time{0, 30 * sim.Second} {
						cfg := PlaylistConfig{Governor: gov, Videos: videos, VideoDur: 20 * sim.Second,
							ThinkDur: think, FastDormancy: fd, Seed: seed}
						got, err := RunPlaylist(cfg)
						want, werr := legacyRunPlaylist(cfg)
						if err != nil || werr != nil {
							t.Fatalf("t7 %+v: %v / legacy %v", cfg, err, werr)
						}
						if !same(got.CPUJ, want.CPUJ) || !same(got.RadioJ, want.RadioJ) ||
							!same(got.DisplayJ, want.DisplayJ) || !same(got.WallS, want.WallS) ||
							!reflect.DeepEqual(got, want) {
							t.Errorf("t7 %+v:\n got %+v\nwant %+v", cfg, got, want)
						}
					}
				}
			}
		}
	}
}
