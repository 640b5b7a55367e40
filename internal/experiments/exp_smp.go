package experiments

import (
	"fmt"

	"videodvfs/internal/abr"
	"videodvfs/internal/campaign"
	"videodvfs/internal/core"
	"videodvfs/internal/cpu"
	"videodvfs/internal/energy"
	"videodvfs/internal/netsim"
	"videodvfs/internal/player"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

// SMPResult is the outcome of one shared-clock multi-core session.
type SMPResult struct {
	// CPUJ is the whole-domain energy.
	CPUJ float64
	// QoE is the player report.
	QoE player.Metrics
	// BoostFrames counts frames the policy ran at forced fmax.
	BoostFrames int
}

// RunSMP simulates a streaming session on an n-core shared-clock domain
// under the energy-aware policy. With more cores, network-stack and
// background jobs no longer queue behind decode (non-preemptive
// interference disappears), at the price of extra per-core idle power.
func RunSMP(cores int, res video.Resolution, dur sim.Time, seed int64) (SMPResult, error) {
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
	dl, err := netsim.NewDownloader(eng, netsim.Constant{Bps: 8e6}, radio, domain.Cores()[cores-1], netsim.DefaultDownloaderConfig())
	if err != nil {
		return SMPResult{}, err
	}
	bg, err := cpu.StartLoadGen(eng, domain.Cores()[cores-1], sim.Stream(seed, "bgload"), cpu.DefaultLoadGenConfig())
	if err != nil {
		return SMPResult{}, err
	}

	spec := video.DefaultSpec(video.TitleSports, res)
	stream, err := video.Generate(spec, dur, seed)
	if err != nil {
		return SMPResult{}, err
	}
	pcfg := player.DefaultConfig()
	pcfg.ABR = abr.Fixed{Rung: 0}
	pcfg.Hooks = gov
	pcfg.Meter = meter
	sess, err := player.NewSession(eng, domain.Cores()[0], dl, []*video.Stream{stream}, pcfg)
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

// FigF21 reproduces Figure 21 (extension): the shared-clock SMP trade —
// and a consolidation argument. A single decode thread cannot exploit
// extra cores, the policy's margin already absorbs the network/UI
// interference (boost counts are startup-only at every width), and each
// additional core leaks ≈0.1 W of idle power the shared per-cluster clock
// cannot gate. Streaming belongs consolidated on one core (with the rest
// power-collapsed or hotplugged), which is what the single-core base case
// models.
func FigF21() (Table, error) {
	t := Table{
		ID:     "f21",
		Title:  "Shared-clock SMP (720p sports, 60 s, energy-aware): cores vs interference",
		Header: []string{"cores", "cpu_j", "boost_frames", "drops", "rebuffers"},
		Notes:  "boosts are startup-only at every width (the margin absorbs interference); each extra shared-clock core adds ≈0.11 W idle leakage for zero QoE gain — consolidation wins",
	}
	widths := []int{1, 2, 4}
	jobs := make([]campaign.Job[SMPResult], len(widths))
	for i, cores := range widths {
		cores := cores
		jobs[i] = func() (SMPResult, error) {
			return RunSMP(cores, video.R720p, 60*sim.Second, 1)
		}
	}
	results, err := campaign.Values(campaign.Do(jobs, campaign.Options[SMPResult]{}))
	if err != nil {
		return Table{}, fmt.Errorf("f21: %w", err)
	}
	for i, res := range results {
		t.Rows = append(t.Rows, []string{
			iv(widths[i]), f1(res.CPUJ), iv(res.BoostFrames),
			iv(res.QoE.DroppedFrames), iv(res.QoE.RebufferCount),
		})
	}
	return t, nil
}
