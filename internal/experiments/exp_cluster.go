package experiments

import (
	"fmt"

	"videodvfs/internal/campaign"
	"videodvfs/internal/core"
	"videodvfs/internal/cpu"
	"videodvfs/internal/decode"
	"videodvfs/internal/energy"
	"videodvfs/internal/netsim"
	"videodvfs/internal/player"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

// Energy-meter components for the two frequency domains.
const (
	componentBig    = "cpu-big"
	componentLittle = "cpu-little"
)

// ClusterResult is the outcome of one big.LITTLE session.
type ClusterResult struct {
	// BigJ and LittleJ are per-cluster energies.
	BigJ, LittleJ float64
	// LittleShare is the fraction of decode jobs placed on little.
	LittleShare float64
	// QoE is the player report.
	QoE player.Metrics
}

// TotalJ returns combined CPU energy.
func (r ClusterResult) TotalJ() float64 { return r.BigJ + r.LittleJ }

// RunCluster simulates a streaming session on a big.LITTLE device
// (flagship big cluster + efficient little cluster). With clusterAware
// set, the cluster-extension governor places work across both domains;
// otherwise the single-core energy-aware governor drives the big cluster
// while the little cluster sits idle (but still leaks), which is the
// fair hardware-equal baseline.
func RunCluster(res video.Resolution, dur sim.Time, seed int64, clusterAware bool) (ClusterResult, error) {
	eng := sim.NewEngine()
	meter := energy.NewMeter(eng)

	big, err := cpu.NewCore(eng, cpu.DeviceFlagship())
	if err != nil {
		return ClusterResult{}, err
	}
	big.OnPower(meter.Listener(componentBig))
	little, err := cpu.NewCore(eng, cpu.DeviceEfficient())
	if err != nil {
		return ClusterResult{}, err
	}
	little.OnPower(meter.Listener(componentLittle))

	radio, err := netsim.NewRadio(eng, netsim.DefaultLTE())
	if err != nil {
		return ClusterResult{}, err
	}
	radio.OnPower(meter.Listener(energy.ComponentRadio))
	// Network-stack processing runs on the little cluster on both
	// configurations, as vendor schedulers place it.
	dl, err := netsim.NewDownloader(eng, netsim.Constant{Bps: 8e6}, radio, little, netsim.DefaultDownloaderConfig())
	if err != nil {
		return ClusterResult{}, err
	}
	bg, err := cpu.StartLoadGen(eng, little, sim.Stream(seed, "bgload"), cpu.DefaultLoadGenConfig())
	if err != nil {
		return ClusterResult{}, err
	}

	spec := video.DefaultSpec(video.TitleSports, res)
	stream, err := video.Generate(spec, dur, seed)
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
		clusterGov, err = core.NewClusterGovernor(big, little, core.DefaultClusterConfig())
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
	sess, err := player.NewSession(eng, submitter, dl, []*video.Stream{stream}, pcfg)
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
		BigJ:    meter.ComponentJ(componentBig),
		LittleJ: meter.ComponentJ(componentLittle),
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

// FigF15 reproduces Figure 15 (extension): the big.LITTLE placement
// extension. On content the little cluster can sustain, routing decode
// there cuts CPU energy well below the big-cluster-only policy.
func FigF15() (Table, error) {
	t := Table{
		ID:     "f15",
		Title:  "big.LITTLE extension (60 s sports): decode placement across clusters",
		Header: []string{"resolution", "policy", "big_j", "little_j", "total_j", "little_share", "drops", "saving"},
		Notes:  "≤720p decodes almost entirely on the little cluster at a fraction of the energy; 1080p hot scenes still need the big cluster",
	}
	// Cluster runs are not RunConfigs, so they batch through the generic
	// campaign pool directly.
	type point struct {
		res   video.Resolution
		aware bool
	}
	var points []point
	var jobs []campaign.Job[ClusterResult]
	for _, res := range video.Resolutions() {
		for _, aware := range []bool{false, true} {
			res, aware := res, aware
			points = append(points, point{res, aware})
			jobs = append(jobs, func() (ClusterResult, error) {
				return RunCluster(res, 60*sim.Second, 1, aware)
			})
		}
	}
	results, err := campaign.Values(campaign.Do(jobs, campaign.Options[ClusterResult]{}))
	if err != nil {
		return Table{}, fmt.Errorf("f15: %w", err)
	}
	var baseTotal float64
	for i, out := range results {
		p := points[i]
		name := "big-only"
		if p.aware {
			name = "cluster"
		} else {
			baseTotal = out.TotalJ()
		}
		saving := "-"
		if p.aware && baseTotal > 0 {
			saving = pct((baseTotal - out.TotalJ()) / baseTotal)
		}
		t.Rows = append(t.Rows, []string{
			p.res.Name, name, f1(out.BigJ), f1(out.LittleJ), f1(out.TotalJ()),
			pct(out.LittleShare), iv(out.QoE.DroppedFrames), saving,
		})
	}
	return t, nil
}
