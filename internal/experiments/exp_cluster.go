package experiments

import (
	"fmt"

	"videodvfs/internal/campaign"
	"videodvfs/internal/player"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

// componentLittle is the energy-meter component of a big.LITTLE
// platform's little core; big is the CPU component.
const componentLittle = "cpu-little"

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
// (flagship big cluster + efficient little cluster) in the evaluation's
// base case (DefaultRunConfig at res, dur and seed). Network and
// background work run on little in both configurations, as vendor
// schedulers place them. With clusterAware set, the cluster-extension
// governor places decode across both domains; otherwise the single-core
// energy-aware governor drives the big cluster while the little cluster
// sits idle (but still leaks), which is the fair hardware-equal baseline.
//
// It is a Session run over a big.LITTLE platform, so it closes out like
// Run (an incomplete session fails with ErrHorizonExceeded) and strict
// mode and the trace factory reach it.
func RunCluster(res video.Resolution, dur sim.Time, seed int64, clusterAware bool) (ClusterResult, error) {
	p := &platform{bigLittle: true, clusterAware: clusterAware}
	v, out, err := p.run(rigConfig(res, dur, seed))
	if err != nil {
		return ClusterResult{}, err
	}
	r := ClusterResult{BigJ: out.CPUJ, LittleJ: v.meter.ComponentJ(componentLittle), QoE: out.QoE}
	if p.cluster != nil {
		if total := p.cluster.FramesOnBig() + p.cluster.FramesOnLittle(); total > 0 {
			r.LittleShare = float64(p.cluster.FramesOnLittle()) / float64(total)
		}
	}
	return r, nil
}

// rigConfig is the base case RunCluster and RunSMP simulate:
// DefaultRunConfig at resolution res, content length dur and seed.
func rigConfig(res video.Resolution, dur sim.Time, seed int64) RunConfig {
	cfg := DefaultRunConfig()
	cfg.Rung, cfg.Duration, cfg.Seed = res, dur, seed
	return cfg
}

// run executes cfg once on a fresh Session whose viewer runs on p, and
// returns that viewer for the platform's extra outputs.
func (p *platform) run(cfg RunConfig) (*Viewer, RunResult, error) {
	s := NewSession()
	s.v.plat = p
	var res RunResult
	err := s.RunInto(cfg, &res)
	return &s.v, res, err
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
	// A cluster run is a RunConfig plus a platform, so it batches through
	// the generic campaign pool directly.
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
	results, err := campaign.Values(campaign.Do(jobs, campaign.Options{}))
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
