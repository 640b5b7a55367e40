package experiments

import (
	"fmt"

	"videodvfs/internal/campaign"
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
// under the energy-aware policy, in the evaluation's base case
// (DefaultRunConfig at res, dur and seed). Decode runs on the first core,
// network-stack and background jobs on the last, so with more cores they
// no longer queue behind decode (non-preemptive interference
// disappears), at the price of extra per-core idle power.
//
// It is a Session run over a domain platform, so it closes out like Run
// (an incomplete session fails with ErrHorizonExceeded) and strict mode
// and the trace factory reach it. One core is exactly Run's single core.
func RunSMP(cores int, res video.Resolution, dur sim.Time, seed int64) (SMPResult, error) {
	v, out, err := (&platform{cores: cores}).run(rigConfig(res, dur, seed))
	if err != nil {
		return SMPResult{}, err
	}
	return SMPResult{CPUJ: out.CPUJ, QoE: out.QoE, BoostFrames: v.ea.BoostFrames()}, nil
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
	results, err := campaign.Values(campaign.Do(jobs, campaign.Options{}))
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
