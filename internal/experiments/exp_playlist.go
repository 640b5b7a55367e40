package experiments

import (
	"fmt"

	"videodvfs/internal/energy"
	"videodvfs/internal/netsim"
	"videodvfs/internal/sim"
)

// PlaylistConfig describes a realistic usage session: the user watches
// several short videos back to back with think-time pauses (browsing the
// next video) between them. The pauses are where radio tail energy and
// fast dormancy matter most.
type PlaylistConfig struct {
	// Governor is the policy name: any name ParseGovernorID accepts.
	Governor string
	// Videos is the number of clips.
	Videos int
	// VideoDur is each clip's length.
	VideoDur sim.Time
	// ThinkDur is the pause between clips.
	ThinkDur sim.Time
	// FastDormancy releases the radio immediately after each burst.
	FastDormancy bool
	// Seed drives all stochastic inputs.
	Seed int64
}

// Validate checks the configuration.
func (c PlaylistConfig) Validate() error {
	if c.Videos <= 0 {
		return fmt.Errorf("playlist: %d videos", c.Videos)
	}
	if c.VideoDur <= 0 || c.ThinkDur < 0 {
		return fmt.Errorf("playlist: video %v / think %v durations invalid", c.VideoDur, c.ThinkDur)
	}
	return nil
}

// PlaylistResult summarizes a usage session.
type PlaylistResult struct {
	// CPUJ, RadioJ, DisplayJ are per-component energies.
	CPUJ, RadioJ, DisplayJ float64
	// WallS is the whole session span including pauses.
	WallS float64
	// Drops and Rebuffers aggregate across clips.
	Drops, Rebuffers int
	// Completed counts clips that finished.
	Completed int
}

// TotalJ returns whole-device energy.
func (r PlaylistResult) TotalJ() float64 { return r.CPUJ + r.RadioJ + r.DisplayJ }

// MeanW returns the session's mean device power.
func (r PlaylistResult) MeanW() float64 {
	if r.WallS <= 0 {
		return 0
	}
	return r.TotalJ() / r.WallS
}

// RunPlaylist simulates the usage session on shared hardware: one CPU,
// one radio, one governor across all clips (so the demand predictor stays
// warm between videos, as it would on a device). It is one viewer —
// flagship device, 720p sports over a constant 8 Mbps link on the UMTS
// radio profile, background load on, burst prefetch — that plays its
// clips in turn (playNext), each with its own content seed, while the
// background load and the radio's tail timers run on through the think
// time. The governor is parsed like Run's (ParseGovernorID).
//
// The viewer arms no invariant checker, even under SetStrictDefault: the
// checker's frame accounting follows one stream, and a playlist plays
// several.
func RunPlaylist(cfg PlaylistConfig) (PlaylistResult, error) {
	if err := cfg.Validate(); err != nil {
		return PlaylistResult{}, err
	}
	rrc := netsim.DefaultUMTS()
	rrc.FastDormancy = cfg.FastDormancy
	// The playlist's content gets a run's horizon, plus the think time
	// between clips.
	n := sim.Time(cfg.Videos)
	clip, err := RunConfig{
		Governor:    GovernorID(cfg.Governor),
		Net:         NetConst8,
		RRC:         &rrc,
		Duration:    cfg.VideoDur,
		Seed:        cfg.Seed,
		Background:  true,
		LowWaterSec: 10, // burst prefetch: realistic radio pattern
		Horizon:     RunConfig{Duration: n * cfg.VideoDur}.EffectiveHorizon() + n*cfg.ThinkDur,
	}.withDefaults()
	if err != nil {
		return PlaylistResult{}, err
	}

	v := &Viewer{eng: sim.NewEngine()}
	defer v.teardown()
	var out PlaylistResult
	// Each finished clip waits out the think time, then the next one
	// starts on the same device; after the last, the session ends.
	next := func() {
		if out.Completed >= cfg.Videos {
			v.eng.Stop()
			return
		}
		clip.Seed = cfg.Seed + int64(out.Completed)
		if err = v.playNext(clip); err != nil {
			v.eng.Stop()
		}
	}
	done := func() {
		m := v.ps.Metrics()
		out.Drops += m.DroppedFrames
		out.Rebuffers += m.RebufferCount
		out.Completed++
		v.eng.Schedule(cfg.ThinkDur, next)
	}
	if err := v.reset(clip, nil, nil, ViewerOptions{OnDone: done}); err != nil {
		return PlaylistResult{}, err
	}
	v.Start()
	v.eng.RunUntil(v.Deadline())
	v.meter.Finish()
	if err != nil {
		return PlaylistResult{}, err
	}
	out.CPUJ = v.meter.ComponentJ(energy.ComponentCPU)
	out.RadioJ = v.meter.ComponentJ(energy.ComponentRadio)
	out.DisplayJ = v.meter.ComponentJ(energy.ComponentDisplay)
	out.WallS = v.eng.Now().Seconds()
	return out, nil
}

// TableT7 reproduces Table 7 (extension): the whole usage session —
// watch, pause, watch — where radio tails during think time meet the CPU
// policy during playback.
func TableT7() (Table, error) {
	t := Table{
		ID:     "t7",
		Title:  "Usage session (3 × 60 s clips, 30 s think time, UMTS): policy × dormancy",
		Header: []string{"governor", "dormancy", "cpu_j", "radio_j", "display_j", "total_j", "mean_w", "drops", "rebuffers"},
		Notes:  "the two savings compose: the CPU policy cuts playback energy while fast dormancy reclaims the think-time radio tails",
	}
	for _, gov := range []string{"ondemand", "energyaware"} {
		for _, fd := range []bool{false, true} {
			res, err := RunPlaylist(PlaylistConfig{
				Governor:     gov,
				Videos:       3,
				VideoDur:     60 * sim.Second,
				ThinkDur:     30 * sim.Second,
				FastDormancy: fd,
				Seed:         1,
			})
			if err != nil {
				return Table{}, fmt.Errorf("t7 %s fd=%v: %w", gov, fd, err)
			}
			if res.Completed != 3 {
				return Table{}, fmt.Errorf("t7 %s fd=%v: %d/3 clips completed", gov, fd, res.Completed)
			}
			dormancy := "tails"
			if fd {
				dormancy = "fast"
			}
			t.Rows = append(t.Rows, []string{
				gov, dormancy, f1(res.CPUJ), f1(res.RadioJ), f1(res.DisplayJ),
				f1(res.TotalJ()), f2c(res.MeanW()), iv(res.Drops), iv(res.Rebuffers),
			})
		}
	}
	return t, nil
}
