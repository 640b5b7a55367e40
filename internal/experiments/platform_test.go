package experiments

import (
	"errors"
	"math"
	"testing"

	"videodvfs/internal/cpu"
	"videodvfs/internal/invariant"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

// TestPlatformRigsStrict shows strict mode reaching the big.LITTLE and
// shared-clock rigs: they pass with the checker armed, and a checker
// grounded in a one-OPP table makes each fail with a typed opp-table
// violation.
func TestPlatformRigsStrict(t *testing.T) {
	defer SetStrictDefault(SetStrictDefault(true))
	rigs := []struct {
		name string
		run  func() error
	}{
		{"cluster-aware", func() error { _, err := RunCluster(video.R480p, 20*sim.Second, 1, true); return err }},
		{"big-only", func() error { _, err := RunCluster(video.R1080p, 20*sim.Second, 1, false); return err }},
		{"smp-1", func() error { _, err := RunSMP(1, video.R720p, 20*sim.Second, 1); return err }},
		{"smp-4", func() error { _, err := RunSMP(4, video.R720p, 20*sim.Second, 1); return err }},
	}
	for _, r := range rigs {
		if err := r.run(); err != nil {
			t.Errorf("%s: clean strict run failed: %v", r.name, err)
		}
	}

	prev := newChecker
	newChecker = func(ic invariant.Config) *invariant.Checker {
		ic.OPPFreqsHz = ic.OPPFreqsHz[:1] // claim a one-OPP device
		return invariant.New(ic)
	}
	defer func() { newChecker = prev }()
	for _, r := range rigs {
		err := r.run()
		var v *invariant.Violation
		if !errors.As(err, &v) || v.Rule != "opp-table" {
			t.Errorf("%s: mis-grounded strict run gave %v, want an opp-table violation", r.name, err)
		}
	}
}

// TestOneCoreDomainIsRun pins that a one-core shared-clock domain is the
// single core every Run has: RunSMP(1, …) and Run of the same base case
// agree bit for bit.
func TestOneCoreDomainIsRun(t *testing.T) {
	for _, res := range []video.Resolution{video.R360p, video.R720p, video.R1080p} {
		for _, seed := range []int64{1, 2, 5} {
			smp, err := RunSMP(1, res, 30*sim.Second, seed)
			if err != nil {
				t.Fatal(err)
			}
			run, err := Run(RunConfig{
				Device:     cpu.DeviceFlagship(),
				Governor:   GovEnergyAware,
				Title:      video.TitleSports,
				Rung:       res,
				Net:        NetConst8,
				Duration:   30 * sim.Second,
				Seed:       seed,
				Background: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(smp.CPUJ) != math.Float64bits(run.CPUJ) || smp.QoE != run.QoE {
				t.Errorf("%s seed %d: one-core domain %v J %+v, Run %v J %+v",
					res.Name, seed, smp.CPUJ, smp.QoE, run.CPUJ, run.QoE)
			}
		}
	}
}
