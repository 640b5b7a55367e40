package experiments

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"videodvfs/internal/campaign"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

// shortBase returns a cheap base config for batch tests.
func shortBase() RunConfig {
	cfg := DefaultRunConfig()
	cfg.Duration = 8 * sim.Second
	return cfg
}

// TestRunAllParallelSerialEquivalence is the determinism contract: a
// 16-point sweep must produce bit-identical results whether it runs on
// one worker or eight. Every run owns its engine and derives all
// randomness from its seed, so worker count must never leak into output.
func TestRunAllParallelSerialEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 32 simulations")
	}
	sweep := Sweep{
		Base:      shortBase(),
		Governors: []GovernorID{GovOndemand, GovEnergyAware},
		Rungs:     []video.Resolution{video.R360p, video.R720p},
		Seeds:     SeedRange(1, 4),
	}
	cfgs := sweep.Expand()
	if len(cfgs) != 16 {
		t.Fatalf("sweep expanded to %d configs, want 16", len(cfgs))
	}
	serial := RunAll(cfgs, 1)
	parallel := RunAll(cfgs, 8)
	for i := range serial {
		if serial[i].Err != nil {
			t.Fatalf("run %d failed: %v", i, serial[i].Err)
		}
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("run %d (%s/%s seed %d): serial and parallel outcomes differ\nserial:   %+v\nparallel: %+v",
				i, cfgs[i].Governor, cfgs[i].Rung.Name, cfgs[i].Seed, serial[i], parallel[i])
		}
	}
}

// TestRunAllPanicIsolation injects a panicking run into the middle of a
// batch: its slot must carry a *campaign.PanicError naming the panic
// value, and every other run must complete normally.
func TestRunAllPanicIsolation(t *testing.T) {
	cfgs := make([]RunConfig, 4)
	for i := range cfgs {
		cfgs[i] = shortBase()
		cfgs[i].Seed = int64(i + 1)
	}
	// OnSample fires from a ticker inside the run, so the panic unwinds
	// through Run itself — the pool, not the caller, must contain it.
	cfgs[2].OnSample = func(sim.Time, float64, float64, float64) {
		panic("injected sample failure")
	}
	outs := RunAll(cfgs, 2)
	for i, o := range outs {
		if i == 2 {
			var pe *campaign.PanicError
			if !errors.As(o.Err, &pe) {
				t.Fatalf("run 2: want *campaign.PanicError, got %v", o.Err)
			}
			if pe.Value != "injected sample failure" {
				t.Errorf("panic value = %v, want injected sample failure", pe.Value)
			}
			if len(pe.Stack) == 0 {
				t.Error("panic error carries no stack trace")
			}
			continue
		}
		if o.Err != nil {
			t.Errorf("run %d should be unaffected by run 2's panic, got %v", i, o.Err)
		}
		if o.Result.SimEnd == 0 {
			t.Errorf("run %d has zero SimEnd — did it actually run?", i)
		}
	}
}

func TestSeedRange(t *testing.T) {
	if got := SeedRange(3, 6); !reflect.DeepEqual(got, []int64{3, 4, 5, 6}) {
		t.Errorf("SeedRange(3,6) = %v", got)
	}
	if got := SeedRange(5, 5); !reflect.DeepEqual(got, []int64{5}) {
		t.Errorf("SeedRange(5,5) = %v", got)
	}
	if got := SeedRange(7, 2); got != nil {
		t.Errorf("SeedRange(7,2) = %v, want nil", got)
	}
	// The top of the seed space: a loop on s <= hi never ends here.
	if got := SeedRange(math.MaxInt64-1, math.MaxInt64); !reflect.DeepEqual(got, []int64{math.MaxInt64 - 1, math.MaxInt64}) {
		t.Errorf("SeedRange(MaxInt64-1, MaxInt64) = %v", got)
	}
}

// TestSweepExpand pins the expansion order (declaration-major,
// seed-minor) and the keep-the-template default for unset axes.
func TestSweepExpand(t *testing.T) {
	base := shortBase()
	base.Governor = "powersave"
	s := Sweep{
		Base:      base,
		Governors: []GovernorID{GovOndemand, GovEnergyAware},
		Seeds:     []int64{10, 11},
	}
	cfgs := s.Expand()
	want := []struct {
		gov  GovernorID
		seed int64
	}{
		{"ondemand", 10}, {"ondemand", 11},
		{"energyaware", 10}, {"energyaware", 11},
	}
	if len(cfgs) != len(want) {
		t.Fatalf("expanded to %d configs, want %d", len(cfgs), len(want))
	}
	for i, w := range want {
		if cfgs[i].Governor != w.gov || cfgs[i].Seed != w.seed {
			t.Errorf("config %d = %s/seed %d, want %s/seed %d",
				i, cfgs[i].Governor, cfgs[i].Seed, w.gov, w.seed)
		}
		// Unswept axes keep the template's values.
		if cfgs[i].Net != base.Net || cfgs[i].Rung.Name != base.Rung.Name {
			t.Errorf("config %d lost template values: net %s rung %s", i, cfgs[i].Net, cfgs[i].Rung.Name)
		}
	}
	// A sweep with no axes is the template alone.
	single := Sweep{Base: base}.Expand()
	if len(single) != 1 || !reflect.DeepEqual(single[0], base) {
		t.Errorf("axis-free sweep = %+v, want exactly the base config", single)
	}
}
