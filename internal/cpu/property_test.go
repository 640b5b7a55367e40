package cpu

import (
	"math"
	"testing"
	"testing/quick"

	"videodvfs/internal/sim"
)

// Property: every submitted job completes exactly once, cycles are
// conserved, and completions are FIFO within a priority — under random job
// mixes and random mid-run OPP changes.
func TestCoreConservationUnderRandomDVFS(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := sim.Stream(seed, "prop/cpu")
		n := int(nRaw)%40 + 1
		eng := sim.NewEngine()
		core, err := NewCore(eng, DeviceFlagship())
		if err != nil {
			return false
		}
		var wantCycles float64
		doneOrder := make([]int, 0, n)
		for i := 0; i < n; i++ {
			i := i
			cycles := rng.Uniform(1e5, 5e7)
			wantCycles += cycles
			at := sim.Time(rng.Uniform(0, 0.5))
			eng.At(at, func() {
				_ = core.Submit(Job{
					Cycles:   cycles,
					Priority: PrioDecode,
					OnDone:   func(sim.Time) { doneOrder = append(doneOrder, i) },
				})
			})
		}
		// Random DVFS chatter while the jobs run.
		for k := 0; k < 20; k++ {
			at := sim.Time(rng.Uniform(0, 1))
			idx := rng.Intn(len(core.Model().OPPs))
			eng.At(at, func() { core.SetOPP(idx) })
		}
		eng.Run()
		if len(doneOrder) != n {
			return false
		}
		got := core.Cycles(PrioDecode)
		return math.Abs(got-wantCycles) < 1e-6*wantCycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: busy time equals Σ cycles/frequency when the frequency is
// fixed per run, for any OPP.
func TestCoreBusyTimeMatchesAnalytic(t *testing.T) {
	f := func(seed int64, oppRaw uint8) bool {
		rng := sim.Stream(seed, "prop/busy")
		eng := sim.NewEngine()
		core, err := NewCore(eng, DeviceFlagship())
		if err != nil {
			return false
		}
		opp := int(oppRaw) % len(core.Model().OPPs)
		core.SetOPP(opp)
		freq := core.FreqHz()
		var total float64
		for i := 0; i < 10; i++ {
			c := rng.Uniform(1e6, 1e8)
			total += c
			_ = core.Submit(Job{Cycles: c})
		}
		eng.Run()
		want := total / freq
		return math.Abs(core.BusyTime().Seconds()-want) < 1e-9*want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the power level reported at any instant is exactly one of the
// model's table values (active or idle of the current OPP), for any DVFS
// and load pattern.
func TestCorePowerAlwaysInTable(t *testing.T) {
	eng := sim.NewEngine()
	core, err := NewCore(eng, DeviceMidrange())
	if err != nil {
		t.Fatal(err)
	}
	valid := make(map[float64]bool)
	for _, o := range core.Model().OPPs {
		valid[o.ActiveW] = true
		valid[o.IdleW] = true
	}
	bad := 0
	core.OnPower(func(_ sim.Time, w float64) {
		if !valid[w] {
			bad++
		}
	})
	rng := sim.Stream(3, "prop/power")
	for i := 0; i < 50; i++ {
		at := sim.Time(rng.Uniform(0, 2))
		switch rng.Intn(2) {
		case 0:
			idx := rng.Intn(len(core.Model().OPPs))
			eng.At(at, func() { core.SetOPP(idx) })
		default:
			c := rng.Uniform(1e5, 1e7)
			eng.At(at, func() { _ = core.Submit(Job{Cycles: c}) })
		}
	}
	eng.Run()
	if bad != 0 {
		t.Fatalf("%d power samples outside the OPP table", bad)
	}
}

// Property: frequency residency always sums to elapsed time, whatever the
// DVFS pattern.
func TestCoreResidencyConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := sim.Stream(seed, "prop/resid")
		eng := sim.NewEngine()
		core, err := NewCore(eng, DeviceEfficient())
		if err != nil {
			return false
		}
		for i := 0; i < 30; i++ {
			at := sim.Time(rng.Uniform(0, 3))
			idx := rng.Intn(len(core.Model().OPPs))
			eng.At(at, func() { core.SetOPP(idx) })
		}
		horizon := 3 * sim.Second
		eng.At(horizon, func() {})
		eng.Run()
		var total sim.Time
		for _, d := range core.FreqResidency() {
			total += d
		}
		return math.Abs(float64(total-horizon)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
