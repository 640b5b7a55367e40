package cpu

import (
	"math"
	"testing"

	"videodvfs/internal/sim"
)

func thermalRig(t *testing.T) (*sim.Engine, *Core) {
	t.Helper()
	eng := sim.NewEngine()
	core, err := NewCore(eng, DeviceFlagship())
	if err != nil {
		t.Fatal(err)
	}
	return eng, core
}

// saturate keeps the core 100% busy by resubmitting work.
func saturate(eng *sim.Engine, core *Core) {
	var feed func(sim.Time)
	feed = func(sim.Time) {
		_ = core.Submit(Job{Cycles: 1e8, OnDone: feed})
	}
	feed(0)
}

func TestThermalConvergesToSteadyState(t *testing.T) {
	eng, core := thermalRig(t)
	cfg := DefaultThermalConfig()
	cfg.TripC = 500 // never throttle in this test
	th, err := StartThermal(eng, core, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Stop()
	core.SetOPP(core.Model().MaxIdx())
	saturate(eng, core)
	eng.Schedule(5*sim.Minute, func() { eng.Stop() })
	eng.Run()
	wantSS := cfg.AmbientC + core.Model().OPPs[core.Model().MaxIdx()].ActiveW*cfg.RthCPerW
	if math.Abs(th.TempC()-wantSS) > 1 {
		t.Fatalf("temperature %.1f °C, want steady state ≈ %.1f °C", th.TempC(), wantSS)
	}
}

func TestThermalCoolsWhenIdle(t *testing.T) {
	eng, core := thermalRig(t)
	cfg := DefaultThermalConfig()
	cfg.InitialC = 80
	cfg.TripC = 500
	th, err := StartThermal(eng, core, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Stop()
	eng.Schedule(5*sim.Minute, func() { eng.Stop() })
	eng.Run()
	// Idle at fmin: steady state barely above ambient.
	if th.TempC() > cfg.AmbientC+5 {
		t.Fatalf("idle core stayed hot: %.1f °C", th.TempC())
	}
	if th.MaxTempC() < 80 {
		t.Fatalf("max temp %.1f should remember the initial 80 °C", th.MaxTempC())
	}
}

func TestThermalThrottlesAndRecovers(t *testing.T) {
	eng, core := thermalRig(t)
	cfg := DefaultThermalConfig()
	cfg.TripC = 50 // low trip: saturated fmax trips quickly
	th, err := StartThermal(eng, core, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Stop()
	core.SetOPP(core.Model().MaxIdx())
	saturate(eng, core)
	eng.Schedule(3*sim.Minute, func() { eng.Stop() })
	eng.Run()
	if th.ThrottleEvents() == 0 {
		t.Fatal("saturated core never throttled")
	}
	if th.ThrottledTime() <= 0 {
		t.Fatal("throttled time not accounted")
	}
	if th.MaxTempC() > cfg.TripC+5 {
		t.Fatalf("peak %.1f °C ran away past trip %v", th.MaxTempC(), cfg.TripC)
	}
	// Under sustained saturation the power-budget cap stays engaged and
	// the temperature settles just below the trip.
	if core.OPPCap() >= core.Model().MaxIdx() {
		t.Fatalf("cap %d should sit below max under sustained load", core.OPPCap())
	}
	budgetW := (cfg.TripC - cfg.AmbientC) / cfg.RthCPerW
	if got := core.Model().OPPs[core.OPPCap()].ActiveW; got > budgetW {
		t.Fatalf("capped OPP draws %.2f W, budget %.2f W", got, budgetW)
	}
}

func TestSetOPPCapForcesDown(t *testing.T) {
	eng, core := thermalRig(t)
	core.SetOPP(core.Model().MaxIdx())
	core.SetOPPCap(3)
	if core.OPP() != 3 {
		t.Fatalf("OPP %d, want forced to cap 3", core.OPP())
	}
	core.SetOPP(10) // requests above the cap clamp
	if core.OPP() != 3 {
		t.Fatalf("OPP %d, want clamped at 3", core.OPP())
	}
	core.SetOPPCap(core.Model().MaxIdx())
	core.SetOPP(10)
	if core.OPP() != 10 {
		t.Fatalf("OPP %d after cap removal, want 10", core.OPP())
	}
	eng.Run()
}

func TestThermalConfigValidation(t *testing.T) {
	bad := []func(*ThermalConfig){
		func(c *ThermalConfig) { c.RthCPerW = 0 },
		func(c *ThermalConfig) { c.Tau = 0 },
		func(c *ThermalConfig) { c.TripC = c.AmbientC },
		func(c *ThermalConfig) { c.HystC = -1 },
		func(c *ThermalConfig) { c.Sample = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultThermalConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}
