package videodvfs

import (
	"errors"
	"testing"
)

func TestFacadeRun(t *testing.T) {
	cfg := DefaultSession()
	cfg.Duration = 20 * Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.QoE.Completed || res.CPUJ <= 0 {
		t.Fatalf("facade run broken: %+v", res)
	}
}

func TestFacadeCatalogs(t *testing.T) {
	if len(ExperimentIDs()) != 30 {
		t.Fatalf("experiments = %d", len(ExperimentIDs()))
	}
	govs := GovernorNames()
	found := map[string]bool{}
	for _, g := range govs {
		found[g] = true
	}
	if !found["energyaware"] || !found["oracle"] || !found["ondemand"] {
		t.Fatalf("governor list incomplete: %v", govs)
	}
}

func TestFacadeLookups(t *testing.T) {
	if _, err := DeviceByName("flagship"); err != nil {
		t.Fatal(err)
	}
	if _, err := TitleByName("sports"); err != nil {
		t.Fatal(err)
	}
	if _, err := ResolutionByName("720p"); err != nil {
		t.Fatal(err)
	}
	if err := DefaultPolicy().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := DefaultSession().Validate(); err != nil {
		t.Fatalf("default session fails Validate: %v", err)
	}
}

func TestFacadeBatch(t *testing.T) {
	cfgs := make([]RunConfig, 3)
	for i := range cfgs {
		cfgs[i] = DefaultSession()
		cfgs[i].Duration = 10 * Second
		cfgs[i].Seed = int64(i + 1)
	}
	outs := RunAll(cfgs, 2)
	if len(outs) != 3 {
		t.Fatalf("got %d outcomes, want 3", len(outs))
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("seed %d: %v", i+1, o.Err)
		}
		if o.Config.Seed != int64(i+1) {
			t.Fatalf("outcome %d carries seed %d — order lost", i, o.Config.Seed)
		}
	}
}

func TestFacadeParse(t *testing.T) {
	if g, err := ParseGovernor("energyaware"); err != nil || g != GovEnergyAware {
		t.Fatalf("ParseGovernor = %v, %v", g, err)
	}
	if _, err := ParseGovernor("warpdrive"); !errors.Is(err, ErrUnknownGovernor) {
		t.Fatalf("want ErrUnknownGovernor, got %v", err)
	}
	if a, err := ParseABR(""); err != nil || a != ABRFixed {
		t.Fatalf("ParseABR(\"\") = %v, %v, want the fixed default", a, err)
	}
	if _, err := ParseABR("mpc"); !errors.Is(err, ErrUnknownABR) {
		t.Fatalf("want ErrUnknownABR, got %v", err)
	}
	if len(Governors()) != len(GovernorNames()) {
		t.Fatal("Governors and GovernorNames disagree")
	}
}

// with returns DefaultSession with set applied.
func with(set func(*RunConfig)) RunConfig {
	cfg := DefaultSession()
	set(&cfg)
	return cfg
}

// Validate must reject each malformed knob with an error wrapping
// ErrInvalidConfig, before Run builds any simulation state.
func TestFacadeValidateRejections(t *testing.T) {
	cases := map[string]RunConfig{
		"unknown governor": with(func(c *RunConfig) { c.Governor = "warpdrive" }),
		"unknown abr":      with(func(c *RunConfig) { c.ABR = "mpc" }),
		"unknown net":      with(func(c *RunConfig) { c.Net = "carrier-pigeon" }),
		"zero duration":    with(func(c *RunConfig) { c.Duration = 0 }),
		"negative dur":     with(func(c *RunConfig) { c.Duration = -10 * Second }),
	}
	for name, cfg := range cases {
		err := cfg.Validate()
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: Validate = %v, want ErrInvalidConfig", name, err)
		}
		// Run must agree with Validate — same sentinel, no partial work.
		if _, err := Run(cfg); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: Run = %v, want ErrInvalidConfig", name, err)
		}
	}
	// Parse-level sentinels stay distinguishable through the wrap.
	if err := cases["unknown governor"].Validate(); !errors.Is(err, ErrUnknownGovernor) {
		t.Errorf("governor rejection lost ErrUnknownGovernor: %v", err)
	}
	if err := cases["unknown abr"].Validate(); !errors.Is(err, ErrUnknownABR) {
		t.Errorf("abr rejection lost ErrUnknownABR: %v", err)
	}
}

func TestFacadeInvalidConfig(t *testing.T) {
	cfg := DefaultSession()
	cfg.Governor = "warpdrive"
	_, err := Run(cfg)
	if !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("want ErrInvalidConfig, got %v", err)
	}
	if !errors.Is(err, ErrUnknownGovernor) {
		t.Fatalf("want ErrUnknownGovernor through the wrap, got %v", err)
	}
}

func TestFacadeHorizonError(t *testing.T) {
	cfg := DefaultSession()
	cfg.Duration = 30 * Second
	cfg.Horizon = 5 * Second
	_, err := Run(cfg)
	if !errors.Is(err, ErrHorizonExceeded) {
		t.Fatalf("want ErrHorizonExceeded, got %v", err)
	}
}

func TestFacadeExperiment(t *testing.T) {
	tab, err := Experiment("t1")
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "t1" || len(tab.Rows) == 0 {
		t.Fatalf("experiment t1 broken: %+v", tab)
	}
	if _, err := Experiment("nope"); err == nil {
		t.Fatal("want error for unknown experiment")
	}
}
