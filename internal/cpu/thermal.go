package cpu

import (
	"fmt"
	"math"

	"videodvfs/internal/sim"
)

// ThermalConfig parameterizes the first-order RC thermal model and the
// step throttler (an IPA-style thermal governor): the die temperature
// relaxes toward ambient + power·Rth with time constant Tau; crossing
// TripC lowers the OPP cap one step per sample, and cooling below
// TripC − HystC raises it back.
type ThermalConfig struct {
	// AmbientC is the ambient (skin) temperature in °C.
	AmbientC float64
	// RthCPerW is the junction-to-ambient thermal resistance in °C/W.
	RthCPerW float64
	// Tau is the thermal time constant.
	Tau sim.Time
	// TripC is the throttle trip temperature.
	TripC float64
	// HystC is the hysteresis below the trip before un-throttling.
	HystC float64
	// Sample is the polling period of the thermal governor.
	Sample sim.Time
	// InitialC is the starting die temperature (ambient if zero).
	InitialC float64
}

// DefaultThermalConfig returns phone-class values: a 30 s time constant,
// 30 °C/W to skin, throttling at 65 °C.
func DefaultThermalConfig() ThermalConfig {
	return ThermalConfig{
		AmbientC: 25,
		RthCPerW: 30,
		Tau:      30 * sim.Second,
		TripC:    65,
		HystC:    5,
		Sample:   250 * sim.Millisecond,
	}
}

// Validate checks the configuration.
func (c ThermalConfig) Validate() error {
	if c.RthCPerW <= 0 {
		return fmt.Errorf("thermal: Rth %v not positive", c.RthCPerW)
	}
	if c.Tau <= 0 {
		return fmt.Errorf("thermal: tau %v not positive", c.Tau)
	}
	if c.TripC <= c.AmbientC {
		return fmt.Errorf("thermal: trip %v must exceed ambient %v", c.TripC, c.AmbientC)
	}
	if c.HystC < 0 {
		return fmt.Errorf("thermal: negative hysteresis")
	}
	if c.Sample <= 0 {
		return fmt.Errorf("thermal: sample period %v not positive", c.Sample)
	}
	return nil
}

// Thermal tracks die temperature from the core's power draw and throttles
// the OPP cap when it trips. It polls power at the sample period, which is
// far below the thermal time constant, so the integration error is
// negligible.
type Thermal struct {
	eng  *sim.Engine
	core *Core
	cfg  ThermalConfig

	tempC    float64
	lastAt   sim.Time
	ticker   *sim.Ticker
	maxTempC float64

	throttleEvents int
	throttledSince sim.Time
	throttledTotal sim.Time
	throttled      bool
}

// StartThermal attaches a thermal model + throttler to a core.
func StartThermal(eng *sim.Engine, core *Core, cfg ThermalConfig) (*Thermal, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	init := cfg.InitialC
	if init == 0 {
		init = cfg.AmbientC
	}
	t := &Thermal{
		eng:      eng,
		core:     core,
		cfg:      cfg,
		tempC:    init,
		maxTempC: init,
		lastAt:   eng.Now(),
	}
	t.ticker = sim.NewTicker(eng, cfg.Sample, t.sample)
	return t, nil
}

// Stop halts the thermal governor.
func (t *Thermal) Stop() { t.ticker.Stop() }

// TempC returns the current die temperature, advanced to now.
func (t *Thermal) TempC() float64 {
	t.advance(t.eng.Now())
	return t.tempC
}

// MaxTempC returns the peak temperature seen.
func (t *Thermal) MaxTempC() float64 { return t.maxTempC }

// ThrottleEvents returns how many times the trip engaged.
func (t *Thermal) ThrottleEvents() int { return t.throttleEvents }

// ThrottledTime returns total time spent with a lowered cap.
func (t *Thermal) ThrottledTime() sim.Time {
	total := t.throttledTotal
	if t.throttled {
		total += t.eng.Now() - t.throttledSince
	}
	return total
}

// advance integrates the RC model to time `to` assuming the current power
// held since the last advance.
func (t *Thermal) advance(to sim.Time) {
	dt := to - t.lastAt
	if dt <= 0 {
		return
	}
	t.lastAt = to
	tss := t.cfg.AmbientC + t.core.Power()*t.cfg.RthCPerW
	t.tempC = tss + (t.tempC-tss)*math.Exp(-dt.Seconds()/t.cfg.Tau.Seconds())
	if t.tempC > t.maxTempC {
		t.maxTempC = t.tempC
	}
}

// sustainableIdx returns the highest OPP whose fully-busy power keeps the
// steady-state temperature at or below the trip.
func (t *Thermal) sustainableIdx() int {
	budgetW := (t.cfg.TripC - t.cfg.AmbientC) / t.cfg.RthCPerW
	idx := 0
	for i, o := range t.core.Model().OPPs {
		if o.ActiveW <= budgetW {
			idx = i
		}
	}
	return idx
}

// sample runs the power-budget throttler (an IPA-style thermal governor):
// crossing the trip caps the domain at the thermally sustainable OPP;
// cooling past the hysteresis removes the cap.
func (t *Thermal) sample(now sim.Time) {
	t.advance(now)
	switch {
	case t.tempC > t.cfg.TripC:
		idx := t.sustainableIdx()
		if !t.throttled {
			t.throttled = true
			t.throttledSince = now
			t.throttleEvents++
		}
		if idx < t.core.OPPCap() {
			t.core.SetOPPCap(idx)
		}
	case t.throttled && t.tempC < t.cfg.TripC-t.cfg.HystC:
		t.throttled = false
		t.throttledTotal += now - t.throttledSince
		t.core.SetOPPCap(t.core.Model().MaxIdx())
	}
}
