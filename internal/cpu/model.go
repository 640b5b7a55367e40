// Package cpu models a mobile SoC CPU frequency domain: its table of
// operating performance points (OPPs), the power drawn at each point, DVFS
// transition latency, and a single execution core that runs cycle-counted
// jobs under the control of a cpufreq governor.
//
// The model is event-granular, not cycle-granular: a job of W cycles at
// frequency f completes W/f seconds after it starts, and an OPP change
// mid-job reschedules the completion with the remaining cycles. Governors
// observe exactly what Linux cpufreq governors observe — windowed
// utilization and the current OPP index.
package cpu

import (
	"fmt"
	"math"

	"videodvfs/internal/sim"
)

// OPP is one operating performance point of the frequency domain.
type OPP struct {
	// FreqHz is the core clock in Hz.
	FreqHz float64
	// VoltageV is the supply voltage at this point, in volts.
	VoltageV float64
	// ActiveW is the power drawn when the core is 100% busy, in watts.
	ActiveW float64
	// IdleW is the power drawn when the core is clock-gated but the
	// domain still holds this OPP's voltage, in watts.
	IdleW float64
}

// Model describes a device's CPU frequency domain.
type Model struct {
	// Name identifies the device model in reports.
	Name string
	// OPPs is the table of operating points, ascending by frequency.
	OPPs []OPP
	// TransitionLatency is the stall incurred by an OPP switch while the
	// core is busy (PLL relock + voltage ramp).
	TransitionLatency sim.Time
}

// Validate checks structural invariants of the model.
func (m Model) Validate() error {
	if len(m.OPPs) == 0 {
		return fmt.Errorf("cpu model %q: no OPPs", m.Name)
	}
	for i, o := range m.OPPs {
		if o.FreqHz <= 0 {
			return fmt.Errorf("cpu model %q: OPP %d frequency %v not positive", m.Name, i, o.FreqHz)
		}
		if o.VoltageV <= 0 {
			return fmt.Errorf("cpu model %q: OPP %d voltage %v not positive", m.Name, i, o.VoltageV)
		}
		if o.ActiveW <= 0 || o.IdleW < 0 || o.IdleW >= o.ActiveW {
			return fmt.Errorf("cpu model %q: OPP %d power (active %v, idle %v) inconsistent", m.Name, i, o.ActiveW, o.IdleW)
		}
		if i > 0 && o.FreqHz <= m.OPPs[i-1].FreqHz {
			return fmt.Errorf("cpu model %q: OPPs not ascending at %d", m.Name, i)
		}
	}
	if m.TransitionLatency < 0 {
		return fmt.Errorf("cpu model %q: negative transition latency", m.Name)
	}
	return nil
}

// MaxIdx returns the index of the highest OPP.
func (m Model) MaxIdx() int { return len(m.OPPs) - 1 }

// Fmax returns the highest frequency in Hz.
func (m Model) Fmax() float64 { return m.OPPs[m.MaxIdx()].FreqHz }

// Fmin returns the lowest frequency in Hz.
func (m Model) Fmin() float64 { return m.OPPs[0].FreqHz }

// IdxForFreq returns the index of the lowest OPP with frequency ≥ hz,
// or the highest OPP if none reaches hz.
func (m Model) IdxForFreq(hz float64) int {
	for i, o := range m.OPPs {
		if o.FreqHz >= hz {
			return i
		}
	}
	return m.MaxIdx()
}

// MinIdxForCycles returns the lowest OPP index that can retire the given
// cycles within the given span, or the highest OPP (best effort) if none
// can.
func (m Model) MinIdxForCycles(cycles float64, span sim.Time) int {
	if span <= 0 {
		return m.MaxIdx()
	}
	return m.IdxForFreq(cycles / span.Seconds())
}

// PowerParams are the physical coefficients used to synthesize an OPP
// table: P_active = Ceff·V²·f + leakage, P_idle = gateFrac·dynamic +
// leakage. Voltage scales between Vmin and Vmax with a superlinear curve in
// normalized frequency, matching published mobile SoC DVFS tables.
type PowerParams struct {
	// CeffF is the effective switched capacitance in farads.
	CeffF float64
	// Vmin and Vmax bound the voltage curve, in volts.
	Vmin, Vmax float64
	// VCurve is the exponent of the voltage-vs-frequency curve (≥ 1).
	VCurve float64
	// LeakWPerV is the leakage slope: leakage = LeakWPerV · V.
	LeakWPerV float64
	// GateFrac is the fraction of dynamic power still drawn when
	// clock-gated idle (ungated clock tree, caches).
	GateFrac float64
}

// GenerateOPPs synthesizes an n-point OPP table from fminHz to fmaxHz with
// the given power parameters. Frequencies are evenly spaced and rounded to
// the nearest MHz, as real tables are.
func GenerateOPPs(fminHz, fmaxHz float64, n int, p PowerParams) []OPP {
	if n < 2 {
		n = 2
	}
	opps := make([]OPP, 0, n)
	for i := 0; i < n; i++ {
		frac := float64(i) / float64(n-1)
		f := fminHz + frac*(fmaxHz-fminHz)
		f = math.Round(f/1e6) * 1e6
		v := p.Vmin + (p.Vmax-p.Vmin)*math.Pow(f/fmaxHz, p.VCurve)
		dyn := p.CeffF * v * v * f
		leak := p.LeakWPerV * v
		opps = append(opps, OPP{
			FreqHz:   f,
			VoltageV: v,
			ActiveW:  dyn + leak,
			IdleW:    p.GateFrac*dyn + leak,
		})
	}
	return opps
}

// DeviceFlagship returns a flagship-phone big-core model (Snapdragon
// 800-class: 300 MHz – 2.26 GHz across 14 points, ≈2 W at fmax).
func DeviceFlagship() Model {
	return Model{
		Name: "flagship",
		OPPs: GenerateOPPs(300e6, 2265e6, 14, PowerParams{
			CeffF:     0.80e-9,
			Vmin:      0.70,
			Vmax:      1.10,
			VCurve:    1.6,
			LeakWPerV: 0.10,
			GateFrac:  0.08,
		}),
		TransitionLatency: 200 * sim.Microsecond,
	}
}

// DeviceMidrange returns a mid-range model (200 MHz – 1.5 GHz, 8 points,
// ≈1 W at fmax).
func DeviceMidrange() Model {
	return Model{
		Name: "midrange",
		OPPs: GenerateOPPs(200e6, 1500e6, 8, PowerParams{
			CeffF:     0.62e-9,
			Vmin:      0.75,
			Vmax:      1.05,
			VCurve:    1.5,
			LeakWPerV: 0.08,
			GateFrac:  0.10,
		}),
		TransitionLatency: 500 * sim.Microsecond,
	}
}

// DeviceEfficient returns an efficiency-core model (LITTLE-cluster class:
// 300 MHz – 1.4 GHz, 10 points, low ceiling power).
func DeviceEfficient() Model {
	return Model{
		Name: "efficient",
		OPPs: GenerateOPPs(300e6, 1400e6, 10, PowerParams{
			CeffF:     0.35e-9,
			Vmin:      0.65,
			Vmax:      0.95,
			VCurve:    1.4,
			LeakWPerV: 0.05,
			GateFrac:  0.10,
		}),
		TransitionLatency: 300 * sim.Microsecond,
	}
}

// builtins lists each built-in model's name and constructor, in Devices
// order, so a lookup by name builds only the model it returns.
var builtins = []struct {
	name  string
	build func() Model
}{
	{"flagship", DeviceFlagship},
	{"midrange", DeviceMidrange},
	{"efficient", DeviceEfficient},
}

// Devices returns all built-in device models.
func Devices() []Model {
	out := make([]Model, len(builtins))
	for i, b := range builtins {
		out[i] = b.build()
	}
	return out
}

// DeviceByName returns the built-in model with the given name.
func DeviceByName(name string) (Model, error) {
	for _, b := range builtins {
		if b.name == name {
			return b.build(), nil
		}
	}
	return Model{}, fmt.Errorf("cpu: unknown device model %q", name)
}
