// Package energy integrates per-component power draws over virtual time
// into energy totals and breakdowns. Components (CPU, radio, display)
// report piecewise-constant power levels; the meter does the bookkeeping.
package energy

import (
	"fmt"
	"sort"

	"videodvfs/internal/sim"
	"videodvfs/internal/stats"
)

// Standard component names used by the streaming pipeline.
const (
	// ComponentCPU is the CPU frequency domain.
	ComponentCPU = "cpu"
	// ComponentRadio is the cellular/WiFi radio.
	ComponentRadio = "radio"
	// ComponentDisplay is the screen (constant while playing).
	ComponentDisplay = "display"
)

// Meter accumulates energy per component.
type Meter struct {
	eng   *sim.Engine
	comps map[string]*stats.TimeWeighted
}

// NewMeter returns a meter bound to the engine's clock.
func NewMeter(eng *sim.Engine) *Meter {
	return &Meter{eng: eng, comps: make(map[string]*stats.TimeWeighted)}
}

// Set records that a component draws watts from now on. It finds the
// component by name on every call; per-event power hooks use Listener.
func (m *Meter) Set(component string, watts float64) {
	m.component(component).Set(m.eng.Now().Seconds(), watts)
}

// Listener returns a callback suitable for power-change hooks (e.g.
// cpu.Core.OnPower) that feeds this meter. Binding registers the component
// and looks up its accumulator once, so each power step is a direct
// update with no map access.
func (m *Meter) Listener(component string) func(now sim.Time, watts float64) {
	tw := m.component(component)
	return func(_ sim.Time, watts float64) { tw.Set(m.eng.Now().Seconds(), watts) }
}

// component returns a component's accumulator, creating it on first use.
func (m *Meter) component(name string) *stats.TimeWeighted {
	tw, ok := m.comps[name]
	if !ok {
		tw = &stats.TimeWeighted{}
		m.comps[name] = tw
	}
	return tw
}

// Reset forgets every component's accumulated signal while keeping the
// component entries (and their allocations) in place, so a recycled meter
// re-accumulates from zero without rebuilding its map. Map iteration order
// is irrelevant here: each component resets independently.
func (m *Meter) Reset() {
	for _, tw := range m.comps {
		tw.Reset()
	}
}

// Finish closes every component's integral at the current virtual time.
// Call once when the simulation ends, before reading totals.
func (m *Meter) Finish() {
	now := m.eng.Now().Seconds()
	for _, tw := range m.comps {
		tw.Finish(now)
	}
}

// ComponentJ returns the accumulated energy of one component in joules.
func (m *Meter) ComponentJ(component string) float64 {
	tw, ok := m.comps[component]
	if !ok {
		return 0
	}
	return tw.Integral()
}

// TotalJ returns the energy summed over all components in joules.
func (m *Meter) TotalJ() float64 {
	var sum float64
	for _, tw := range m.comps {
		sum += tw.Integral()
	}
	return sum
}

// MeanW returns the time-weighted mean power of one component in watts.
func (m *Meter) MeanW(component string) float64 {
	tw, ok := m.comps[component]
	if !ok {
		return 0
	}
	return tw.Mean()
}

// Components returns the component names seen so far, sorted.
func (m *Meter) Components() []string {
	out := make([]string, 0, len(m.comps))
	for name := range m.comps {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// String formats the breakdown for reports.
func (m *Meter) String() string {
	s := ""
	for _, name := range m.Components() {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%.2fJ", name, m.ComponentJ(name))
	}
	return s
}
