package energy

import (
	"math"
	"strings"
	"testing"

	"videodvfs/internal/sim"
)

func TestMeterIntegratesPiecewisePower(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMeter(eng)
	m.Set(ComponentCPU, 1.0) // 1 W from t=0
	eng.Schedule(2*sim.Second, func() { m.Set(ComponentCPU, 0.5) })
	eng.Schedule(4*sim.Second, func() {})
	eng.Run()
	m.Finish()
	want := 1.0*2 + 0.5*2
	if got := m.ComponentJ(ComponentCPU); math.Abs(got-want) > 1e-12 {
		t.Fatalf("cpu energy = %v, want %v", got, want)
	}
}

func TestMeterMultipleComponents(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMeter(eng)
	m.Set(ComponentCPU, 2)
	m.Set(ComponentRadio, 1)
	m.Set(ComponentDisplay, 0.5)
	eng.Schedule(10*sim.Second, func() {})
	eng.Run()
	m.Finish()
	cpu, radio, display := m.ComponentJ(ComponentCPU), m.ComponentJ(ComponentRadio), m.ComponentJ(ComponentDisplay)
	if math.Abs(cpu-20) > 1e-9 || math.Abs(radio-10) > 1e-9 || math.Abs(display-5) > 1e-9 {
		t.Fatalf("cpu %v J, radio %v J, display %v J, want 20, 10 and 5", cpu, radio, display)
	}
	comps := m.Components()
	if len(comps) != 3 || comps[0] != "cpu" {
		t.Fatalf("components = %v", comps)
	}
}

func TestMeterUnknownComponentZero(t *testing.T) {
	m := NewMeter(sim.NewEngine())
	if m.ComponentJ("nope") != 0 {
		t.Fatal("unknown component should read zero")
	}
}

func TestMeterListenerFeedsComponent(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMeter(eng)
	listen := m.Listener(ComponentRadio)
	listen(0, 1.5)
	eng.Schedule(4*sim.Second, func() { listen(eng.Now(), 0) })
	eng.Run()
	m.Finish()
	if got := m.ComponentJ(ComponentRadio); math.Abs(got-6) > 1e-12 {
		t.Fatalf("radio energy = %v, want 6", got)
	}
}

func TestMeterString(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMeter(eng)
	m.Set(ComponentCPU, 1)
	eng.Schedule(sim.Second, func() {})
	eng.Run()
	m.Finish()
	if s := m.String(); !strings.Contains(s, "cpu=1.00J") {
		t.Fatalf("String = %q", s)
	}
}
