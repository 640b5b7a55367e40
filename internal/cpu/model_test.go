package cpu

import (
	"math"
	"reflect"
	"testing"

	"videodvfs/internal/sim"
)

func TestDevicesValidate(t *testing.T) {
	for _, m := range Devices() {
		if err := m.Validate(); err != nil {
			t.Errorf("device %q invalid: %v", m.Name, err)
		}
	}
}

// For each built-in name, DeviceByName returns that model in a table no
// other call shares; an unknown name is an error, not a zero model.
func TestDeviceByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want func() Model
	}{
		{"flagship", DeviceFlagship},
		{"midrange", DeviceMidrange},
		{"efficient", DeviceEfficient},
		{"toaster", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := DeviceByName(tc.name)
			if tc.want == nil {
				if err == nil || m.Name != "" || m.OPPs != nil {
					t.Fatalf("DeviceByName(%q) = %+v, %v; want an error and no model", tc.name, m, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if want := tc.want(); m.Name != tc.name || !reflect.DeepEqual(m, want) {
				t.Fatalf("DeviceByName(%q) = %+v, want %+v", tc.name, m, want)
			}
			m.OPPs[0].FreqHz = 1
			if again, _ := DeviceByName(tc.name); again.OPPs[0].FreqHz == 1 {
				t.Fatal("DeviceByName returned a table shared across calls")
			}
		})
	}
}

func TestGenerateOPPsMonotone(t *testing.T) {
	m := DeviceFlagship()
	for i := 1; i < len(m.OPPs); i++ {
		prev, cur := m.OPPs[i-1], m.OPPs[i]
		if cur.FreqHz <= prev.FreqHz {
			t.Fatalf("frequency not ascending at %d", i)
		}
		if cur.VoltageV < prev.VoltageV {
			t.Fatalf("voltage not nondecreasing at %d", i)
		}
		if cur.ActiveW <= prev.ActiveW {
			t.Fatalf("active power not ascending at %d", i)
		}
	}
}

func TestPowerCurveSuperlinear(t *testing.T) {
	// Energy per cycle must be higher at fmax than fmin, otherwise DVFS
	// would never pay off and the whole paper premise collapses.
	m := DeviceFlagship()
	lo := m.OPPs[0]
	hi := m.OPPs[m.MaxIdx()]
	epcLo := lo.ActiveW / lo.FreqHz
	epcHi := hi.ActiveW / hi.FreqHz
	if epcHi <= epcLo*1.3 {
		t.Fatalf("energy/cycle at fmax (%.3g) should be ≥1.3× fmin (%.3g)", epcHi, epcLo)
	}
}

func TestFlagshipPowerEnvelope(t *testing.T) {
	m := DeviceFlagship()
	pmax := m.OPPs[m.MaxIdx()].ActiveW
	if pmax < 1.2 || pmax > 3.0 {
		t.Fatalf("flagship fmax power %.2f W outside plausible 1.2–3.0 W", pmax)
	}
	pmin := m.OPPs[0].ActiveW
	if pmax/pmin < 4 {
		t.Fatalf("fmax/fmin power ratio %.1f too small for a real DVFS table", pmax/pmin)
	}
}

func TestModelValidateRejectsBrokenTables(t *testing.T) {
	base := DeviceMidrange()
	cases := []struct {
		name   string
		mutate func(*Model)
	}{
		{"empty", func(m *Model) { m.OPPs = nil }},
		{"zero freq", func(m *Model) { m.OPPs[0].FreqHz = 0 }},
		{"zero voltage", func(m *Model) { m.OPPs[0].VoltageV = 0 }},
		{"idle above active", func(m *Model) { m.OPPs[0].IdleW = m.OPPs[0].ActiveW + 1 }},
		{"descending", func(m *Model) { m.OPPs[1].FreqHz = m.OPPs[0].FreqHz }},
		{"negative latency", func(m *Model) { m.TransitionLatency = -1 }},
	}
	for _, c := range cases {
		m := base
		m.OPPs = append([]OPP(nil), base.OPPs...)
		c.mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %q: want validation error", c.name)
		}
	}
}

func TestIdxForFreq(t *testing.T) {
	m := DeviceFlagship()
	if got := m.IdxForFreq(0); got != 0 {
		t.Fatalf("IdxForFreq(0) = %d, want 0", got)
	}
	if got := m.IdxForFreq(m.Fmax() + 1); got != m.MaxIdx() {
		t.Fatalf("IdxForFreq(>fmax) = %d, want max", got)
	}
	for i, o := range m.OPPs {
		if got := m.IdxForFreq(o.FreqHz); got != i {
			t.Fatalf("IdxForFreq(OPP %d exact) = %d", i, got)
		}
		if i > 0 {
			if got := m.IdxForFreq(o.FreqHz - 1); got != i {
				t.Fatalf("IdxForFreq(just below OPP %d) = %d, want %d", i, got, i)
			}
		}
	}
}

func TestMinIdxForCycles(t *testing.T) {
	m := DeviceFlagship()
	// 10 M cycles in 33 ms needs ≥ 303 MHz → index of first OPP ≥ that.
	idx := m.MinIdxForCycles(10e6, 33*sim.Millisecond)
	need := 10e6 / 0.033
	if m.OPPs[idx].FreqHz < need {
		t.Fatalf("chosen OPP %d (%.0f Hz) below need %.0f Hz", idx, m.OPPs[idx].FreqHz, need)
	}
	if idx > 0 && m.OPPs[idx-1].FreqHz >= need {
		t.Fatalf("OPP %d not minimal", idx)
	}
	if got := m.MinIdxForCycles(1e9, 0); got != m.MaxIdx() {
		t.Fatalf("zero span should return max OPP, got %d", got)
	}
	if got := m.MinIdxForCycles(1e18, sim.Second); got != m.MaxIdx() {
		t.Fatalf("impossible demand should return max OPP, got %d", got)
	}
}

func TestVoltageWithinBounds(t *testing.T) {
	opps := GenerateOPPs(100e6, 1e9, 5, PowerParams{
		CeffF: 1e-9, Vmin: 0.7, Vmax: 1.1, VCurve: 1.5, LeakWPerV: 0.1, GateFrac: 0.1,
	})
	for _, o := range opps {
		if o.VoltageV < 0.7-1e-9 || o.VoltageV > 1.1+1e-9 {
			t.Fatalf("voltage %v outside [0.7, 1.1]", o.VoltageV)
		}
	}
	if math.Abs(opps[len(opps)-1].VoltageV-1.1) > 1e-9 {
		t.Fatalf("top OPP voltage %v, want Vmax", opps[len(opps)-1].VoltageV)
	}
}
