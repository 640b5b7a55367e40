package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"videodvfs/internal/cpu"
	"videodvfs/internal/netsim"
	"videodvfs/internal/sim"
	"videodvfs/internal/trace"
	"videodvfs/internal/video"
)

func TestCanonicalConfigDeterministic(t *testing.T) {
	a, ok := CanonicalConfig(DefaultRunConfig())
	if !ok {
		t.Fatal("default config reported uncacheable")
	}
	b, _ := CanonicalConfig(DefaultRunConfig())
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical bytes differ across calls:\n%s\n---\n%s", a, b)
	}
	k1, _ := ConfigKey(DefaultRunConfig())
	k2, _ := ConfigKey(DefaultRunConfig())
	if k1 != k2 || len(k1) != 64 {
		t.Fatalf("keys differ or malformed: %q vs %q", k1, k2)
	}
}

func TestCanonicalConfigSeparatesFields(t *testing.T) {
	base := DefaultRunConfig()
	mutations := map[string]func(*RunConfig){
		"seed":     func(c *RunConfig) { c.Seed = 99 },
		"governor": func(c *RunConfig) { c.Governor = GovOndemand },
		"net":      func(c *RunConfig) { c.Net = NetLTE },
		"duration": func(c *RunConfig) { c.Duration = 61 * sim.Second },
		"rung":     func(c *RunConfig) { c.Rung.Name = "720p-custom"; c.Rung.Width = 1281 },
		"device-opp": func(c *RunConfig) {
			c.Device.OPPs = append([]cpu.OPP(nil), c.Device.OPPs...)
			c.Device.OPPs[0].ActiveW *= 1.5
		},
		"policy":     func(c *RunConfig) { c.Policy.Margin = 0.33 },
		"rrc":        func(c *RunConfig) { rc := netsim.DefaultUMTS(); c.RRC = &rc },
		"thermal":    func(c *RunConfig) { th := cpu.DefaultThermalConfig(); c.Thermal = &th },
		"cstates":    func(c *RunConfig) { c.CStates = true },
		"codec":      func(c *RunConfig) { c.Codec = "hevc" },
		"fps":        func(c *RunConfig) { c.FPS = 24 },
		"horizon":    func(c *RunConfig) { c.Horizon = 10 * sim.Minute },
		"background": func(c *RunConfig) { c.Background = false },
	}
	baseKey, _ := ConfigKey(base)
	seen := map[string]string{"": baseKey}
	for name, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		key, ok := ConfigKey(cfg)
		if !ok {
			t.Fatalf("%s: mutated config reported uncacheable", name)
		}
		for prev, prevKey := range seen {
			if key == prevKey {
				t.Fatalf("mutation %q collides with %q: key %s", name, prev, key)
			}
		}
		seen[name] = key
	}
}

// A device with the same name but a different power curve must not share
// a cache identity — the key is content-addressed, not name-addressed.
func TestCanonicalConfigDeviceContentNotName(t *testing.T) {
	a := DefaultRunConfig()
	b := DefaultRunConfig()
	b.Device.OPPs = append([]cpu.OPP(nil), b.Device.OPPs...)
	b.Device.OPPs[len(b.Device.OPPs)-1].IdleW += 0.001
	ka, _ := ConfigKey(a)
	kb, _ := ConfigKey(b)
	if ka == kb {
		t.Fatal("same-name devices with different OPP tables share a key")
	}
}

func TestCanonicalConfigUncacheable(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.OnSample = func(sim.Time, float64, float64, float64) {}
	if _, ok := CanonicalConfig(cfg); ok {
		t.Fatal("OnSample config reported cacheable")
	}
	cfg = DefaultRunConfig()
	cfg.Tracer = trace.Nop{}
	if _, ok := ConfigKey(cfg); ok {
		t.Fatal("traced config reported cacheable")
	}
}

// The canonical form is line-oriented with every field present, so a
// field added to RunConfig without a canonical line is caught by the
// golden line count here (update deliberately when extending RunConfig
// and DESIGN.md §9 together).
func TestCanonicalConfigShape(t *testing.T) {
	b, _ := CanonicalConfig(DefaultRunConfig())
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	// 3 device header + 4 per OPP + 1 governor + 10 policy + 4 title +
	// 3 rung + abr/net/bwtrace/rrc + duration/seed/bgseed/queuecap/
	// lowwater + thermal + cstates/codec/lowlatency/segmentdur/
	// background/horizon/fps + 4 forecast.
	opps := len(DefaultRunConfig().Device.OPPs)
	want := 3 + 4*opps + 1 + 10 + 4 + 3 + 4 + 5 + 1 + 7 + 4
	if len(lines) != want {
		t.Fatalf("canonical form has %d lines, want %d:\n%s", len(lines), want, b)
	}
	for i, ln := range lines {
		if !strings.Contains(ln, "=") {
			t.Fatalf("line %d %q is not key=value", i, ln)
		}
	}
}

// Trace-backed configs stay cacheable (the fleet shards them by content
// key), and the trace samples are part of the identity: two configs
// differing only in trace content must never collide.
func TestCanonicalConfigHashesBWTrace(t *testing.T) {
	base := DefaultRunConfig()
	base.Net = NetTrace
	base.BWTrace = &netsim.Trace{Samples: []netsim.TraceSample{
		{Start: 0, End: 1, Bytes: 1000, Fetch: 0},
	}}
	b1, ok := CanonicalConfig(base)
	if !ok {
		t.Fatal("trace-backed config reported uncacheable")
	}
	other := base
	other.BWTrace = &netsim.Trace{Samples: []netsim.TraceSample{
		{Start: 0, End: 1, Bytes: 2000, Fetch: 0},
	}}
	b2, _ := CanonicalConfig(other)
	if bytes.Equal(b1, b2) {
		t.Fatal("different traces canonicalize identically")
	}
	same := base
	same.BWTrace = &netsim.Trace{Samples: []netsim.TraceSample{
		{Start: 0, End: 1, Bytes: 1000, Fetch: 0},
	}}
	b3, _ := CanonicalConfig(same)
	if !bytes.Equal(b1, b3) {
		t.Fatal("equal trace content canonicalizes differently across pointers")
	}
}

// configKeyGoldenPath pins the content address of a fixed config set.
const configKeyGoldenPath = "testdata/config_keys.golden"

// configKeyGoldenCases returns the labelled configs whose keys are
// pinned: a sweep over every governor, synthetic network, built-in device
// and default-ladder rung at seeds 1 and 7, configs that set the
// optional composite fields, and devices one bit away from a built-in.
func configKeyGoldenCases() (names []string, cfgs []RunConfig) {
	add := func(name string, cfg RunConfig) {
		names = append(names, name)
		cfgs = append(cfgs, cfg)
	}
	var rungs []video.Resolution
	for _, r := range video.DefaultLadder() {
		rungs = append(rungs, r.Res)
	}
	sw := Sweep{
		Base:      DefaultRunConfig(),
		Governors: GovernorIDs(),
		Nets:      SyntheticNetKinds(),
		Devices:   cpu.Devices(),
		Rungs:     rungs,
		Seeds:     []int64{1, 7},
	}
	for _, c := range sw.Expand() {
		add(fmt.Sprintf("sweep/%s/%s/%s/%s/%d", c.Governor, c.Net, c.Device.Name, c.Rung.Name, c.Seed), c)
	}

	cfg := DefaultRunConfig()
	umts := netsim.DefaultUMTS()
	cfg.RRC = &umts
	add("rrc-umts", cfg)
	cfg = DefaultRunConfig()
	rrc := netsim.DefaultLTE()
	rrc.FastDormancy = true
	cfg.RRC = &rrc
	add("rrc-lte-fastdormancy", cfg)
	cfg = DefaultRunConfig()
	th := cpu.DefaultThermalConfig()
	cfg.Thermal = &th
	add("thermal", cfg)
	cfg = DefaultRunConfig()
	cfg.Net = NetTrace
	cfg.BWTrace = &netsim.Trace{Samples: []netsim.TraceSample{
		{Start: 0, End: 0.25 * sim.Second, Bytes: 65536, Fetch: 0},
		{Start: 0.5 * sim.Second, End: 0.75 * sim.Second, Bytes: 1.5e5, Fetch: 1},
	}}
	add("bwtrace", cfg)
	cfg = DefaultRunConfig()
	cfg.Forecast = ForecastOracle
	cfg.ForecastLookahead = 30 * sim.Second
	add("forecast-oracle", cfg)
	cfg = DefaultRunConfig()
	cfg.Forecast = ForecastNoisy
	cfg.ForecastLookahead = 10 * sim.Second
	cfg.ForecastRelErr = 0.2
	cfg.ForecastSeed = 42
	add("forecast-noisy", cfg)
	cfg = DefaultRunConfig()
	cfg.Device = cpu.DeviceMidrange()
	cfg.RRC = &rrc
	cfg.Thermal = &th
	cfg.CStates = true
	cfg.Codec = "hevc"
	cfg.LowLatency = true
	cfg.SegmentDur = 2 * sim.Second
	cfg.Horizon = 10 * sim.Minute
	cfg.FPS = 24
	add("midrange-everything", cfg)

	cfg = DefaultRunConfig()
	cfg.Device.OPPs[3].IdleW = math.Nextafter(cfg.Device.OPPs[3].IdleW, math.Inf(1))
	add("custom-flagship-idle-ulp", cfg)
	cfg = DefaultRunConfig()
	cfg.Device = cpu.DeviceEfficient()
	cfg.Device.OPPs[0].IdleW = math.Copysign(0, -1)
	add("efficient-negzero-idle", cfg)
	cfg = DefaultRunConfig()
	cfg.Device.Name = "flagship-oc"
	add("flagship-renamed", cfg)
	cfg = DefaultRunConfig()
	cfg.Device.OPPs = cfg.Device.OPPs[:len(cfg.Device.OPPs)-1]
	add("flagship-dropped-opp", cfg)
	cfg = DefaultRunConfig()
	cfg.Device = cpu.DeviceMidrange()
	cfg.Device.TransitionLatency += sim.Microsecond
	add("midrange-latency", cfg)
	return names, cfgs
}

// TestConfigKeyGolden pins every key of configKeyGoldenCases byte for
// byte, and holds CanonicalConfig to the in-line reference encoder on
// each. Keys appear in every dvfsd and dvfsctl run body and decide ring
// placement, so a change to the canonical encoding that moves any of
// them is a visible cache and routing break, not a refactor. Regenerate
// only for an intended encoding change (DESIGN.md §9):
//
//	go test ./internal/experiments -run TestConfigKeyGolden -update
func TestConfigKeyGolden(t *testing.T) {
	names, cfgs := configKeyGoldenCases()
	var b strings.Builder
	for i, cfg := range cfgs {
		key, ok := ConfigKey(cfg)
		if !ok {
			t.Fatalf("%s: reported uncacheable", names[i])
		}
		got, _ := CanonicalConfig(cfg)
		if want, _ := canonicalReference(cfg); !bytes.Equal(got, want) {
			t.Fatalf("%s: CanonicalConfig differs from the reference:\n%s\n---\n%s", names[i], got, want)
		}
		fmt.Fprintf(&b, "%s %s\n", names[i], key)
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(configKeyGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filepath.FromSlash(configKeyGoldenPath))
	if err != nil {
		t.Fatalf("missing key golden (run with -update to create): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d: got %q, want %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("key golden has %d lines, got %d", len(wl), len(gl))
}

// FuzzConfigKey starts from a built-in device and makes one edit: a field
// of one OPP, or TransitionLatency, set to an arbitrary bit pattern; a new
// name; an OPP appended or dropped; or none. Whatever the edit, the
// canonical bytes must equal the reference encoder's and the key must be
// their SHA-256, so a built-in's saved hash state is resumed only where
// formatting its lines again would write the same lines.
func FuzzConfigKey(f *testing.F) {
	// Each built-in unedited; the edits are seeded under
	// testdata/fuzz/FuzzConfigKey.
	for dev := range cpu.Devices() {
		f.Add(uint8(dev), uint8(4), uint16(0), uint64(0), "", int64(1))
	}
	f.Fuzz(func(t *testing.T, dev, op uint8, idx uint16, bits uint64, name string, seed int64) {
		devs := cpu.Devices()
		cfg := DefaultRunConfig()
		cfg.Device = devs[int(dev)%len(devs)]
		cfg.Seed = seed
		m := &cfg.Device
		v := math.Float64frombits(bits)
		switch op % 5 {
		case 0: // one field: four per OPP, then the latency
			i := int(idx) % (4*len(m.OPPs) + 1)
			if i == 4*len(m.OPPs) {
				m.TransitionLatency = sim.Time(v)
				break
			}
			switch o := &m.OPPs[i/4]; i % 4 {
			case 0:
				o.FreqHz = v
			case 1:
				o.VoltageV = v
			case 2:
				o.ActiveW = v
			default:
				o.IdleW = v
			}
		case 1:
			m.Name = name
		case 2:
			last := m.OPPs[len(m.OPPs)-1]
			last.FreqHz = v
			m.OPPs = append(m.OPPs, last)
		case 3:
			i := int(idx) % len(m.OPPs)
			m.OPPs = append(m.OPPs[:i], m.OPPs[i+1:]...)
		}
		want, _ := canonicalReference(cfg)
		got, ok := CanonicalConfig(cfg)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("CanonicalConfig differs from the reference:\n%s\n---\n%s", got, want)
		}
		sum := sha256.Sum256(want)
		if key, _ := ConfigKey(cfg); key != hex.EncodeToString(sum[:]) {
			t.Fatalf("ConfigKey = %s, want SHA-256 of the reference bytes %x", key, sum)
		}
	})
}

// canonicalReference is CanonicalConfig as it was before the built-in
// devices' hash states were saved: every field formatted inline, every
// time. It is kept verbatim as the differential oracle for FuzzConfigKey
// and TestConfigKeyGolden, so neither the split encoder nor the resumed
// hash can drift from the one encoding DESIGN.md §9 specifies.
func canonicalReference(cfg RunConfig) ([]byte, bool) {
	if cfg.Trace != nil || cfg.OnSample != nil || cfg.Tracer != nil || cfg.Strict || cfg.Cancel != nil {
		return nil, false
	}
	b := make([]byte, 0, 512)
	field := func(key string) { b = append(append(b, key...), '=') }
	end := func() { b = append(b, '\n') }
	str := func(key, v string) { field(key); b = append(b, v...); end() }
	flt := func(key string, v float64) {
		field(key)
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
		end()
	}
	dur := func(key string, v sim.Time) { flt(key, v.Seconds()) }
	num := func(key string, v int64) { field(key); b = strconv.AppendInt(b, v, 10); end() }
	boo := func(key string, v bool) {
		n := int64(0)
		if v {
			n = 1
		}
		num(key, n)
	}

	str("device.name", cfg.Device.Name)
	dur("device.latency", cfg.Device.TransitionLatency)
	num("device.opps", int64(len(cfg.Device.OPPs)))
	for i, o := range cfg.Device.OPPs {
		p := "device.opp" + strconv.Itoa(i)
		flt(p+".freq", o.FreqHz)
		flt(p+".volt", o.VoltageV)
		flt(p+".active", o.ActiveW)
		flt(p+".idle", o.IdleW)
	}
	str("governor", string(cfg.Governor))
	flt("policy.margin", cfg.Policy.Margin)
	flt("policy.sigmak", cfg.Policy.SigmaK)
	flt("policy.alpha", cfg.Policy.Alpha)
	num("policy.predictor", int64(cfg.Policy.Predictor))
	dur("policy.guard", cfg.Policy.Guard)
	flt("policy.targetqueue", cfg.Policy.TargetQueueFrac)
	flt("policy.sprint", cfg.Policy.SprintFrames)
	boo("policy.racetoidle", cfg.Policy.RaceToIdle)
	boo("policy.startupboost", cfg.Policy.StartupBoost)
	num("policy.minopp", int64(cfg.Policy.MinOPP))
	str("title.name", cfg.Title.Name)
	flt("title.complexity", cfg.Title.Complexity)
	dur("title.scenedur", cfg.Title.SceneMeanDur)
	flt("title.scenecv", cfg.Title.SceneCV)
	str("rung.name", cfg.Rung.Name)
	num("rung.w", int64(cfg.Rung.Width))
	num("rung.h", int64(cfg.Rung.Height))
	str("abr", string(cfg.ABR))
	str("net", string(cfg.Net))
	// A recorded bandwidth trace IS config, unlike a frame Trace: it is
	// small (one sample per transfer chunk), fully determines replay, and
	// hashing it keeps trace-backed runs cacheable — the fleet shards
	// them by this key like any other config.
	if cfg.BWTrace == nil {
		str("bwtrace", "")
	} else {
		num("bwtrace.samples", int64(len(cfg.BWTrace.Samples)))
		for i, s := range cfg.BWTrace.Samples {
			p := "bwtrace." + strconv.Itoa(i)
			dur(p+".t0", s.Start)
			dur(p+".t1", s.End)
			flt(p+".bytes", s.Bytes)
			num(p+".fetch", int64(s.Fetch))
		}
	}
	if cfg.RRC == nil {
		str("rrc", "")
	} else {
		flt("rrc.idlew", cfg.RRC.IdleW)
		flt("rrc.fachw", cfg.RRC.FACHW)
		flt("rrc.dchw", cfg.RRC.DCHW)
		flt("rrc.txw", cfg.RRC.TxExtraW)
		dur("rrc.t1", cfg.RRC.T1)
		dur("rrc.t2", cfg.RRC.T2)
		dur("rrc.promoidle", cfg.RRC.PromoIdle)
		dur("rrc.promofach", cfg.RRC.PromoFACH)
		boo("rrc.fastdormancy", cfg.RRC.FastDormancy)
	}
	dur("duration", cfg.Duration)
	num("seed", cfg.Seed)
	num("bgseed", cfg.BGSeed)
	num("decodedqueuecap", int64(cfg.DecodedQueueCap))
	flt("lowwatersec", cfg.LowWaterSec)
	if cfg.Thermal == nil {
		str("thermal", "")
	} else {
		flt("thermal.ambient", cfg.Thermal.AmbientC)
		flt("thermal.rth", cfg.Thermal.RthCPerW)
		dur("thermal.tau", cfg.Thermal.Tau)
		flt("thermal.trip", cfg.Thermal.TripC)
		flt("thermal.hyst", cfg.Thermal.HystC)
		dur("thermal.sample", cfg.Thermal.Sample)
		flt("thermal.initial", cfg.Thermal.InitialC)
	}
	boo("cstates", cfg.CStates)
	str("codec", cfg.Codec)
	boo("lowlatency", cfg.LowLatency)
	dur("segmentdur", cfg.SegmentDur)
	boo("background", cfg.Background)
	dur("horizon", cfg.Horizon)
	flt("fps", cfg.FPS)
	// The noisy forecast is seeded and keyed per piece, so forecast-armed
	// runs — noisy included — are deterministic functions of these fields
	// and stay cacheable.
	str("forecast", string(cfg.Forecast))
	dur("forecast.lookahead", cfg.ForecastLookahead)
	flt("forecast.relerr", cfg.ForecastRelErr)
	num("forecast.seed", cfg.ForecastSeed)
	return b, true
}
