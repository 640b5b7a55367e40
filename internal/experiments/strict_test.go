package experiments

import (
	"bytes"
	"errors"
	"testing"

	"videodvfs/internal/cpu"
	"videodvfs/internal/invariant"
	"videodvfs/internal/sim"
	"videodvfs/internal/trace"
	"videodvfs/internal/video"
)

// stressConfigs returns the energy-closure stress matrix: every device
// model × the highest-variability decode load (TitleSports, scene CV
// 0.22), across network/radio and governor variety. These configs double
// as the seed corpus of FuzzRunConfigInvariants.
func stressConfigs() []RunConfig {
	var out []RunConfig
	nets := []NetKind{NetConst8, NetLTE, NetUMTS}
	govs := []GovernorID{GovEnergyAware, GovOracle, "ondemand"}
	for i, dev := range cpu.Devices() {
		for j, net := range nets {
			cfg := DefaultRunConfig()
			cfg.Device = dev
			cfg.Title = video.TitleSports
			cfg.Net = net
			cfg.Governor = govs[(i+j)%len(govs)]
			cfg.CStates = (i+j)%2 == 0
			cfg.Seed = int64(1 + i*len(nets) + j)
			out = append(out, cfg)
		}
	}
	return out
}

// TestEnergyClosureStress runs the stress matrix strict. The invariant
// checker integrates each component's power events and fails the run
// unless the integral matches the energy meter within 1e-9 × max(|x|, 1)
// (energy-closure), alongside its residency and frame-accounting rules.
// Both sides integrate the identical piecewise-constant power signal
// with the same arithmetic, so any wider gap is a bookkeeping bug, not
// float noise.
func TestEnergyClosureStress(t *testing.T) {
	for _, cfg := range stressConfigs() {
		cfg := cfg
		name := string(cfg.Governor) + "/" + cfg.Device.Name + "/" + string(cfg.Net)
		t.Run(name, func(t *testing.T) {
			cfg.Strict = true
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStrictViolationIsTyped pins the error contract: a strict run that
// trips the checker fails with a *invariant.Violation reachable through
// errors.As, naming rule, virtual time, and observed vs expected. The
// model itself is clean, so the test swaps the checker constructor for
// one grounded in a wrong OPP table — every real OPP event then breaks
// the opp-table rule against a genuine run's stream.
func TestStrictViolationIsTyped(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.Strict = true

	if _, err := Run(cfg); err != nil {
		t.Fatalf("clean strict run failed: %v", err)
	}

	prev := newChecker
	newChecker = func(ic invariant.Config) *invariant.Checker {
		ic.OPPFreqsHz = ic.OPPFreqsHz[:1] // claim a one-OPP device
		return invariant.New(ic)
	}
	defer func() { newChecker = prev }()
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("mis-grounded strict run passed")
	}
	var v *invariant.Violation
	if !errors.As(err, &v) {
		t.Fatalf("strict failure %v is not a *invariant.Violation", err)
	}
	if v.Rule != "opp-table" || v.Detail == "" {
		t.Fatalf("violation = %+v, want populated opp-table rule", v)
	}
}

// runJSONL executes cfg capped at horizon with a JSONL sink attached and
// returns the raw trace bytes. An ErrHorizonExceeded result is expected
// for horizons that cut the session short.
func runJSONL(t *testing.T, cfg RunConfig, horizon sim.Time) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := trace.NewJSONL(&buf)
	cfg.Tracer = sink
	cfg.Horizon = horizon
	_, err := Run(cfg)
	if err != nil && !errors.Is(err, ErrHorizonExceeded) {
		t.Fatalf("run at horizon %v: %v", horizon, err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("sink close: %v", err)
	}
	return buf.Bytes()
}

// TestTraceHorizonPrefixMetamorphic pins the metamorphic property that
// makes horizons composable: the horizon only decides where the run
// stops, never what happens before the cut. For H1 < H2 on the same
// config, the H1 JSONL trace must therefore be a byte prefix of the H2
// trace — any divergence means some component's behavior leaks the
// horizon into pre-horizon events.
func TestTraceHorizonPrefixMetamorphic(t *testing.T) {
	lowlat := DefaultRunConfig()
	lowlat.LowLatency = true
	umts := DefaultRunConfig()
	umts.Net = NetUMTS
	umts.Governor = GovEnergyAware
	umts.CStates = true
	abr := DefaultRunConfig()
	abr.ABR = ABRBBA
	abr.Net = NetLTE
	triples := []struct {
		name   string
		cfg    RunConfig
		h1, h2 sim.Time
	}{
		{"lowlatency-early-cut", lowlat, 3 * sim.Second, 20 * sim.Second},
		{"umts-cstates-mid-cut", umts, 30 * sim.Second, 200 * sim.Second},
		{"abr-lte-near-full", abr, 61 * sim.Second, 420 * sim.Second},
	}
	for _, tc := range triples {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			short := runJSONL(t, tc.cfg, tc.h1)
			long := runJSONL(t, tc.cfg, tc.h2)
			if len(short) == 0 {
				t.Fatal("H1 trace is empty — the cut landed before any event")
			}
			if len(long) < len(short) {
				t.Fatalf("H2 trace (%d bytes) shorter than H1 trace (%d bytes)", len(long), len(short))
			}
			if !bytes.Equal(long[:len(short)], short) {
				i := 0
				for i < len(short) && short[i] == long[i] {
					i++
				}
				lo := i - 80
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("H1 trace is not a prefix of the H2 trace; first divergence at byte %d:\n  H1: %q\n  H2: %q",
					i, short[lo:min(i+80, len(short))], long[lo:min(i+80, len(long))])
			}
		})
	}
}

// TestBatchStrict runs a Sweep-shaped batch through the campaign pool
// with invariants armed on every run.
func TestBatchStrict(t *testing.T) {
	defer SetStrictDefault(SetStrictDefault(true))
	base := DefaultRunConfig()
	var cfgs []RunConfig
	for _, gov := range []GovernorID{GovEnergyAware, GovOracle, "ondemand", "performance"} {
		cfg := base
		cfg.Governor = gov
		cfgs = append(cfgs, cfg)
	}
	outs := RunAll(cfgs, 2)
	if len(outs) != len(cfgs) {
		t.Fatalf("got %d outcomes for %d configs", len(outs), len(cfgs))
	}
	for _, o := range outs {
		if o.Err != nil {
			var v *invariant.Violation
			if errors.As(o.Err, &v) {
				t.Fatalf("config %d (%s) violated invariants: %v", o.Index, o.Config.Governor, v)
			}
			t.Fatalf("config %d failed: %v", o.Index, o.Err)
		}
	}
}
