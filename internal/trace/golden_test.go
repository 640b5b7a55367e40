package trace_test

import (
	"bytes"
	"cmp"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"videodvfs/internal/experiments"
	"videodvfs/internal/sim"
	"videodvfs/internal/trace"
)

// update regenerates the golden trace instead of diffing against it:
//
//	go test ./internal/trace -run TestGoldenTrace -update
var update = flag.Bool("update", false, "rewrite testdata/golden.jsonl from current output")

// goldenConfig is the pinned scenario: a short cut of the default
// session (720p sports, energy-aware governor, steady 8 Mbps link), kept
// to 5 s so the golden file stays reviewable.
func goldenConfig() experiments.RunConfig {
	cfg := experiments.DefaultRunConfig()
	cfg.Duration = 5 * sim.Second
	return cfg
}

// runJSONL executes cfg with a JSONL sink attached and returns the raw
// trace bytes and the run result.
func runJSONL(t *testing.T, cfg experiments.RunConfig) ([]byte, experiments.RunResult) {
	t.Helper()
	var buf bytes.Buffer
	sink := trace.NewJSONL(&buf)
	cfg.Tracer = sink
	res, err := experiments.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// TestTraceDeterminism pins the package's core contract: the JSONL event
// stream is a pure function of the RunConfig, byte for byte.
func TestTraceDeterminism(t *testing.T) {
	a, _ := runJSONL(t, goldenConfig())
	b, _ := runJSONL(t, goldenConfig())
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed runs produced different trace bytes")
	}
	if len(a) == 0 {
		t.Fatal("trace is empty")
	}
}

// TestGoldenTrace pins the exact serialized stream of the golden
// scenario. Any diff is a real behavior change in the simulation or the
// serialization format: rerun with -update and review it like code.
func TestGoldenTrace(t *testing.T) {
	got, res := runJSONL(t, goldenConfig())

	// Sanity before pinning: the stream must carry every subsystem the
	// default session exercises.
	for _, ev := range []string{
		`"ev":"decision"`, `"ev":"decode_start"`, `"ev":"decode_end"`,
		`"ev":"frame_shown"`, `"ev":"opp"`, `"ev":"cpu_busy"`,
		`"ev":"buffer"`, `"ev":"playback"`, `"ev":"power"`,
	} {
		if !bytes.Contains(got, []byte(ev)) {
			t.Errorf("trace is missing %s events", ev)
		}
	}
	if !res.QoE.Completed {
		t.Fatal("golden run did not complete")
	}

	path := filepath.Join("testdata", "golden.jsonl")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden trace (run `make trace-golden` to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace drifted from golden output:\n%s", firstDiff(want, got))
	}
}

// firstDiff reports the first differing line of two JSONL streams.
func firstDiff(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("streams differ in length: golden %d lines, got %d", len(wl), len(gl))
}

// TestCollectorMatchesRunResult cross-checks the rollup against the
// simulation's own accounting: energy integrated from power events must
// agree with the meter, display outcomes with the QoE counters, and the
// per-state and per-OPP dwell with the radio's and core's residency, on
// every radio model. The radio starts in IDLE at t = 0, so its dwell
// before the first RRC event counts too (UMTS spends its 2 s IDLE→DCH
// promotion there).
func TestCollectorMatchesRunResult(t *testing.T) {
	for _, net := range []experiments.NetKind{experiments.NetConst8, experiments.NetLTE, experiments.NetUMTS} {
		t.Run(string(net), func(t *testing.T) {
			col := trace.NewCollector()
			cfg := goldenConfig()
			cfg.Net = net
			cfg.Tracer = col
			res, err := experiments.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := col.Finalize(res.SimEnd)
			if m.FramesDropped != res.QoE.DroppedFrames {
				t.Errorf("collector drops %d, result %d", m.FramesDropped, res.QoE.DroppedFrames)
			}
			relClose := func(a, b float64) bool {
				if b == 0 {
					return a == 0
				}
				d := (a - b) / b
				return d > -1e-6 && d < 1e-6
			}
			if !relClose(m.EnergyJ["cpu"], res.CPUJ) {
				t.Errorf("collector cpu energy %.6f J, meter %.6f J", m.EnergyJ["cpu"], res.CPUJ)
			}
			if !relClose(m.EnergyJ["radio"], res.RadioJ) {
				t.Errorf("collector radio energy %.6f J, meter %.6f J", m.EnergyJ["radio"], res.RadioJ)
			}
			if m.Decisions == 0 || m.OPPSwitches == 0 {
				t.Errorf("rollup missing governor activity: %d decisions, %d switches",
					m.Decisions, m.OPPSwitches)
			}
			if len(m.Timeline) == 0 {
				t.Error("rollup has no energy timeline")
			}
			rrc := make(map[string]sim.Time, len(res.RadioResidency))
			for state, d := range res.RadioResidency {
				rrc[state.String()] = d
			}
			for _, state := range unionKeys(m.RRCResidency, rrc) {
				if got, want := m.RRCResidency[state], rrc[state]; !relClose(got.Seconds(), want.Seconds()) {
					t.Errorf("collector %s dwell %.6f s, radio %.6f s", state, got.Seconds(), want.Seconds())
				}
			}
			for _, opp := range unionKeys(m.OPPResidency, res.FreqResidency) {
				if got, want := m.OPPResidency[opp], res.FreqResidency[opp]; !relClose(got.Seconds(), want.Seconds()) {
					t.Errorf("collector OPP %d dwell %.6f s, core %.6f s", opp, got.Seconds(), want.Seconds())
				}
			}
		})
	}
}

// unionKeys returns the keys present in either map, sorted, so a state
// one side never entered is compared as zero dwell.
func unionKeys[K cmp.Ordered, V any](a, b map[K]V) []K {
	keys := make([]K, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}
