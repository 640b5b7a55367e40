package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"testing"
)

// smoke runs one workload for a one-second window with every check armed
// and returns the summary line. It times set-up once, in this process.
func smoke(t *testing.T, workload string, trace bool) summary {
	t.Helper()
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run(options{workload: workload, seed: 7, seconds: 1, trace: trace, out: out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s exited %d\nstdout:\n%s\nstderr:\n%s", workload, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the summary: %v\n%s", err, stdout.String())
	}
	// The race detector slows the service below the open loop's rates, so
	// only its checks, not its failure count, hold under -race.
	if !sum.Correct || sum.Attempted < 1 || sum.Failed != 0 && !raceBuild() {
		t.Fatalf("%s summary: %+v\nstderr:\n%s", workload, sum, stderr.String())
	}
	if files, _ := filepath.Glob(filepath.Join(out, "result-*.json")); len(files) != 1 {
		t.Fatalf("%s wrote %d result files, want 1", workload, len(files))
	}
	return sum
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

func metricNames(ms map[string]metric) []string {
	var out []string
	for k := range ms {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func catalogNames(c []catalogMetric) []string {
	var out []string
	for _, m := range c {
		out = append(out, m.name)
	}
	sort.Strings(out)
	return out
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			sum := smoke(t, w, false)
			if got, want := metricNames(sum.Metrics), catalogNames(endToEndCatalog); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("untraced metrics %v, want %v", got, want)
			}
			for name, m := range sum.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %g, want a positive reading", name, m.Value)
				}
			}
		})
	}
}

// The traced run reports every per-layer metric, writes its spans, and
// its CPU shares sum to one.
func TestSmokeTraced(t *testing.T) {
	sum := smoke(t, "run-sweep", true)
	if got, want := metricNames(sum.Metrics), catalogNames(perLayerCatalog); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("traced metrics %v, want %v", got, want)
	}
	var shares float64
	for _, n := range shareNames() {
		shares += sum.Metrics[n].Value
	}
	if shares < 0.99 || shares > 1.01 {
		t.Fatalf("CPU shares sum to %g", shares)
	}
	if sum.Metrics["trace.overhead_share"].Value == 0 || sum.Metrics["core.decisions_per_run"].Value == 0 {
		t.Fatalf("traced run-sweep left its counters empty: %+v", sum.Metrics)
	}
}

// BENCHMARK.json must list exactly the catalogued metrics, with the same
// units and directions.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the module:", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []specMetric                 `json:"end_to_end"`
		PerLayer  []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	var e2e, layers []catalogMetric
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, catalogMetric{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, catalogMetric{m.Name, m.Unit, m.Better})
	}
	if !slices.Equal(e2e, endToEndCatalog) {
		t.Errorf("BENCHMARK.json end_to_end %v, the catalogue %v", e2e, endToEndCatalog)
	}
	if !slices.Equal(layers, perLayerCatalog) {
		t.Errorf("BENCHMARK.json per_layer %v, the catalogue %v", layers, perLayerCatalog)
	}
}
