package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var latency = specMetric{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}

// runsOf spreads n values around base with a ±spread/2 sawtooth.
func runsOf(n int, base, spread float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base * (1 + spread*(float64(i%5)/4-0.5))
	}
	return xs
}

func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		name   string
		m      specMetric
		xa, xb []float64
		want   string
	}{
		{"identical", latency, runsOf(10, 10, 0.02), runsOf(10, 10, 0.02), verdictNoWorse},
		{"slightly worse, within bound", latency, runsOf(10, 10, 0.02), runsOf(10, 10.5, 0.02), verdictNoWorse},
		{"worse beyond bound", latency, runsOf(10, 10, 0.02), runsOf(10, 12, 0.02), verdictRegressed},
		{"better in every pair", latency, runsOf(10, 10, 0.02), runsOf(10, 8, 0.02), verdictImproved},
		{"better, but too few pairs to claim", latency, runsOf(5, 10, 0.02), runsOf(5, 8, 0.02), verdictNoWorse},
		{"higher-is-better drop", specMetric{Name: "throughput_ops_s", Better: "higher", Bound: 0.1},
			runsOf(10, 100, 0.02), runsOf(10, 80, 0.02), verdictRegressed},
		{"higher-is-better gain", specMetric{Name: "throughput_ops_s", Better: "higher", Bound: 0.1},
			runsOf(10, 100, 0.02), runsOf(10, 120, 0.02), verdictImproved},
		{"spread wider than bound", latency, runsOf(10, 10, 0.6), runsOf(10, 10.2, 0.6), verdictUnresolved},
		{"noisy, but every run better", latency, runsOf(10, 10, 0.3), runsOf(10, 5, 0.3), verdictImproved},
	} {
		if got := judge("w", tc.m, tc.xa, tc.xb); got.verdict != tc.want {
			t.Errorf("%s: verdict %s (delta %+.3f, wins %d/%d), want %s", tc.name, got.verdict, got.delta, got.wins, got.pairs, tc.want)
		}
	}
}

// writeRuns writes one result file per value; edit, when given, adjusts
// each file before it is written.
func writeRuns(t *testing.T, dir string, env environment, start time.Time, values []float64, edit func(i int, rf *resultFile)) {
	t.Helper()
	for i, v := range values {
		rf := resultFile{
			Workload: "run-sweep",
			Seed:     int64(i + 1),
			Start:    start.Add(time.Duration(2*i) * time.Minute),
			Env:      env,
			Digest:   fmt.Sprintf("digest-of-seed-%d", i+1),
			Summary:  summary{Correct: true, Attempted: 1, Metrics: map[string]metric{"op_p50_ms": {v, "ms"}}},
		}
		if edit != nil {
			edit(i, &rf)
		}
		data, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("result-%d.json", i)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareMain(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "BENCHMARK.json")
	specJSON, _ := json.Marshal(map[string]any{"end_to_end": []specMetric{latency}})
	if err := os.WriteFile(spec, specJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	env := environment{Commit: "src-a", GoVersion: "go1.24", NProc: 2, GOMAXPROCS: 2, CPUModel: "cpu"}
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

	a, b := t.TempDir(), t.TempDir()
	writeRuns(t, a, env, t0, runsOf(10, 10, 0.02), nil)
	envB := env
	envB.Commit = "src-b"
	writeRuns(t, b, envB, t0.Add(time.Minute), runsOf(10, 10.1, 0.02), nil)
	var out, errOut bytes.Buffer
	if code := compareMain([]string{"-a", a, "-b", b, "-spec", spec}, &out, &errOut); code != 0 {
		t.Fatalf("compare exited %d: %s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), verdictNoWorse) {
		t.Fatalf("compare output lacks the verdict:\n%s", out.String())
	}

	// A regression makes compare fail.
	slow := t.TempDir()
	writeRuns(t, slow, envB, t0.Add(time.Minute), runsOf(10, 13, 0.02), nil)
	out.Reset()
	if code := compareMain([]string{"-a", a, "-b", slow, "-spec", spec}, &out, &errOut); code != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Fatalf("a 30%% slowdown: exit %d\n%s", code, out.String())
	}

	// A change that is faster in every pair but fails ops the parent did
	// not (say, answering slow requests with fast 429s) gains nothing and
	// regresses on failures.
	refusing := t.TempDir()
	writeRuns(t, refusing, envB, t0.Add(time.Minute), runsOf(10, 8, 0.02), func(i int, rf *resultFile) {
		rf.Summary.Attempted, rf.Summary.Failed = 100, 22
	})
	out.Reset()
	code := compareMain([]string{"-a", a, "-b", refusing, "-spec", spec}, &out, &errOut)
	if code != 1 || strings.Contains(out.String(), verdictImproved) || !regexp.MustCompile(`failed .*`+verdictRegressed).MatchString(out.String()) {
		t.Fatalf("more failed ops: exit %d\n%s", code, out.String())
	}

	for _, tc := range []struct {
		name, want string
		env        environment
		edit       func(i int, rf *resultFile)
	}{
		{"another CPU", "CPU model", environment{Commit: "src-b", GoVersion: "go1.24", NProc: 2, GOMAXPROCS: 2, CPUModel: "another cpu"}, nil},
		{"a failed output check", "output checks failed", envB, func(i int, rf *resultFile) { rf.Summary.Correct = i != 3 }},
		{"another output for one seed", "output digest", envB, func(i int, rf *resultFile) {
			if i == 4 {
				rf.Digest = "changed"
			}
		}},
	} {
		dir := t.TempDir()
		writeRuns(t, dir, tc.env, t0, runsOf(10, 10, 0.02), tc.edit)
		errOut.Reset()
		if code := compareMain([]string{"-a", a, "-b", dir, "-spec", spec}, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), tc.want) {
			t.Errorf("%s: exit %d: %s", tc.name, code, errOut.String())
		}
	}

	// One side mixing two source trees is refused.
	mixed := t.TempDir()
	writeRuns(t, mixed, envB, t0, runsOf(3, 10, 0.02), nil)
	data, _ := os.ReadFile(filepath.Join(mixed, "result-0.json"))
	os.WriteFile(filepath.Join(mixed, "result-9.json"), bytes.Replace(data, []byte("src-b"), []byte("src-c"), 1), 0o644)
	errOut.Reset()
	if code := compareMain([]string{"-a", a, "-b", mixed, "-spec", spec}, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "source trees") {
		t.Fatalf("mixed source trees: exit %d: %s", code, errOut.String())
	}
}
