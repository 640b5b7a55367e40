package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const sampleOutput = `goos: linux
goarch: amd64
pkg: videodvfs
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkRunNoTrace-8 	    1903	    604494 ns/op	   14952 B/op	       8 allocs/op
BenchmarkRunNoTrace-8 	    1900	    610000 ns/op	   14960 B/op	       8 allocs/op
BenchmarkRunReset-8   	    2152	    558545 ns/op	      17 B/op	       0 allocs/op
PASS
ok  	videodvfs	2.482s
`

func TestParseBenchOutput(t *testing.T) {
	path := writeTemp(t, "bench.txt", sampleOutput)
	bf, err := parseBenchOutput(path)
	if err != nil {
		t.Fatal(err)
	}
	if bf.cpu != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu = %q", bf.cpu)
	}
	if got := len(bf.samples["BenchmarkRunNoTrace"]); got != 2 {
		t.Errorf("RunNoTrace samples = %d, want 2 (GOMAXPROCS suffix must be stripped)", got)
	}
	m := best(bf.samples["BenchmarkRunNoTrace"])
	if m.nsPerOp != 604494 { // min across samples
		t.Errorf("best ns/op = %v, want the minimum sample", m.nsPerOp)
	}
	if m.bytesPerOp != 14952 { // min across samples
		t.Errorf("B/op = %v, want the minimum sample", m.bytesPerOp)
	}
	if m.allocsPerOp != 8 {
		t.Errorf("allocs/op = %v", m.allocsPerOp)
	}
	r := best(bf.samples["BenchmarkRunReset"])
	if r.allocsPerOp != 0 {
		t.Errorf("reset allocs/op = %v, want 0", r.allocsPerOp)
	}
}

func TestParseBenchOutputEmpty(t *testing.T) {
	path := writeTemp(t, "empty.txt", "PASS\nok videodvfs 0.1s\n")
	if _, err := parseBenchOutput(path); err == nil {
		t.Fatal("empty benchmark file did not error")
	}
}

// gate runs the full comparison via the flag-driven entrypoint.
func gate(t *testing.T, baseline, current string) error {
	t.Helper()
	return run([]string{
		"-baseline", writeTemp(t, "baseline.txt", baseline),
		"-current", writeTemp(t, "current.txt", current),
	})
}

func TestGateAllocRegression(t *testing.T) {
	current := `cpu: X
BenchmarkRunReset 	 100	 500000 ns/op	 64 B/op	 1 allocs/op
`
	baseline := `cpu: X
BenchmarkRunReset 	 100	 500000 ns/op	 0 B/op	 0 allocs/op
`
	if err := gate(t, baseline, current); err == nil {
		t.Fatal("alloc regression passed the gate")
	}
}

func TestGateAllocRegressionFailsAcrossCPUs(t *testing.T) {
	current := `cpu: Y
BenchmarkRunReset 	 100	 900000 ns/op	 64 B/op	 3 allocs/op
`
	baseline := `cpu: X
BenchmarkRunReset 	 100	 500000 ns/op	 0 B/op	 0 allocs/op
`
	if err := gate(t, baseline, current); err == nil {
		t.Fatal("alloc regression on a different machine passed the gate")
	}
}

func TestGateBytesRegression(t *testing.T) {
	current := `cpu: X
BenchmarkRunNoTrace 	 100	 500000 ns/op	 16000 B/op	 8 allocs/op
`
	baseline := `cpu: X
BenchmarkRunNoTrace 	 100	 500000 ns/op	 15000 B/op	 8 allocs/op
`
	if err := gate(t, baseline, current); err == nil {
		t.Fatal("1 KB/op regression passed the gate")
	}
}

func TestGateBytesJitterTolerated(t *testing.T) {
	current := `cpu: X
BenchmarkRunReset 	 100	 500000 ns/op	 9 B/op	 0 allocs/op
`
	baseline := `cpu: X
BenchmarkRunReset 	 100	 500000 ns/op	 8 B/op	 0 allocs/op
`
	if err := gate(t, baseline, current); err != nil {
		t.Fatalf("1-byte background jitter failed the gate: %v", err)
	}
}

func TestGateTimeRegressionSameCPU(t *testing.T) {
	current := `cpu: X
BenchmarkRunNoTrace 	 100	 600000 ns/op	 0 B/op	 0 allocs/op
`
	baseline := `cpu: X
BenchmarkRunNoTrace 	 100	 500000 ns/op	 0 B/op	 0 allocs/op
`
	if err := gate(t, baseline, current); err == nil {
		t.Fatal("20% time regression on the same machine passed the gate")
	}
}

func TestGateTimeSkippedAcrossCPUs(t *testing.T) {
	current := `cpu: Y
BenchmarkRunNoTrace 	 100	 900000 ns/op	 0 B/op	 0 allocs/op
`
	baseline := `cpu: X
BenchmarkRunNoTrace 	 100	 500000 ns/op	 0 B/op	 0 allocs/op
`
	if err := gate(t, baseline, current); err != nil {
		t.Fatalf("time-only delta across machines failed the gate: %v", err)
	}
}

func TestGateTimeNoiseWithinBaselineSpread(t *testing.T) {
	// Baseline samples span 500–650 µs (noisy box); a current best inside
	// that spread is noise, not a regression, even though it exceeds 5%
	// over the baseline best.
	current := `cpu: X
BenchmarkRunNoTrace 	 100	 600000 ns/op	 0 B/op	 0 allocs/op
`
	baseline := `cpu: X
BenchmarkRunNoTrace 	 100	 500000 ns/op	 0 B/op	 0 allocs/op
BenchmarkRunNoTrace 	 100	 650000 ns/op	 0 B/op	 0 allocs/op
`
	if err := gate(t, baseline, current); err != nil {
		t.Fatalf("time delta inside the baseline's own spread failed the gate: %v", err)
	}
}

func TestGateWithinBudgetPasses(t *testing.T) {
	current := `cpu: X
BenchmarkRunNoTrace 	 100	 510000 ns/op	 100 B/op	 8 allocs/op
BenchmarkRunReset 	 100	 450000 ns/op	 0 B/op	 0 allocs/op
`
	baseline := `cpu: X
BenchmarkRunNoTrace 	 100	 500000 ns/op	 120 B/op	 8 allocs/op
BenchmarkRunReset 	 100	 460000 ns/op	 0 B/op	 0 allocs/op
`
	if err := gate(t, baseline, current); err != nil {
		t.Fatalf("in-budget run failed the gate: %v", err)
	}
}

// The cohort step's timed samples read one or two allocs/op above the
// program's own count, depending on how many GC cycles land in a sample.
// With -allocs, the gate reads allocs/op from the exact GOGC=off run
// instead, in both directions; time and B/op still come from -current.
func TestGateExactAllocsOverrideTimedSamples(t *testing.T) {
	baseline := `cpu: X
BenchmarkCohortStep 	 50	 55000000 ns/op	 6098210 B/op	 49670 allocs/op
`
	current := `cpu: X
BenchmarkCohortStep 	 50	 55000000 ns/op	 6098210 B/op	 49671 allocs/op
BenchmarkCohortStep 	 50	 55000000 ns/op	 6098210 B/op	 49671 allocs/op
`
	gateExact := func(exact string) error {
		return run([]string{
			"-baseline", writeTemp(t, "baseline.txt", baseline),
			"-current", writeTemp(t, "current.txt", current),
			"-allocs", writeTemp(t, "allocs.txt", exact),
		})
	}
	if err := gate(t, baseline, current); err == nil {
		t.Fatal("timed samples one alloc over the pin passed without -allocs")
	}
	if err := gateExact("BenchmarkCohortStep \t 10\t 40000000 ns/op\t 6098174 B/op\t 49668 allocs/op\n"); err != nil {
		t.Fatalf("exact count under the pin failed the gate: %v", err)
	}
	if err := gateExact("BenchmarkCohortStep \t 10\t 40000000 ns/op\t 6098174 B/op\t 49671 allocs/op\n"); err == nil {
		t.Fatal("exact count over the pin passed the gate")
	}
}

// The time gate compares at the baseline host's speed when both files
// hold the calibration benchmark: a host running every benchmark 1.25×
// slower, the calibration included, passes; one benchmark past the
// 5%-and-spread rule while the calibration stays flat fails, as it would
// uncalibrated; and without a calibration line in either file the gate
// compares raw times, so the 1.25× slower host fails.
func TestGateHostSpeedCalibration(t *testing.T) {
	const baseline = `cpu: X
BenchmarkHostSpeed 	 100	 200000 ns/op	 0 B/op	 0 allocs/op
BenchmarkRunNoTrace 	 100	 500000 ns/op	 0 B/op	 0 allocs/op
BenchmarkRunNoTrace 	 100	 510000 ns/op	 0 B/op	 0 allocs/op
BenchmarkRunReset 	 100	 400000 ns/op	 0 B/op	 0 allocs/op
`
	slowHost := `cpu: X
BenchmarkHostSpeed 	 100	 250000 ns/op	 0 B/op	 0 allocs/op
BenchmarkRunNoTrace 	 100	 625000 ns/op	 0 B/op	 0 allocs/op
BenchmarkRunReset 	 100	 500000 ns/op	 0 B/op	 0 allocs/op
`
	if err := gate(t, baseline, slowHost); err != nil {
		t.Errorf("every benchmark 1.25× slower, calibration included, failed the gate: %v", err)
	}

	regressed := `cpu: X
BenchmarkHostSpeed 	 100	 200000 ns/op	 0 B/op	 0 allocs/op
BenchmarkRunNoTrace 	 100	 540000 ns/op	 0 B/op	 0 allocs/op
BenchmarkRunReset 	 100	 400000 ns/op	 0 B/op	 0 allocs/op
`
	if err := gate(t, baseline, regressed); err == nil {
		t.Error("an 8% regression beyond the baseline spread passed with the calibration flat")
	}

	uncalibrated := func(s string) string {
		return strings.Replace(s, "BenchmarkHostSpeed", "BenchmarkOther", 1)
	}
	if err := gate(t, uncalibrated(baseline), slowHost); err == nil {
		t.Error("a 1.25× slower host passed with no calibration line in the baseline")
	}
	if err := gate(t, baseline, uncalibrated(slowHost)); err == nil {
		t.Error("a 1.25× slower host passed with no calibration line in the current run")
	}
}
