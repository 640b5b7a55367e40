// Command benchgate compares a fresh `go test -bench` run against the
// pinned baseline in bench/baseline.txt and fails the build on hot-path
// regressions. It is the CI teeth behind the repo's performance contract
// (DESIGN.md §8, §11):
//
//   - any allocs/op increase on a pinned benchmark fails, always — the
//     0-alloc reset path and the 8-alloc public Run are hard budgets, not
//     trends. With -allocs, a benchmark found in that second file is
//     gated on its allocs/op there: a fixed-iteration run under GOGC=off,
//     where no GC cycle adds the runtime's own background allocations,
//     so the count repeats exactly;
//   - any B/op increase beyond a few bytes of runtime-background jitter
//     fails, always;
//   - a best-of-samples ns/op regression beyond the threshold (default
//     5%) that also clears the baseline's own sample spread fails, but
//     only when the baseline and current run report the same "cpu:"
//     header — wall-clock comparisons across different machines are
//     noise, and the gate says so instead of guessing. When both files
//     hold the calibration benchmark (BenchmarkHostSpeed, a fixed kernel
//     that calls no model code), the current times are first scaled by
//     the ratio of its two bests, so the same machine running slower
//     than when the baseline was pinned does not fail unchanged code.
//
// It also emits a machine-readable summary (runs/sec, ns/op, allocs/op
// per benchmark) for the perf dashboard, and needs no external tooling:
// it parses the standard testing output format directly, so it runs
// anywhere `go test` does, without benchstat.
//
// Usage:
//
//	go test -run '^$' -bench '...' -benchmem -count 5 . > bench/current.txt
//	GOGC=off go test -run '^$' -bench '...' -benchmem -benchtime 10x . > bench/current-allocs.txt
//	benchgate -baseline bench/baseline.txt -current bench/current.txt -allocs bench/current-allocs.txt -out bench/BENCH_6.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// sample is one benchmark line.
type sample struct {
	nsPerOp     float64
	bytesPerOp  float64
	allocsPerOp float64
}

// benchFile is a parsed benchmark output file: per-name samples plus the
// environment header.
type benchFile struct {
	cpu     string
	samples map[string][]sample
}

// parseBenchOutput reads standard `go test -bench -benchmem` output:
//
//	BenchmarkRunNoTrace-8   1903   604494 ns/op   14952 B/op   8 allocs/op
//
// The -N GOMAXPROCS suffix is stripped so names match across machines.
func parseBenchOutput(path string) (*benchFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	out := &benchFile{samples: make(map[string][]sample)}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "cpu:"); ok {
			out.cpu = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var s sample
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.nsPerOp = v
				seen = true
			case "B/op":
				s.bytesPerOp = v
			case "allocs/op":
				s.allocsPerOp = v
			}
		}
		if seen {
			out.samples[name] = append(out.samples[name], s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out.samples) == 0 {
		return nil, fmt.Errorf("no benchmark lines in %s", path)
	}
	return out, nil
}

// best collapses a benchmark's samples to the MINIMUM of each metric.
// Scheduler and cache noise on a shared CI machine only ever ADDS time,
// so the best observed sample is the stable estimator of the code's true
// cost (means on a busy box swing ±15% between back-to-back runs). B/op
// and allocs/op are budgets: a one-off GC or pool-refill blip in a single
// sample must not mask (or fake) a structural regression.
func best(samples []sample) sample {
	m := samples[0]
	for _, s := range samples[1:] {
		if s.nsPerOp < m.nsPerOp {
			m.nsPerOp = s.nsPerOp
		}
		if s.bytesPerOp < m.bytesPerOp {
			m.bytesPerOp = s.bytesPerOp
		}
		if s.allocsPerOp < m.allocsPerOp {
			m.allocsPerOp = s.allocsPerOp
		}
	}
	return m
}

// minFailing is the smallest time regression the time gate fails, as a
// fraction of the best baseline sample: the current best must be more
// than maxTime above both the best and the slowest baseline sample, so
// the slower bar, max(best, slowest) × (1 + maxTime), sets it. A baseline
// whose samples spread widely hides every regression below that.
func minFailing(baseSamples []sample, maxTime float64) float64 {
	b := best(baseSamples).nsPerOp
	slowest := b
	for _, s := range baseSamples {
		slowest = max(slowest, s.nsPerOp)
	}
	return slowest*(1+maxTime)/b - 1
}

// hostSpeed names the calibration benchmark: its time moves only with the
// host, so the ratio of its bests measures how fast the host runs now
// against when the baseline was pinned.
const hostSpeed = "BenchmarkHostSpeed"

// hostScale is the factor that brings the current run's times to the
// baseline host's speed: the ratio of the calibration's best baseline
// time to its best current time, or 1 when either file lacks it.
func hostScale(baseline, current *benchFile) float64 {
	b, okb := baseline.samples[hostSpeed]
	c, okc := current.samples[hostSpeed]
	if !okb || !okc {
		return 1
	}
	return best(b).nsPerOp / best(c).nsPerOp
}

// report is the schema of the emitted JSON summary.
type report struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	RunsPerSec  float64 `json:"runs_per_sec"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	baselinePath := fs.String("baseline", "bench/baseline.txt", "pinned baseline benchmark output")
	currentPath := fs.String("current", "bench/current.txt", "fresh benchmark output to gate")
	allocsPath := fs.String("allocs", "", "exact allocs/op run (fixed iterations, GOGC=off) that overrides -current's allocs/op for the benchmarks it holds")
	outPath := fs.String("out", "", "write a JSON summary of the current run here")
	maxTime := fs.Float64("maxtime", 0.05, "maximum allowed best-of-samples ns/op regression (fraction)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	baseline, err := parseBenchOutput(*baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	current, err := parseBenchOutput(*currentPath)
	if err != nil {
		return fmt.Errorf("current: %w", err)
	}
	exact := &benchFile{}
	if *allocsPath != "" {
		if exact, err = parseBenchOutput(*allocsPath); err != nil {
			return fmt.Errorf("allocs: %w", err)
		}
	}

	sameCPU := baseline.cpu != "" && baseline.cpu == current.cpu
	if !sameCPU {
		fmt.Printf("benchgate: cpu differs (baseline %q, current %q): time gate skipped, alloc gates still armed\n",
			baseline.cpu, current.cpu)
	}

	scale := hostScale(baseline, current)
	if scale != 1 {
		fmt.Printf("benchgate: %s reads %.3f× the baseline host's speed: current times scaled by %.3f before the time gate\n",
			hostSpeed, scale, scale)
	}

	names := make([]string, 0, len(current.samples))
	for name := range current.samples {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	reports := make([]report, 0, len(names))
	for _, name := range names {
		cur := best(current.samples[name])
		if samples, ok := exact.samples[name]; ok {
			cur.allocsPerOp = best(samples).allocsPerOp
		}
		reports = append(reports, report{
			Name:        name,
			NsPerOp:     cur.nsPerOp,
			RunsPerSec:  1e9 / cur.nsPerOp,
			BytesPerOp:  cur.bytesPerOp,
			AllocsPerOp: cur.allocsPerOp,
		})
		baseSamples, ok := baseline.samples[name]
		if !ok {
			fmt.Printf("benchgate: %s: no baseline (new benchmark) — re-pin with 'make bench-baseline'\n", name)
			continue
		}
		base := best(baseSamples)
		ns := cur.nsPerOp * scale // at the baseline host's speed
		failAt := minFailing(baseSamples, *maxTime)
		fmt.Printf("benchgate: %-22s %12.0f ns/op (baseline %12.0f, %+6.1f%%; time gate fails from %+.1f%%)  %6.0f allocs/op (baseline %6.0f)\n",
			name, ns, base.nsPerOp, 100*(ns-base.nsPerOp)/base.nsPerOp, 100*failAt,
			cur.allocsPerOp, base.allocsPerOp)
		if cur.allocsPerOp > base.allocsPerOp {
			failures = append(failures, fmt.Sprintf("%s: allocs/op regressed %.0f → %.0f",
				name, base.allocsPerOp, cur.allocsPerOp))
		}
		// B/op gets a small absolute slop: on a 0-alloc benchmark the
		// runtime's own background allocations amortize to a few bytes/op
		// that jitter run to run, while any structural regression costs at
		// least one real allocation (16+ bytes) every iteration.
		if cur.bytesPerOp > base.bytesPerOp*1.01+64 {
			failures = append(failures, fmt.Sprintf("%s: B/op regressed %.0f → %.0f",
				name, base.bytesPerOp, cur.bytesPerOp))
		}
		// The time gate needs significance, not just magnitude: the best
		// current sample must be >maxtime slower than the best baseline
		// sample AND than every baseline sample (minFailing). A real
		// regression shifts the whole distribution past both bars;
		// co-tenant noise on a shared box (which only ever adds time) does
		// not.
		if sameCPU && ns > base.nsPerOp*(1+failAt) {
			failures = append(failures, fmt.Sprintf("%s: ns/op regressed %.0f → %.0f (>%.0f%% and beyond baseline spread)",
				name, base.nsPerOp, ns, *maxTime*100))
		}
	}

	if *outPath != "" {
		buf, err := json.MarshalIndent(struct {
			CPU        string   `json:"cpu"`
			Benchmarks []report `json:"benchmarks"`
		}{CPU: current.cpu, Benchmarks: reports}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("benchgate: summary written to %s\n", *outPath)
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL: %s\n", f)
		}
		return fmt.Errorf("%d benchmark regression(s)", len(failures))
	}
	fmt.Println("benchgate: all pinned benchmarks within budget")
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
}
