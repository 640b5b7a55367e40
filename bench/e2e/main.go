// Command e2e is the repository's end-to-end benchmark. It builds one
// workload's inputs from a seed, drives the simulator through the entry
// points users call (experiments.Run, cohort.Run, the dvfsd handler, the
// dvfsctl controller), checks that the outputs are correct, and prints every
// metric as a `name value unit` line followed by one JSON summary line.
//
//	bash bench/e2e/run.sh --workload run-sweep --seed 1 --seconds 20 --trace 0
//	bash bench/e2e/run.sh --workload dvfsd-mixed --seed 1 --trace 1 --out traced
//	bash bench/e2e/run.sh compare -a <dir> -b <dir>
//
// An untraced run (-trace 0) reports the end-to-end metrics. A traced run
// (-trace 1) times calls into each layer's public functions and seams from
// outside the program, scrapes the services' counters, takes a CPU profile,
// and reports the per-layer metrics instead. README.md holds the catalogue.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart anchors setup_s: package initialization runs before main,
// so this is as close to process start as Go code can observe.
var processStart = time.Now()

// setupSamples is how many times an untraced run measures set-up: once in
// this process and the rest in fresh child processes, so each sample
// starts with cold package caches. setup_s is their median.
const setupSamples = 3

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	out       string
	setupOnly bool
	// setupSamples is how many set-ups an untraced run times (at least 1).
	setupSamples int
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(2)
	}
	os.Exit(run(opt, os.Stdout, os.Stderr))
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&opt.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&opt.seconds, "seconds", 20, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	fs.StringVar(&opt.out, "out", "", "directory for result files, spans.jsonl and the CPU profile (default .bench_build/out/<workload>)")
	fs.BoolVar(&opt.setupOnly, "setup-only", false, "time set-up only and print setup_s (used for the repeated set-up samples)")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if fs.NArg() > 0 {
		return opt, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[opt.workload]; !ok {
		return opt, fmt.Errorf("unknown workload %q (known: %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	if opt.seconds < 1 {
		return opt, fmt.Errorf("-seconds %d: need at least 1", opt.seconds)
	}
	if trace != 0 && trace != 1 {
		return opt, fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	opt.trace = trace == 1
	if !opt.trace && !opt.setupOnly {
		opt.setupSamples = setupSamples
	}
	if opt.out == "" {
		opt.out = filepath.Join(".bench_build", "out", opt.workload)
	}
	return opt, nil
}

// summary is the JSON object printed as the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(opt options, stdout, stderr io.Writer) int {
	b := newBench(opt)
	// Untraced runs scale their timings to reference host speed (speed.go).
	// Traced runs report raw layer timings and keep the probe out of their
	// CPU profile.
	var speed *speedProbe
	if !opt.trace {
		speed = startSpeedProbe()
		defer speed.stop()
	}
	w := workloads[opt.workload]()
	defer w.close()
	if err := w.setup(b); err != nil {
		fmt.Fprintf(stderr, "e2e: %s set-up: %v\n", opt.workload, err)
		return 1
	}
	setupEnd := time.Now()
	setupRaw := setupEnd.Sub(processStart).Seconds()
	setup := setupRaw
	if speed != nil {
		setup *= speed.factor(processStart, setupEnd)
	}
	if opt.setupOnly {
		fmt.Fprintf(stdout, "setup_s %s s\n", formatValue(setup))
		return 0
	}

	probe, err := startProbe(b, opt.out)
	if err != nil {
		fmt.Fprintf(stderr, "e2e: %v\n", err)
		return 1
	}
	res, runErr := w.run(b)
	probed := probe.stop()
	if speed != nil {
		speed.stop()
	}
	if runErr == nil && res.attempted == 0 {
		runErr = errors.New("the window attempted no op")
	}
	if runErr != nil {
		fmt.Fprintf(stderr, "e2e: %s: %v\n", opt.workload, runErr)
		return 1
	}
	checkErrs := w.check(b)

	samples := []float64{setup}
	for i := 1; i < opt.setupSamples; i++ {
		s, err := childSetup(opt)
		if err != nil {
			fmt.Fprintf(stderr, "e2e: set-up sample %d: %v\n", i, err)
			return 1
		}
		samples = append(samples, s)
	}

	metrics := map[string]metric{}
	var info []line
	if opt.trace {
		layers := w.layers(b, res)
		layers["runtime.gc_cpu_share"] = probed.gcShare
		shares, err := probed.cpuShares()
		if err != nil {
			fmt.Fprintf(stderr, "e2e: cpu profile: %v\n", err)
			return 1
		}
		for k, v := range shares {
			layers[k] = v
		}
		for _, m := range perLayerCatalog {
			metrics[m.name] = metric{Value: layers[m.name], Unit: m.unit}
		}
		if err := b.spans.writeJSONL(filepath.Join(opt.out, "spans.jsonl")); err != nil {
			fmt.Fprintf(stderr, "e2e: %v\n", err)
			return 1
		}
		info = append(info, line{"spans", float64(b.spans.len()), "count"}, line{"spans_dropped", float64(b.spans.dropped), "count"})
	} else {
		lat, raw := opLatencies(res.timed, speed)
		p50 := median(lat)
		if math.IsInf(p50, 1) {
			fmt.Fprintf(stderr, "e2e: %s: more than half of %d timed ops failed; first: %v\n", opt.workload, len(res.timed), res.firstErr)
			return 1
		}
		win := res.elapsed.Seconds()
		f := speed.factor(res.start, res.start.Add(res.elapsed))
		contentRate := res.contentS / win
		if !res.offered {
			contentRate /= f
		}
		metrics["setup_s"] = metric{median(samples), "s"}
		metrics["op_p50_ms"] = metric{p50, "ms"}
		metrics["content_s_per_s"] = metric{contentRate, "s/s"}
		metrics["peak_heap_mb"] = metric{probed.peakHeapMB, "MB"}
		info = append(info,
			line{"host_speed", f, "ratio"},
			line{"speed_chunks", float64(speed.chunks()), "count"},
			line{"op_p50_ms.raw", median(raw), "ms"},
			line{"content_s_per_s.raw", res.contentS / win, "s/s"},
			line{"setup_s.raw", setupRaw, "s"},
			line{"throughput_ops_s", float64(res.ops) / win, "1/s"})
		if p99, ok := tailQuantile(lat, 0.99); ok {
			info = append(info, line{"op_p99_ms", p99, "ms"})
		}
	}
	info = append(info,
		line{"ops", float64(res.ops), "count"},
		line{"op_samples", float64(len(res.timed)), "count"},
		line{"window_s", res.elapsed.Seconds(), "s"},
		line{"error_share", ratio(float64(res.failed), float64(res.attempted)), "ratio"})
	for i, s := range samples {
		info = append(info, line{fmt.Sprintf("setup_s.sample%d", i), s, "s"})
	}
	info = append(info, res.info...)
	info = append(info, line{"check_failures", float64(len(checkErrs)), "count"})

	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "%s %s %s\n", k, formatValue(metrics[k].Value), metrics[k].Unit)
	}
	for _, l := range info {
		fmt.Fprintf(stdout, "%s %s %s\n", l.name, formatValue(l.value), l.unit)
	}
	fmt.Fprintf(stdout, "digest %s sha256\n", w.outputDigest())
	if res.firstErr != nil {
		fmt.Fprintf(stderr, "e2e: %d of %d failed, first: %v\n", res.failed, res.attempted, res.firstErr)
	}
	for _, err := range checkErrs {
		fmt.Fprintf(stderr, "e2e: check failed: %v\n", err)
	}

	sum := summary{
		Correct:   len(checkErrs) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   metrics,
	}
	if err := writeResult(opt, sum, info, w.outputDigest()); err != nil {
		fmt.Fprintf(stderr, "e2e: %v\n", err)
		return 1
	}
	js, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(stderr, "e2e: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(js))
	if len(checkErrs) > 0 {
		return 1
	}
	return 0
}

// line is one informational `name value unit` output line.
type line struct {
	name  string
	value float64
	unit  string
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// childSetup measures one more set-up sample in a fresh process running
// this same binary with -setup-only.
func childSetup(opt options) (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0],
		"-workload", opt.workload,
		"-seed", strconv.FormatInt(opt.seed, 10),
		"-seconds", strconv.Itoa(opt.seconds),
		"-setup-only")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("%w: %s", err, strings.TrimSpace(stderr.String()))
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 3 && f[0] == "setup_s" {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	return 0, errors.New("child printed no setup_s line")
}

// environment is what a result was measured on; compare refuses to pair
// results whose environments differ.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

// resultFile is one run's record under the -out directory.
type resultFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  int               `json:"seconds"`
	Trace    bool              `json:"trace"`
	Start    time.Time         `json:"start"`
	Env      environment       `json:"env"`
	Digest   string            `json:"digest"`
	Summary  summary           `json:"summary"`
	Info     map[string]metric `json:"info"`
}

func writeResult(opt options, sum summary, info []line, digest string) error {
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	rf := resultFile{
		Workload: opt.workload,
		Seed:     opt.seed,
		Seconds:  opt.seconds,
		Trace:    opt.trace,
		Start:    processStart.UTC(),
		Env:      currentEnvironment(),
		Digest:   digest,
		Summary:  sum,
		Info:     map[string]metric{},
	}
	for _, l := range info {
		if !math.IsInf(l.value, 0) && !math.IsNaN(l.value) { // JSON has no infinities
			rf.Info[l.name] = metric{l.value, l.unit}
		}
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-%d.json", opt.workload, opt.seed, processStart.UnixNano())
	return os.WriteFile(filepath.Join(opt.out, name), append(data, '\n'), 0o644)
}

func currentEnvironment() environment {
	return environment{
		Commit:     sourceDigest(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
