package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"videodvfs/internal/sim"
)

// workload is one benchmark traffic shape. setup builds the inputs and
// warms caches (everything before the first timed op), run drives the
// measured window, check verifies the outputs afterwards, and layers turns
// a traced run's spans and counters into per-layer metrics. outputDigest
// is a SHA-256 over outputs that depend only on the seed, so every run of
// one seed prints the same digest.
type workload interface {
	setup(b *bench) error
	run(b *bench) (windowResult, error)
	check(b *bench) []error
	outputDigest() string
	layers(b *bench, res windowResult) map[string]float64
	close()
}

// workloads maps each workload name to its constructor. BENCHMARK.json and
// README.md give the reason for each.
var workloads = map[string]func() workload{
	"run-sweep":    func() workload { return &runSweep{} },
	"cohort-churn": func() workload { return &cohortChurn{} },
	"dvfsd-mixed":  func() workload { return &dvfsdMixed{} },
	"fleet-sweep":  func() workload { return &fleetSweep{} },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// contentDur is the content length every workload simulates per run.
const contentDur = 30 * sim.Second

// digestOf is the hex SHA-256 of the concatenated byte strings.
func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// bench is the state one run shares with its workload.
type bench struct {
	opt    options
	window time.Duration
	// spans is nil in untraced runs; workloads record spans only when set.
	spans *spanLog
}

func newBench(opt options) *bench {
	b := &bench{opt: opt, window: time.Duration(opt.seconds) * time.Second}
	if opt.trace {
		b.spans = newSpanLog()
	}
	return b
}

// opSpan is one timed op on the host clock: from its start, or an open
// loop's due time, to its end.
type opSpan struct {
	start, end time.Time
	// ok is false for a failed op, which counts as infinitely slow.
	ok bool
}

// windowResult is what a workload's measured window produced.
type windowResult struct {
	// timed are the ops op_p50_ms is the median of, failed ones included.
	timed []opSpan
	// ops counts successful ops (runs, cohorts, requests or sweeps).
	ops int64
	// attempted and failed count units of work: sweep points, viewers,
	// requests or runs.
	attempted, failed int64
	// contentS is the content seconds the successful ops simulated.
	contentS float64
	// offered marks an open loop, whose content rate is the offered load
	// less its failures, whatever the host's speed.
	offered bool
	start   time.Time
	elapsed time.Duration
	// info holds workload-specific `name value unit` lines.
	info []line
	// allocs and allocBytes are MemStats deltas over the window.
	allocs, allocBytes uint64
	// firstErr is the first failure, reported on standard error.
	firstErr error
}

// fail counts n failed units of work.
func (r *windowResult) fail(n int64, err error) {
	r.failed += n
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// windowClock times a measured window and takes the MemStats deltas at its
// edges only (ReadMemStats stops the world).
type windowClock struct {
	start time.Time
	ms0   runtime.MemStats
}

func startWindow() *windowClock {
	w := &windowClock{}
	runtime.ReadMemStats(&w.ms0)
	w.start = time.Now()
	return w
}

// over reports whether the window has run its length.
func (w *windowClock) over(d time.Duration) bool { return time.Since(w.start) >= d }

// finish stamps the window's interval and allocation deltas onto res.
func (w *windowClock) finish(res *windowResult) {
	res.start = w.start
	res.elapsed = time.Since(w.start)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	res.allocs = ms1.Mallocs - w.ms0.Mallocs
	res.allocBytes = ms1.TotalAlloc - w.ms0.TotalAlloc
}

// probe samples the process while the window runs: the peak of heap
// objects every 10 ms (a coarser period misses the peak before a GC by up
// to the garbage allocated in between), the GC share of used CPU, and
// (traced runs) a CPU profile.
type probe struct {
	heap    *sampler
	peak    uint64
	cpu0    cpuClasses
	profile string
	pf      *os.File
}

type probeResult struct {
	peakHeapMB float64
	gcShare    float64
	profile    string
}

func startProbe(b *bench, out string) (*probe, error) {
	p := &probe{cpu0: readCPUClasses()}
	if b.opt.trace {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return nil, err
		}
		p.profile = filepath.Join(out, "cpu.pprof")
		f, err := os.Create(p.profile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		p.pf = f
	}
	p.sample()
	p.heap = startSampler(10*time.Millisecond, p.sample)
	return p, nil
}

func (p *probe) sample() {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	p.peak = max(p.peak, s[0].Value.Uint64())
}

func (p *probe) stop() probeResult {
	p.heap.stop()
	p.sample()
	if p.pf != nil {
		pprof.StopCPUProfile()
		p.pf.Close()
	}
	cpu1 := readCPUClasses()
	used := (cpu1.total - cpu1.idle) - (p.cpu0.total - p.cpu0.idle)
	return probeResult{
		peakHeapMB: float64(p.peak) / (1 << 20),
		gcShare:    ratio(cpu1.gc-p.cpu0.gc, used),
		profile:    p.profile,
	}
}

// cpuShares buckets the traced window's CPU profile by package.
func (r probeResult) cpuShares() (map[string]float64, error) {
	top, err := pprofTop(r.profile)
	if err != nil {
		return nil, err
	}
	return bucketTop(top)
}

type cpuClasses struct{ gc, idle, total float64 }

func readCPUClasses() cpuClasses {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuClasses{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Float64()}
}

// ---- statistics ----

// rankIndex is the nearest-rank position of quantile q in n sorted samples.
func rankIndex(n int, q float64) int {
	k := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(k, 1), n) - 1
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), q)]
}

// tailQuantile returns the q-quantile only when at least ten samples lie
// beyond it; a tail percentile resting on fewer is not reported.
func tailQuantile(xs []float64, q float64) (float64, bool) {
	if len(xs)-1-rankIndex(len(xs), q) < 10 {
		return 0, false
	}
	return quantile(xs, q), true
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// opLatencies returns each timed op's latency in ms scaled to reference
// host speed, and unscaled. A failed op reads +Inf in both, so it misses
// every latency limit and can only raise a percentile.
func opLatencies(ops []opSpan, speed *speedProbe) (scaled, raw []float64) {
	for _, o := range ops {
		if !o.ok {
			scaled, raw = append(scaled, math.Inf(1)), append(raw, math.Inf(1))
			continue
		}
		r := ms(o.end.Sub(o.start))
		scaled, raw = append(scaled, r*speed.factor(o.start, o.end)), append(raw, r)
	}
	return scaled, raw
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ---- source identity ----

// sourceDigest identifies the code under test: the SHA-256 of every Go
// source and go.mod file of the module tree, found by walking up from the
// working directory to videodvfs's go.mod. It stands in for the commit
// because benchmark checkouts need not be git repositories.
func sourceDigest() string {
	root, err := moduleRoot()
	if err != nil {
		return "unknown"
	}
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the identity
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	h := sha256.New()
	for _, f := range files { // WalkDir visits in lexical order
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(data)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module videodvfs\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
