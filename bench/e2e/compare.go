package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// minPairs is how many alternated pairs a gain needs before it can be
// claimed.
const minPairs = 10

// Verdicts compare reports per workload × end-to-end metric.
const (
	verdictImproved   = "improved"
	verdictNoWorse    = "no-worse-within-bound"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// specMetric is one end_to_end entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareMain implements `e2e compare -a <dir> -b <dir>`: side a is the
// parent, side b the change, each a directory of untraced result files
// whose runs alternated a, b, a, b, …
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	a := fs.String("a", "", "directory of the parent's result files")
	b := fs.String("b", "", "directory of the change's result files")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the end-to-end bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *a == "" || *b == "" {
		fmt.Fprintln(stderr, "compare: -a and -b are required")
		return 2
	}
	metrics, err := readSpec(*spec)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	ra, err := readResults(*a)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	rb, err := readResults(*b)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	if err := sameEnvironment(ra, rb); err != nil {
		fmt.Fprintln(stderr, "compare: refusing:", err)
		return 2
	}
	cells := compareResults(ra, rb, metrics)
	fmt.Fprintf(stdout, "%-13s %-17s %28s %28s %8s %6s  %s\n", "workload", "metric", "a median [q1, q3]", "b median [q1, q3]", "delta", "wins", "verdict")
	regressed := false
	for _, c := range cells {
		fmt.Fprintf(stdout, "%-13s %-17s %28s %28s %+7.2f%% %6s  %s\n", c.workload, c.metric,
			fmt.Sprintf("%.4g [%.4g, %.4g]", c.a.med, c.a.q1, c.a.q3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", c.b.med, c.b.q1, c.b.q3),
			100*c.delta, fmt.Sprintf("%d/%d", c.wins, c.pairs), c.verdict)
		regressed = regressed || c.verdict == verdictRegressed
	}
	if regressed {
		return 1
	}
	return 0
}

func readSpec(path string) ([]specMetric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// readResults loads a directory's untraced result files, oldest first.
func readResults(dir string) ([]resultFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "result-*.json"))
	if err != nil {
		return nil, err
	}
	var out []resultFile
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rf.Trace {
			continue
		}
		if !rf.Summary.Correct {
			return nil, fmt.Errorf("%s: a run whose output checks failed", p)
		}
		out = append(out, rf)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced result files", dir)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out, nil
}

// sameEnvironment refuses mixed measurements: one side's files must all
// come from one source tree, every file must share the toolchain, CPU
// count, GOMAXPROCS and CPU model, and runs of one workload and seed must
// agree on the output digest on both sides, since a change that alters
// outputs is not a speed change.
func sameEnvironment(a, b []resultFile) error {
	digests := map[string]resultFile{}
	for _, r := range append(append([]resultFile(nil), a...), b...) {
		key := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
		if prev, ok := digests[key]; ok && prev.Digest != r.Digest {
			return fmt.Errorf("%s: output digest %.12s in one run and %.12s in another", key, prev.Digest, r.Digest)
		}
		digests[key] = r
	}
	for _, side := range [][]resultFile{a, b} {
		for _, r := range side[1:] {
			if r.Env.Commit != side[0].Env.Commit {
				return fmt.Errorf("one side mixes source trees %s and %s", side[0].Env.Commit, r.Env.Commit)
			}
		}
	}
	ref := a[0].Env
	for _, r := range append(append([]resultFile(nil), a...), b...) {
		e := r.Env
		switch {
		case e.GoVersion != ref.GoVersion:
			return fmt.Errorf("go version %s vs %s", ref.GoVersion, e.GoVersion)
		case e.NProc != ref.NProc:
			return fmt.Errorf("nproc %d vs %d", ref.NProc, e.NProc)
		case e.GOMAXPROCS != ref.GOMAXPROCS:
			return fmt.Errorf("GOMAXPROCS %d vs %d", ref.GOMAXPROCS, e.GOMAXPROCS)
		case e.CPUModel != ref.CPUModel:
			return fmt.Errorf("CPU model %q vs %q", ref.CPUModel, e.CPUModel)
		}
	}
	return nil
}

type sideStats struct{ med, q1, q3 float64 }

type cell struct {
	workload, metric string
	a, b             sideStats
	// delta is how much worse b's median is than a's, as a share of a's
	// (negative when b is better).
	delta       float64
	wins, pairs int
	verdict     string
}

func statsOf(xs []float64) sideStats {
	q := quartiles(xs)
	return sideStats{med: median(xs), q1: q[0], q3: q[2]}
}

// compareResults pairs the i-th run of each side per workload and judges
// every workload × end-to-end metric: improved only when b wins at least
// nine tenths of at least minPairs pairs and the medians differ by more
// than a's interquartile range; unresolved when either side's spread
// exceeds the bound, unless every b run beats every a run; regressed when
// b's median is worse by more than the bound.
//
// Failed ops are judged on their own row per workload: b regresses when
// its paired runs fail more units of work than a's, and then no metric of
// that workload counts as improved.
func compareResults(ra, rb []resultFile, metrics []specMetric) []cell {
	byWorkload := func(rs []resultFile) map[string][]resultFile {
		m := map[string][]resultFile{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	wa, wb := byWorkload(ra), byWorkload(rb)
	var names []string
	for w := range wa {
		if len(wb[w]) > 0 {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	var out []cell
	for _, w := range names {
		n := min(len(wa[w]), len(wb[w]))
		fails := cell{workload: w, metric: "failed", pairs: n, verdict: verdictNoWorse}
		var fa, fb []float64
		for i := 0; i < n; i++ {
			fa, fb = append(fa, float64(wa[w][i].Summary.Failed)), append(fb, float64(wb[w][i].Summary.Failed))
		}
		fails.a, fails.b = statsOf(fa), statsOf(fb)
		moreFailures := mean(fb) > mean(fa) // both over the same n pairs
		if moreFailures {
			fails.verdict = verdictRegressed
		}
		for _, m := range metrics {
			var xa, xb []float64
			for i := 0; i < n; i++ {
				va, okA := wa[w][i].Summary.Metrics[m.Name]
				vb, okB := wb[w][i].Summary.Metrics[m.Name]
				if okA && okB {
					xa, xb = append(xa, va.Value), append(xb, vb.Value)
				}
			}
			if len(xa) == 0 {
				continue
			}
			c := judge(w, m, xa, xb)
			if moreFailures && c.verdict == verdictImproved {
				c.verdict = verdictNoWorse
			}
			out = append(out, c)
		}
		out = append(out, fails)
	}
	return out
}

func judge(workload string, m specMetric, xa, xb []float64) cell {
	lower := m.Better != "higher"
	worse := func(x, ref float64) float64 { // how much worse x is than ref
		if lower {
			return ratio(x-ref, ref)
		}
		return ratio(ref-x, ref)
	}
	c := cell{workload: workload, metric: m.Name, a: statsOf(xa), b: statsOf(xb), pairs: len(xa)}
	for i := range xa {
		if worse(xb[i], xa[i]) < 0 {
			c.wins++
		}
	}
	c.delta = worse(c.b.med, c.a.med)
	spread := max(ratio(c.a.q3-c.a.q1, c.a.med), ratio(c.b.q3-c.b.q1, c.b.med))
	allBetter := true
	for _, x := range xb {
		for _, y := range xa {
			if worse(x, y) >= 0 {
				allBetter = false
			}
		}
	}
	gain := -c.delta * c.a.med // b's median better than a's, in the metric's unit
	switch {
	case c.pairs >= minPairs && 10*c.wins >= 9*c.pairs && gain > c.a.q3-c.a.q1:
		c.verdict = verdictImproved
	case spread > m.Bound && !allBetter:
		c.verdict = verdictUnresolved
	case c.delta > m.Bound:
		c.verdict = verdictRegressed
	default:
		c.verdict = verdictNoWorse
	}
	return c
}

// quartiles returns the three quartile cut points of xs by the exclusive
// method, the same numbers Python's statistics.quantiles(xs, n=4) gives.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	var q [3]float64
	switch len(d) {
	case 0:
		return q
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}
