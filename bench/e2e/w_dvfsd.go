package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"videodvfs/internal/cpu"
	"videodvfs/internal/experiments"
	"videodvfs/internal/server"
	"videodvfs/internal/video"
)

// dvfsd-mixed calibration. The three open-loop steps run at fixed rates;
// the mix is 70% hot /v1/run over hotConfigs configs warmed in set-up, 22%
// cold /v1/run, 5% cold 8-point /v1/sweep and 3% /v1/run?trace=jsonl. Cold
// requests draw seeds from a coldSeeds-wide range, so generation runs on a
// seed's first use and the stream memo stays bounded.
//
// op_p50_ms is the median of the cold /v1/run requests, every one a cache
// miss, of the first step. Over all requests the latency has two modes,
// hits near 0.2 ms and the rest in milliseconds, and only about half of
// the requests finish inside the hit mode, so that median moved between
// 0.2 and 0.6 ms from run to run. The misses form one mode and carry the
// work the service exists for: admission, generation on a seed's first
// use, simulation and encoding, while waiting behind everything else. The
// higher steps come close to capacity when the host slows, and queueing
// then doubled their misses' median; the first step stays well below it.
var mixedRates = [3]float64{200, 400, 600}

const (
	hotConfigs    = 64
	coldSeeds     = 512
	sampledKeys   = 16
	mixedP99Limit = 50 * time.Millisecond
	mixedLateP99  = 5 * time.Millisecond
)

type mixKind int

const (
	kindHot mixKind = iota
	kindCold
	kindSweep
	kindTrace
)

var kindNames = [...]string{"hot", "cold", "sweep", "trace"}

// spanNames name each kind's handler span; hot and cold requests share
// /v1/run and differ only in the cache outcome the span records.
var spanNames = [...]string{"server.run", "server.run", "server.sweep", "server.trace"}

type mixedReq struct {
	kind    mixKind
	path    string
	body    []byte
	cfgs    []experiments.RunConfig // the simulations the request asks for
	content float64
}

type reqOutcome struct {
	status int
	cache  string
	sum    [32]byte // of a /v1/run body, for the byte-identity check
	bytes  int
	serve  time.Duration
	ok     bool
	// body is kept only where a check needs it after the window.
	body []byte
}

// dvfsdMixed drives an in-process dvfsd handler (no sockets) with an open
// loop of Poisson arrivals, each request on its own goroutine at its due
// time, in three fixed-rate steps.
type dvfsdMixed struct {
	srv  *server.Server
	h    http.Handler
	tap  *runnerTap
	rng  *rand.Rand
	lo   int64
	hot  []server.RunRequest
	warm [][]byte // warm-up bodies of the hot configs

	reqs     []mixedReq
	dues     []time.Duration
	steps    [3][2]time.Duration
	ts       []timing
	outs     []reqOutcome
	stepStat []stepStats

	// traced-run counters
	queue              []float64
	c0, c1             cacheCounts
	rejected0, reject1 float64
}

func (w *dvfsdMixed) randomRun() server.RunRequest {
	r := w.rng
	net := experiments.SyntheticNetKinds()[r.Intn(4)]
	req := server.RunRequest{
		Governor:  string(sweepGovernors[r.Intn(len(sweepGovernors))]),
		Net:       string(net),
		Device:    cpu.Devices()[r.Intn(3)].Name,
		Title:     video.Titles()[r.Intn(3)].Name,
		ABR:       string(sweepABRs[r.Intn(len(sweepABRs))]),
		DurationS: contentDur.Seconds(),
		Seed:      w.lo + r.Int63n(coldSeeds),
	}
	if req.ABR == string(experiments.ABRFixed) {
		rungs := sustained[net]
		req.Rung = rungs[r.Intn(len(rungs))].Name
	}
	return req
}

func (w *dvfsdMixed) runReq(kind mixKind, rr server.RunRequest) (mixedReq, error) {
	body, err := json.Marshal(rr)
	if err != nil {
		return mixedReq{}, err
	}
	cfg, err := servedConfig(rr)
	if err != nil {
		return mixedReq{}, err
	}
	path := "/v1/run"
	if kind == kindTrace {
		path = "/v1/run?trace=jsonl"
	}
	return mixedReq{kind: kind, path: path, body: body, cfgs: []experiments.RunConfig{cfg}, content: contentDur.Seconds()}, nil
}

func (w *dvfsdMixed) sweepReq() (mixedReq, error) {
	base := w.randomRun()
	govs := w.rng.Perm(len(sweepGovernors))[:2]
	sr := server.SweepRequest{Base: base}
	for _, g := range govs {
		sr.Governors = append(sr.Governors, string(sweepGovernors[g]))
	}
	for _, s := range w.rng.Perm(coldSeeds)[:4] {
		sr.Seeds = append(sr.Seeds, w.lo+int64(s))
	}
	sr.Base.Governor, sr.Base.Seed = "", 0
	body, err := json.Marshal(sr)
	if err != nil {
		return mixedReq{}, err
	}
	cfgs, err := sr.Configs()
	if err != nil {
		return mixedReq{}, err
	}
	return mixedReq{kind: kindSweep, path: "/v1/sweep", body: body, cfgs: cfgs, content: float64(len(cfgs)) * contentDur.Seconds()}, nil
}

func (w *dvfsdMixed) setup(b *bench) error {
	w.rng = rand.New(rand.NewSource(b.opt.seed))
	w.lo = 1 + w.rng.Int63n(1<<30)
	cfg := serviceConfig()
	if b.spans != nil {
		w.tap = newRunnerTap(b.spans)
		cfg.Runner = w.tap.run
	}
	w.srv = server.New(cfg)
	w.h = w.srv.Handler()
	for len(w.hot) < hotConfigs {
		w.hot = append(w.hot, w.randomRun())
	}
	for _, rr := range w.hot {
		req, err := w.runReq(kindHot, rr)
		if err != nil {
			return err
		}
		out, body := w.serve(req)
		if out.status != http.StatusOK {
			return fmt.Errorf("warming a hot config: status %d: %s", out.status, body)
		}
		w.warm = append(w.warm, body)
	}

	stepLen := b.window / 3
	for k, rate := range mixedRates {
		start := time.Duration(k) * stepLen
		w.steps[k] = [2]time.Duration{start, start + stepLen}
		for _, due := range poissonDues(w.rng.Float64, rate, start, start+stepLen) {
			var req mixedReq
			var err error
			switch p := w.rng.Float64(); {
			case p < 0.70:
				req, err = w.runReq(kindHot, w.hot[w.rng.Intn(hotConfigs)])
			case p < 0.92:
				req, err = w.runReq(kindCold, w.randomRun())
			case p < 0.97:
				req, err = w.sweepReq()
			default:
				req, err = w.runReq(kindTrace, w.randomRun())
			}
			if err != nil {
				return err
			}
			w.reqs = append(w.reqs, req)
			w.dues = append(w.dues, due)
		}
	}
	return nil
}

// serve issues one request to the in-process handler. The outcome keeps
// the body only where a check needs it after the window: failures and
// sweeps.
func (w *dvfsdMixed) serve(req mixedReq) (reqOutcome, []byte) {
	rec := httptest.NewRecorder()
	hr := httptest.NewRequest(http.MethodPost, req.path, bytes.NewReader(req.body))
	t0 := time.Now()
	w.h.ServeHTTP(rec, hr)
	out := reqOutcome{status: rec.Code, cache: rec.Header().Get("X-Dvfsd-Cache"), serve: time.Since(t0)}
	body := rec.Body.Bytes()
	out.bytes = len(body)
	out.ok = rec.Code == http.StatusOK
	switch {
	case !out.ok:
		out.body = body
	case req.kind == kindHot || req.kind == kindCold:
		out.sum = sha256.Sum256(body)
	case req.kind == kindSweep:
		out.body = body
		bad, _ := sweepFailures(body, len(req.cfgs))
		out.ok = bad == 0
	case req.kind == kindTrace:
		// A traced run streams events and closes with one result line; a
		// failure after the headers surfaces as a final envelope line.
		last := body[bytes.LastIndexByte(bytes.TrimRight(body, "\n"), '\n')+1:]
		if !bytes.Contains(last, []byte(`"ev":"result"`)) {
			out.ok = false
			out.body = last
			out.status = 0 // the envelope travels in-band, after a 200
		}
	}
	return out, body
}

func (w *dvfsdMixed) run(b *bench) (windowResult, error) {
	res := windowResult{offered: true}
	w.ts = make([]timing, len(w.reqs))
	w.outs = make([]reqOutcome, len(w.reqs))
	var scrapes *sampler
	if b.spans != nil {
		w.c0 = w.cacheStats()
		w.rejected0 = scrapeValue(scrape(w.h), "dvfsd_requests_rejected_total")
		scrapes = startSampler(100*time.Millisecond, func() {
			w.queue = append(w.queue, scrapeValue(scrape(w.h), "dvfsd_queue_depth"))
		})
	}
	s, err := newSleeper()
	if err != nil {
		return res, err
	}
	defer s.close()
	var wg sync.WaitGroup
	wg.Add(len(w.reqs))
	wc := startWindow()
	clk := wallClock{t0: wc.start, s: s}
	issueOpenLoop(clk, w.dues, func(i int, sent time.Duration) {
		defer wg.Done()
		req := w.reqs[i]
		var id int64
		if b.spans != nil {
			id = b.spans.id()
			for _, cfg := range req.cfgs {
				w.tap.expect(cfg, id, kindNames[req.kind])
			}
		}
		out, _ := w.serve(req)
		done := clk.now()
		w.outs[i] = out
		w.ts[i] = timing{due: w.dues[i], sent: sent, done: done, ok: out.ok}
		if b.spans != nil {
			start := wc.start.Add(done - out.serve)
			b.spans.record(id, 0, id, spanNames[req.kind], start, wc.start.Add(done), out.cache, int64(out.bytes))
			b.spans.record(0, id, id, "request", wc.start.Add(w.dues[i]), wc.start.Add(done), "", int64(i))
		}
	})
	wg.Wait()
	wc.finish(&res)
	if scrapes != nil {
		scrapes.stop()
		w.c1 = w.cacheStats()
		w.reject1 = scrapeValue(scrape(w.h), "dvfsd_requests_rejected_total")
	}

	lim := stepLimits{p99FromDue: mixedP99Limit, lateP99: mixedLateP99}
	for k, rate := range mixedRates {
		st := accountStep(w.ts, rate, w.steps[k][0], w.steps[k][1], lim)
		w.stepStat = append(w.stepStat, st)
		p := fmt.Sprintf("step%d.", k+1)
		res.info = append(res.info,
			line{p + "rate", rate, "1/s"}, line{p + "requests", float64(st.n), "count"},
			line{p + "p50_ms", st.p50, "ms"}, line{p + "p99_ms", st.p99, "ms"},
			line{p + "late_p50_ms", st.lateP50, "ms"}, line{p + "late_p99_ms", st.lateP99, "ms"},
			line{p + "backlog_mid", float64(st.backlogMid), "count"}, line{p + "backlog_end", float64(st.backlogEnd), "count"},
			line{p + "meets_limits", boolValue(st.meets), "bool"})
	}
	for i, t := range w.ts {
		if w.reqs[i].kind == kindCold && t.due < w.steps[0][1] {
			res.timed = append(res.timed, opSpan{wc.start.Add(t.due), wc.start.Add(t.done), t.ok})
		}
	}
	res.info = append(res.info, line{"max_rate_rps", maxRate(w.stepStat), "1/s"})
	for i, t := range w.ts {
		res.attempted++
		if !t.ok {
			res.fail(1, fmt.Errorf("request %d (%s): status %d: %.200s", i, kindNames[w.reqs[i].kind], w.outs[i].status, w.outs[i].body))
			continue
		}
		res.ops++
		res.contentS += w.reqs[i].content
	}
	return res, nil
}

func boolValue(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

func (w *dvfsdMixed) cacheStats() cacheCounts {
	h, m, c := w.srv.CacheStats()
	return cacheCounts{h, m, c}
}

func (w *dvfsdMixed) check(b *bench) []error {
	var errs []error
	// Every 200 body served for one run request — miss or hit — must be
	// byte-identical, warm-up bodies included.
	bodies := map[string][32]byte{}
	same := func(key string, sum [32]byte) {
		if prev, ok := bodies[key]; ok && prev != sum {
			errs = append(errs, fmt.Errorf("dvfsd-mixed: two different bodies for request %s", key))
		}
		bodies[key] = sum
	}
	for i, rr := range w.hot {
		body, _ := json.Marshal(rr)
		same(string(body), sha256.Sum256(w.warm[i]))
	}
	for i, out := range w.outs {
		if out.status != http.StatusOK {
			// Status 0 marks a trace stream that ended in an in-band envelope.
			if err := checkEnvelope(out.status, out.body); err != nil {
				errs = append(errs, fmt.Errorf("dvfsd-mixed request %d: %w", i, err))
			}
			continue
		}
		if k := w.reqs[i].kind; k == kindHot || k == kindCold {
			same(string(w.reqs[i].body), out.sum)
		}
	}
	// Sampled keys must equal the JSON of a direct experiments.Run.
	for i := 0; i < sampledKeys && i < len(w.hot); i++ {
		cfg, err := servedConfig(w.hot[i])
		if err != nil {
			errs = append(errs, err)
			continue
		}
		key, _ := experiments.ConfigKey(cfg)
		res, err := experiments.Run(cfg)
		if err != nil {
			errs = append(errs, fmt.Errorf("dvfsd-mixed direct run of hot config %d: %w", i, err))
			continue
		}
		want, err := json.Marshal(runBody{Key: key, Result: res})
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if !bytes.Equal(want, w.warm[i]) {
			errs = append(errs, fmt.Errorf("dvfsd-mixed: hot config %d served bytes differ from a direct experiments.Run", i))
		}
	}
	return errs
}

// sweepFailures counts the points of an n-point sweep response that did
// not succeed (all n when the body is malformed), with the first reason.
func sweepFailures(body []byte, n int) (int, error) {
	var sw struct {
		Count    int `json:"count"`
		Outcomes []struct {
			Run   json.RawMessage `json:"run"`
			Error string          `json:"error"`
		} `json:"outcomes"`
	}
	if err := json.Unmarshal(body, &sw); err != nil {
		return n, fmt.Errorf("sweep body: %w", err)
	}
	if sw.Count != n || len(sw.Outcomes) != n {
		return n, fmt.Errorf("sweep body holds %d/%d outcomes, want %d", sw.Count, len(sw.Outcomes), n)
	}
	bad := 0
	var first error
	for i, o := range sw.Outcomes {
		if o.Error != "" || len(o.Run) == 0 {
			bad++
			if first == nil {
				first = fmt.Errorf("sweep point %d failed: %q", i, o.Error)
			}
		}
	}
	return bad, first
}

func (w *dvfsdMixed) outputDigest() string { return digestOf(w.warm...) }

func (w *dvfsdMixed) layers(b *bench, res windowResult) map[string]float64 {
	spans := b.spans.snapshot()
	out := map[string]float64{}
	var runSim []float64 // the simulations /v1/run misses caused
	runSim = append(runSim, durations(spans, "server.simulate", "hot")...)
	runSim = append(runSim, durations(spans, "server.simulate", "cold")...)
	serverLayers(out, spans, runSim)
	out["server.sweep_ms_p50"] = quantile(durations(spans, "server.sweep", ""), 0.5)
	out["server.trace_ms_p50"] = quantile(durations(spans, "server.trace", ""), 0.5)
	var traceBytes []float64
	for _, s := range spans {
		if s.Name == "server.trace" {
			traceBytes = append(traceBytes, float64(s.N))
		}
	}
	out["trace.bytes_per_run"] = mean(traceBytes)
	cacheShares(out, w.c1.minus(w.c0))
	out["server.overloaded_share"] = ratio(w.reject1-w.rejected0, float64(res.attempted))
	out["server.queue_depth_mean"] = mean(w.queue)
	return out
}

func (w *dvfsdMixed) close() {
	if w.srv != nil {
		w.srv.Shutdown(context.Background())
	}
}
