package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"videodvfs/internal/experiments"
	"videodvfs/internal/fleet"
	"videodvfs/internal/server"
	"videodvfs/internal/video"
)

const (
	fleetWorkers = 2
	// fleetPoints is the size of each sweep: 4 governors × 4 nets × 4 seeds.
	fleetPoints = 64
	// fleetSeeds is the content-seed pool; op i sweeps group i mod 4.
	fleetSeeds = 16
	// fleetHorizonS is the first fresh sweep's horizon cap, in virtual
	// seconds: the run's own default, which every point finishes well
	// inside. Op i caps at fleetHorizonS + i.
	fleetHorizonS = 240
	// fleetCheckEvery is how often an op's fresh sweep is kept for the
	// single-node comparison after the window: 1 sweep in 16.
	fleetCheckEvery = 8
	// digestSweeps is how many kept sweeps the digest covers: a fixed
	// number, so it does not depend on how many ops a run completes.
	digestSweeps = 4
)

// keptSweep is a sweep request and the SHA-256 of the fleet's answer.
type keptSweep struct {
	request []byte
	sum     [32]byte
}

var fleetGovernors = []string{string(experiments.GovEnergyAware), "ondemand", "interactive", "schedutil"}

// fleetSweep is a closed loop of one client, over one loopback connection,
// posting 64-point sweeps to a dvfsctl controller in front of two dvfsd
// workers. Each op is a fresh sweep followed by the same sweep again,
// whose points hit the owning workers' caches. Timing the pair keeps
// op_p50_ms off the gap between the miss and hit modes, where a median of
// single sweeps would flip from run to run.
//
// A fresh sweep differs from every earlier one only in its horizon cap,
// which changes each point's content address and no simulated event. So
// every fresh point is a cache miss doing the same work, and the stream
// memos stay at the 16 seeds: memory does not grow with the number of ops
// a faster host completes.
type fleetSweep struct {
	servers []*server.Server
	workers []*httptest.Server
	ctrl    *fleet.Controller
	cts     *httptest.Server
	client  *http.Client
	seeds   []int64
	kept    []keptSweep // every fleetCheckEvery-th op's fresh sweep
	sweeps  int64
	digest  string
	// repeatDiffers counts repeated sweeps whose bytes differ from the
	// fresh answer.
	repeatDiffers int

	// traced-run state
	tap                  *runnerTap
	inflight, inflightHi atomic.Int64
	retries0, retries1   float64
	cache0, cache1       []cacheCounts // per worker, at the window edges
}

func (w *fleetSweep) cacheStats() []cacheCounts {
	var out []cacheCounts
	for _, srv := range w.servers {
		h, m, c := srv.CacheStats()
		out = append(out, cacheCounts{h, m, c})
	}
	return out
}

// sweepSpanKey carries the controller-side sweep span ID into the
// dispatches the controller makes on the request's context.
type sweepSpanKey struct{}

func (w *fleetSweep) setup(b *bench) error {
	rng := rand.New(rand.NewSource(b.opt.seed))
	for len(w.seeds) < fleetSeeds {
		w.seeds = append(w.seeds, 1+rng.Int63n(1<<30))
	}
	var urls []string
	addrs := map[string]string{}
	for i := 0; i < fleetWorkers; i++ {
		cfg := serviceConfig()
		if b.spans != nil {
			if w.tap == nil {
				w.tap = newRunnerTap(b.spans)
			}
			cfg.Runner = w.tap.run
		}
		srv := server.New(cfg)
		w.servers = append(w.servers, srv)
		h := srv.Handler()
		if b.spans != nil {
			h = workerTap(b.spans, h)
		}
		ts := httptest.NewServer(h)
		w.workers = append(w.workers, ts)
		// Fixed worker names keep the consistent-hash ring, which hashes
		// the worker URLs, the same in every run; the random loopback
		// ports would otherwise reshuffle it.
		name := fmt.Sprintf("worker%d.bench:80", i)
		addrs[name] = ts.Listener.Addr().String()
		urls = append(urls, "http://"+name)
	}
	// The transport keeps an idle connection per in-flight dispatch: the
	// controller's default concurrency is 4 per worker, and any one worker
	// may hold all of it. Go's default keeps two per host, and the rest
	// would reconnect on every dispatch.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 4 * fleetWorkers
	var dialer net.Dialer
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if real, ok := addrs[addr]; ok {
			addr = real
		}
		return dialer.DialContext(ctx, network, addr)
	}
	var rt http.RoundTripper = tr
	if b.spans != nil {
		rt = &dispatchTap{spans: b.spans, w: w, base: tr}
	}
	ctrl, err := fleet.New(fleet.Config{Workers: urls, Client: &http.Client{Transport: rt}})
	if err != nil {
		return err
	}
	w.ctrl = ctrl
	h := ctrl.Handler()
	if b.spans != nil {
		h = sweepTap(b.spans, h)
	}
	w.cts = httptest.NewServer(h)
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	// One sweep of every seed group opens the connections, generates the
	// streams and bandwidth traces, and warms the handlers; its horizon is
	// below every op's.
	for g := 0; g < fleetSeeds/4; g++ {
		if _, err := w.post(w.request(g, -1)); err != nil {
			return err
		}
	}
	return nil
}

// request builds op i's 64-point sweep: 4 governors × 4 nets × the 4
// seeds of group g, 30 s sports content pinned at 480p (a rung every net
// sustains), capped at the op's own horizon.
func (w *fleetSweep) request(g, i int) []byte {
	var nets []string
	for _, n := range experiments.SyntheticNetKinds() {
		nets = append(nets, string(n))
	}
	body, _ := json.Marshal(server.SweepRequest{ // strings and numbers only: cannot fail
		Base: server.RunRequest{
			Title: video.TitleSports.Name, Rung: video.R480p.Name,
			DurationS: contentDur.Seconds(), HorizonS: float64(fleetHorizonS + i),
		},
		Governors: fleetGovernors,
		Nets:      nets,
		Seeds:     w.seeds[4*g : 4*g+4],
	})
	return body
}

func (w *fleetSweep) post(body []byte) ([]byte, error) {
	resp, err := w.client.Post(w.cts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return data, fmt.Errorf("sweep status %d: %.200s", resp.StatusCode, data)
	}
	return data, nil
}

func (w *fleetSweep) run(b *bench) (windowResult, error) {
	var res windowResult
	if b.spans != nil {
		w.retries0 = scrapeValue(scrape(w.ctrl.Handler()), "dvfsctl_worker_retries_total")
		w.cache0 = w.cacheStats()
	}
	var fresh, repeat []float64
	wc := startWindow()
	for i := 0; !wc.over(b.window); i++ {
		body := w.request(i%(fleetSeeds/4), i)
		t0 := time.Now()
		first, err := w.post(body)
		t1 := time.Now()
		var again []byte
		if err == nil {
			again, err = w.post(body)
		}
		t2 := time.Now()
		if b.spans != nil {
			op := b.spans.id()
			b.spans.record(0, op, op, "sweep", t0, t1, "fresh", 0)
			b.spans.record(0, op, op, "sweep", t1, t2, "repeat", 0)
			b.spans.record(op, 0, op, "op", t0, t2, "", int64(i))
		}
		res.attempted += 2 * fleetPoints
		w.sweeps += 2
		if err != nil {
			res.timed = append(res.timed, opSpan{t0, t2, false})
			res.fail(2*fleetPoints, fmt.Errorf("op %d: %w", i, err))
			continue
		}
		bad1, err1 := sweepFailures(first, fleetPoints)
		bad2, err2 := sweepFailures(again, fleetPoints)
		res.timed = append(res.timed, opSpan{t0, t2, bad1+bad2 == 0})
		if bad1+bad2 > 0 {
			res.fail(int64(bad1+bad2), fmt.Errorf("op %d: %v, %v", i, err1, err2))
			continue
		}
		if !bytes.Equal(first, again) {
			w.repeatDiffers++
		}
		res.ops++
		res.contentS += 2 * fleetPoints * contentDur.Seconds()
		fresh, repeat = append(fresh, ms(t1.Sub(t0))), append(repeat, ms(t2.Sub(t1)))
		if i%fleetCheckEvery == 0 {
			w.kept = append(w.kept, keptSweep{body, sha256.Sum256(first)})
		}
	}
	wc.finish(&res)
	if b.spans != nil {
		w.retries1 = scrapeValue(scrape(w.ctrl.Handler()), "dvfsctl_worker_retries_total")
		w.cache1 = w.cacheStats()
	}
	res.info = append(res.info,
		line{"sweep_fresh_p50_ms", median(fresh), "ms"},
		line{"sweep_repeat_p50_ms", median(repeat), "ms"})
	return res, nil
}

func (w *fleetSweep) check(b *bench) []error {
	var errs []error
	if w.repeatDiffers > 0 {
		errs = append(errs, fmt.Errorf("fleet-sweep: %d repeated sweeps differ from their first answer", w.repeatDiffers))
	}
	// The merged body must be byte-identical to one dvfsd's answer.
	single := server.New(serviceConfig())
	defer single.Shutdown(context.Background())
	var sums [][]byte
	for i, k := range w.kept {
		rec := httptest.NewRecorder()
		single.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(k.request)))
		if rec.Code != http.StatusOK || sha256.Sum256(rec.Body.Bytes()) != k.sum {
			errs = append(errs, fmt.Errorf("fleet-sweep: kept sweep %d differs from the single-node /v1/sweep (status %d)", i, rec.Code))
		}
		if i < digestSweeps {
			sums = append(sums, k.sum[:])
		}
	}
	if len(w.kept) == 0 {
		errs = append(errs, fmt.Errorf("fleet-sweep: no sweep completed"))
	}
	w.digest = digestOf(sums...)
	return errs
}

func (w *fleetSweep) outputDigest() string { return w.digest }

func (w *fleetSweep) layers(b *bench, res windowResult) map[string]float64 {
	spans := b.spans.snapshot()
	out := map[string]float64{}
	dispatch := durations(spans, "fleet.dispatch", "")
	out["fleet.dispatch_ms_p50"] = quantile(dispatch, 0.5)
	out["fleet.dispatch_ms_p99"] = quantile(dispatch, 0.99)
	out["fleet.dispatch_inflight_max"] = float64(w.inflightHi.Load())

	// fanout gap: controller sweep time not covered by the dispatch window.
	type window struct{ first, last int64 }
	fan := map[int64]*window{}
	var hits, misses, overloaded, depth float64
	for _, s := range spans {
		if s.Name != "fleet.dispatch" {
			continue
		}
		f := fan[s.Parent]
		if f == nil {
			f = &window{s.Start, s.End}
			fan[s.Parent] = f
		}
		f.first, f.last = min(f.first, s.Start), max(f.last, s.End)
		depth += float64(s.N)
		switch s.Attr {
		case "hit":
			hits++
		case "miss", "coalesced":
			misses++
		case "429":
			overloaded++
		}
	}
	var gaps []float64
	for _, s := range spans {
		if s.Name == "fleet.sweep" {
			if f := fan[s.ID]; f != nil {
				gaps = append(gaps, ms(s.dur()-time.Duration(f.last-f.first)))
			}
		}
	}
	out["fleet.fanout_gap_ms_p50"] = quantile(gaps, 0.5)
	sweeps := float64(max(w.sweeps, 1))
	out["fleet.retries_per_sweep"] = (w.retries1 - w.retries0) / sweeps
	out["fleet.overloaded_per_sweep"] = overloaded / sweeps
	out["fleet.worker_hit_ratio"] = ratio(hits, hits+misses)
	out["server.queue_depth_mean"] = ratio(depth, float64(len(dispatch)))

	// Each worker's own cache counters: lookups per worker give the ring's
	// balance, their sum the workers' hit and coalesced shares.
	var lookups []float64
	var all cacheCounts
	for i := range w.servers {
		d := w.cache1[i].minus(w.cache0[i])
		lookups = append(lookups, float64(d[0]+d[1]+d[2]))
		all = all.plus(d)
	}
	out["fleet.dispatch_imbalance"] = ratio(quantile(lookups, 1), mean(lookups))
	cacheShares(out, all)
	// Every worker simulation serves a /v1/run miss: fleets send no other
	// simulating request.
	serverLayers(out, spans, durations(spans, "server.simulate", ""))
	return out
}

func (w *fleetSweep) close() {
	if w.cts != nil {
		w.cts.Close()
	}
	if w.ctrl != nil {
		w.ctrl.Shutdown(context.Background())
	}
	for _, ts := range w.workers {
		ts.Close()
	}
	for _, srv := range w.servers {
		srv.Shutdown(context.Background())
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}

// sweepTap wraps the controller's handler: it records each sweep's span
// and hands the span ID to the dispatches through the request context.
func sweepTap(spans *spanLog, h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		id := spans.id()
		t0 := time.Now()
		h.ServeHTTP(rw, r.WithContext(context.WithValue(r.Context(), sweepSpanKey{}, id)))
		spans.record(id, 0, id, "fleet.sweep", t0, time.Now(), "", 0)
	})
}

// spanHeader carries a dispatch span ID to the worker, which ignores it.
const spanHeader = "X-Bench-Span"

// dispatchTap is the controller's worker transport: it times each
// dispatch from request to the end of its body and tallies the worker's
// cache outcome and in-flight dispatches.
type dispatchTap struct {
	spans *spanLog
	w     *fleetSweep
	base  http.RoundTripper
}

func (t *dispatchTap) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method != http.MethodPost {
		return t.base.RoundTrip(r) // the controller's health probes
	}
	parent, _ := r.Context().Value(sweepSpanKey{}).(int64)
	id := t.spans.id()
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	n := t.w.inflight.Add(1)
	for hi := t.w.inflightHi.Load(); n > hi && !t.w.inflightHi.CompareAndSwap(hi, n); hi = t.w.inflightHi.Load() {
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.w.inflight.Add(-1)
		t.spans.record(id, parent, parent, "fleet.dispatch", t0, time.Now(), "error", 0)
		return nil, err
	}
	attr := resp.Header.Get("X-Dvfsd-Cache")
	if resp.StatusCode != http.StatusOK {
		attr = strconv.Itoa(resp.StatusCode)
	}
	depth, _ := strconv.ParseInt(resp.Header.Get("X-Dvfsd-Queue-Depth"), 10, 64)
	resp.Body = &timedBody{ReadCloser: resp.Body, end: func() {
		t.w.inflight.Add(-1)
		t.spans.record(id, parent, parent, "fleet.dispatch", t0, time.Now(), attr, depth)
	}}
	return resp, nil
}

// timedBody calls end once, when the body is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// workerTap wraps a dvfsd worker's handler and records each request's
// handler time under the dispatch that sent it.
func workerTap(spans *spanLog, h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		t0 := time.Now()
		h.ServeHTTP(rw, r)
		if r.URL.Path == "/v1/run" {
			spans.record(0, parent, parent, "server.run", t0, time.Now(), rw.Header().Get("X-Dvfsd-Cache"), 0)
		}
	})
}
