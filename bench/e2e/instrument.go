package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"videodvfs/internal/experiments"
	"videodvfs/internal/fleet"
	"videodvfs/internal/server"
	"videodvfs/internal/sim"
)

// envelopeCodes are the error codes dvfsd and dvfsctl document for their
// {"error":{"code","message"}} envelope.
var envelopeCodes = map[string]bool{
	server.CodeBadRequest: true, server.CodeInvalidConfig: true, server.CodeOverloaded: true,
	server.CodeHorizonExceeded: true, server.CodeNotFound: true, server.CodeDraining: true,
	server.CodeTooLarge: true, server.CodeInternal: true, fleet.CodeNoWorkers: true,
}

// checkEnvelope verifies that a non-2xx body is one documented envelope.
func checkEnvelope(status int, body []byte) error {
	var env struct {
		Error *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil || env.Error == nil {
		return fmt.Errorf("status %d without an error envelope: %.120q", status, body)
	}
	if !envelopeCodes[env.Error.Code] {
		return fmt.Errorf("status %d with undocumented code %q", status, env.Error.Code)
	}
	return nil
}

// serviceConfig is the dvfsd configuration the benchmark serves with: the
// defaults but for two bounds.
//
// The admission queue has room for eight 8-point sweeps, so admission
// control never bounces a request of these workloads and every op can
// succeed. With the default queue, runs that arrive while a sweep fans
// out, and a controller's dispatches, meet 429s (README.md, leads).
//
// The result cache holds 16 MiB, which fleet-sweep fills within seconds.
// Its heap then stops growing with the number of sweeps a run completes,
// so peak_heap_mb does not read a faster host as a memory regression.
func serviceConfig() server.Config {
	return server.Config{Queue: 64, CacheBytes: 16 << 20}
}

// runBody mirrors dvfsd's cached /v1/run body, for comparing served bytes
// against a direct experiments.Run.
type runBody struct {
	Key    string                `json:"key"`
	Result experiments.RunResult `json:"result"`
}

// servedConfig resolves a run request exactly as dvfsd serves it: the
// request's config with the horizon the default server pins (its own
// default, capped at one virtual hour).
func servedConfig(req server.RunRequest) (experiments.RunConfig, error) {
	cfg, err := req.Config()
	if err != nil {
		return cfg, err
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = cfg.Duration*6 + 60*sim.Second
	}
	cfg.Horizon = min(cfg.Horizon, 3600*sim.Second)
	return cfg, nil
}

// simIdentity names one simulation on both sides of server.Config.Runner,
// so the benchmark can link a Runner call to the request that caused it.
type simIdentity struct {
	gov, net, dev, title, rung, abr string
	dur                             sim.Time
	seed                            int64
	traced                          bool
}

func identityOf(cfg experiments.RunConfig) simIdentity {
	return simIdentity{
		gov: string(cfg.Governor), net: string(cfg.Net), dev: cfg.Device.Name, title: cfg.Title.Name,
		rung: cfg.Rung.Name, abr: string(cfg.ABR), dur: cfg.Duration, seed: cfg.Seed, traced: cfg.Tracer != nil,
	}
}

type parentRef struct {
	id   int64
	kind string
}

// runnerTap is a server.Config.Runner that times each simulation's Reset
// and Finish on pooled arenas, exactly the work experiments.Run does.
type runnerTap struct {
	spans *spanLog
	pool  sync.Pool

	mu      sync.Mutex
	parents map[simIdentity]parentRef
}

func newRunnerTap(spans *spanLog) *runnerTap {
	return &runnerTap{
		spans:   spans,
		pool:    sync.Pool{New: func() any { return experiments.NewSession() }},
		parents: map[simIdentity]parentRef{},
	}
}

// expect records that the request span id of the given kind asked for cfg.
func (t *runnerTap) expect(cfg experiments.RunConfig, id int64, kind string) {
	t.mu.Lock()
	t.parents[identityOf(cfg)] = parentRef{id, kind}
	t.mu.Unlock()
}

func (t *runnerTap) run(cfg experiments.RunConfig) (experiments.RunResult, error) {
	t.mu.Lock()
	parent := t.parents[identityOf(cfg)]
	t.mu.Unlock()
	s := t.pool.Get().(*experiments.Session)
	id := t.spans.id()
	var res experiments.RunResult
	t0 := time.Now()
	err := s.Reset(cfg)
	t1 := time.Now()
	if err == nil {
		err = s.Finish(&res)
	}
	t2 := time.Now()
	t.pool.Put(s)
	t.spans.record(0, id, parent.id, "experiments.reset", t0, t1, "", 0)
	t.spans.record(0, id, parent.id, "experiments.finish", t1, t2, "", int64(res.QoE.TotalFrames))
	t.spans.record(id, parent.id, parent.id, "server.simulate", t0, t2, parent.kind, 0)
	if err != nil {
		return experiments.RunResult{}, err
	}
	return res, nil
}

// serverLayers fills the per-layer metrics both service workloads read
// from dvfsd spans: handler time of /v1/run hits and misses, and the
// Runner seam's simulate, reset and finish spans. runSim are the simulate
// spans /v1/run misses caused; the misses' mean beyond them is the
// service's own overhead.
func serverLayers(out map[string]float64, spans []span, runSim []float64) {
	hits := durations(spans, "server.run", "hit")
	misses := durations(spans, "server.run", "miss")
	out["server.hit_us_p50"] = 1e3 * quantile(hits, 0.5)
	out["server.hit_us_p99"] = 1e3 * quantile(hits, 0.99)
	out["server.miss_ms_p50"] = quantile(misses, 0.5)
	out["server.miss_ms_p99"] = quantile(misses, 0.99)
	out["server.simulate_ms_p50"] = quantile(durations(spans, "server.simulate", ""), 0.5)
	out["server.overhead_us_mean"] = 1e3 * (mean(misses) - mean(runSim))
	out["experiments.reset_us_p50"] = 1e3 * median(durations(spans, "experiments.reset", ""))
	out["experiments.finish_us_p50"] = 1e3 * median(durations(spans, "experiments.finish", ""))
}

// cacheCounts are dvfsd's result-cache hits, misses and coalesced
// lookups, as Server.CacheStats reports them.
type cacheCounts [3]int64

func (c cacheCounts) plus(d cacheCounts) cacheCounts {
	return cacheCounts{c[0] + d[0], c[1] + d[1], c[2] + d[2]}
}

func (c cacheCounts) minus(d cacheCounts) cacheCounts {
	return cacheCounts{c[0] - d[0], c[1] - d[1], c[2] - d[2]}
}

// cacheShares fills the hit and coalesced shares of the lookups in d.
func cacheShares(out map[string]float64, d cacheCounts) {
	total := float64(d[0] + d[1] + d[2])
	out["server.hit_ratio"] = ratio(float64(d[0]), total)
	out["server.coalesced_share"] = ratio(float64(d[2]), total)
}

// scrape fetches a handler's Prometheus-style /metrics text in process.
func scrape(h http.Handler) string {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.String()
}

// scrapeValue sums every sample of the named metric (across labels).
func scrapeValue(text, name string) float64 {
	var sum float64
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		if f[0] == name || strings.HasPrefix(f[0], name+"{") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				sum += v
			}
		}
	}
	return sum
}

// sampler calls fn every period until stopped, from one goroutine.
type sampler struct {
	stopc, done chan struct{}
}

func startSampler(period time.Duration, fn func()) *sampler {
	s := &sampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return s
}

// stop returns once the sampling goroutine has exited.
func (s *sampler) stop() {
	close(s.stopc)
	<-s.done
}
