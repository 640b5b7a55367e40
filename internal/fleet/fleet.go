// Package fleet is the controller tier above a set of dvfsd workers: one
// service that accepts aggregate requests (batch sweeps, cohort runs),
// shards them across the fleet, and merges the responses into a single
// answer bit-identical to what one dvfsd would have produced.
//
// Routing is consistent hashing on the work's content-addressed identity
// (experiments.ConfigKey for sweep points, cohort.Key plus the shard
// index for cohort shards), so repeated traffic keeps each worker's
// result cache hot and the caches stay disjoint — the fleet's aggregate
// cache capacity is the sum of its workers', not N copies of one.
//
// Failure discipline: every dispatch retries with jittered exponential
// backoff; a worker accumulating consecutive failures is ejected from
// routing and its keys rehash onto the survivors (only its keys — the
// consistent-hash property), while a background health probe revives it
// on recovery. 429s from a worker are load, not death: the controller
// honors the worker's Retry-After and, if the backlog persists, passes
// the 429 through to the client with the hint clamped to ≥ 1 s.
//
// Each worker gets one request per aggregate: the points of a sweep, or
// the shards of a cohort, that it owns. Merging is deterministic: sweep
// outcomes are spliced in expansion index order and cohort partials
// folded in global shard index order — exactly the orders a single node
// uses — so the merged sweep body and the counter sums and
// quantile-sketch merges reproduce the single-node bytes (DESIGN.md §13).
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"videodvfs/internal/server"
)

// CodeNoWorkers is the fleet-specific envelope code for a request that
// could not be routed because every worker is ejected. HTTP 503.
// (All other codes mirror dvfsd's — see server.Code*.)
const CodeNoWorkers = "no_workers"

// errNoWorkers reports a routing attempt with zero alive workers.
var errNoWorkers = errors.New("fleet: no alive workers")

// Config tunes one Controller.
type Config struct {
	// Workers lists the dvfsd base URLs (e.g. "http://10.0.0.1:8080").
	// Required, order-stable: worker index is the merge identity.
	Workers []string
	// Concurrency bounds in-flight worker requests across the whole
	// controller (≤0 = 4×workers).
	Concurrency int
	// Timeout is the per-attempt request timeout (≤0 = 60 s). One attempt
	// carries a worker's whole share of a sweep or a cohort.
	Timeout time.Duration
	// Retries is how many times one dispatch re-attempts after a
	// transient failure, beyond the first try (<0 = 0, default 2).
	Retries int
	// Backoff is the base of the jittered exponential backoff between
	// attempts (≤0 = 100 ms).
	Backoff time.Duration
	// EjectAfter ejects a worker from routing after this many
	// consecutive failures (≤0 = 3).
	EjectAfter int
	// ProbeInterval is the health-probe cadence for ejected workers
	// (≤0 = 1 s).
	ProbeInterval time.Duration
	// MaxSweepRuns mirrors the workers' sweep-expansion cap (≤0 = 1024).
	MaxSweepRuns int
	// Client issues the worker requests and health probes (nil = a client
	// whose transport keeps Concurrency connections per worker, with the
	// probes on a pool of their own; the per-attempt timeout comes from
	// Timeout either way).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = 4 * len(c.Workers)
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.Backoff <= 0 {
		c.Backoff = 100 * time.Millisecond
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.MaxSweepRuns <= 0 {
		c.MaxSweepRuns = 1024
	}
	if c.Client == nil {
		// DefaultTransport keeps only 2 idle connections per host, so with
		// up to Concurrency dispatches in flight to one worker, every
		// burst would close and redial the rest. Capping the pool at
		// Concurrency too stops a dial that loses the race to a returning
		// idle connection from opening one more.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = c.Concurrency
		tr.MaxConnsPerHost = c.Concurrency
		if tr.MaxIdleConns < c.Concurrency {
			tr.MaxIdleConns = c.Concurrency
		}
		c.Client = &http.Client{Transport: tr}
	}
	return c
}

// Controller is the fleet service. Create with New, mount Handler, stop
// with Shutdown.
type Controller struct {
	cfg     Config
	workers []*worker
	ring    *ring
	sem     chan struct{}
	gate    server.Gate
	start   time.Time
	mux     *http.ServeMux
	stop    chan struct{}
	probed  chan struct{} // closed when the probe loop exits
	probes  *http.Client  // issues the /healthz probes
}

// New builds a Controller over cfg.Workers (all initially alive) and
// starts its health-probe loop.
func New(cfg Config) (*Controller, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("fleet: no workers configured")
	}
	probes := cfg.Client
	if probes == nil {
		// The default dispatch pool can have all of a worker's
		// connections busy with slow runs; a probe waiting there would
		// stall the sequential probe loop for every worker.
		probes = &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	}
	cfg = cfg.withDefaults()
	c := &Controller{
		cfg:    cfg,
		ring:   newRing(cfg.Workers),
		sem:    make(chan struct{}, cfg.Concurrency),
		start:  time.Now(),
		stop:   make(chan struct{}),
		probed: make(chan struct{}),
		probes: probes,
	}
	for _, u := range cfg.Workers {
		w := &worker{url: strings.TrimRight(u, "/")}
		w.alive.Store(true)
		c.workers = append(c.workers, w)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweep", c.handleSweep)
	mux.HandleFunc("POST /v1/cohort", c.handleCohort)
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux = mux
	go c.probeLoop()
	return c, nil
}

// Handler returns the controller's HTTP handler.
func (c *Controller) Handler() http.Handler { return c.mux }

// Shutdown stops admission (new requests get 503) and the probe loop.
// In-flight requests drain through the owning http.Server's Shutdown.
func (c *Controller) Shutdown(ctx context.Context) error {
	c.gate.Drain()
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	select {
	case <-c.probed:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ---- routing + dispatch ----

// pick routes key to its owning alive worker on the ring.
func (c *Controller) pick(key string) (*worker, bool) {
	wi, ok := c.ring.pick(key, func(i int) bool { return c.workers[i].alive.Load() })
	if !ok {
		return nil, false
	}
	return c.workers[wi], true
}

// wresp is one worker exchange's outcome: the worker that answered, the
// HTTP status, the parsed envelope on non-200s and the Retry-After hint
// on 429s (clamped ≥ 1). A 200's body went to the dispatch's accept.
type wresp struct {
	worker     string
	status     int
	code       string
	message    string
	retryAfter int
}

// dispatch routes one worker request (a sweep point group to
// /v1/sweep/part, a cohort shard group to /v1/cohort/part) by its
// content-addressed key and runs it to completion: per-attempt timeouts,
// retry with jittered exponential backoff pinned to the owning worker,
// and — when that worker gets ejected mid-dispatch — a rehash onto the
// survivors. Rehash rounds are bounded by the fleet size: each round
// requires an ejection, so the loop cannot cycle. accept checks and takes
// a 200's body; a body it refuses is the worker's failure, like a 5xx.
//
// The returned error is non-nil only for fleet-level failures (no alive
// workers, context canceled, all retries exhausted on transport errors,
// 5xx or refused bodies). Worker 4xx/429 responses return err == nil with
// the status in the wresp — the caller decides between embedding and
// passing through.
func (c *Controller) dispatch(ctx context.Context, key, path, query string, body []byte, accept func([]byte) error) (wresp, error) {
	var last wresp
	var lastErr error
	for round := 0; round <= len(c.workers); round++ {
		w, ok := c.pick(key)
		if !ok {
			return last, errNoWorkers
		}
		last, lastErr = c.post(ctx, w, path, query, body, accept)
		if lastErr == nil {
			return last, nil
		}
		if errors.Is(lastErr, context.Canceled) || errors.Is(lastErr, context.DeadlineExceeded) {
			return last, lastErr
		}
		if w.alive.Load() {
			// The worker survived its failure streak (not ejected): the
			// failure is not routable-around, so surface it.
			return last, lastErr
		}
		// Ejected: the ring now skips it; rehash onto the survivors.
	}
	return last, lastErr
}

// group is one request of a fan-out: the units of work (sweep points,
// cohort shards) one worker owns, in order, and how their dispatch ended.
type group struct {
	units []int
	resp  wresp
	err   error
}

// ok reports whether the group's worker answered 200 with a body accept
// took.
func (g *group) ok() bool { return g.err == nil && g.resp.status == http.StatusOK }

// fanOut sends n units of work across the fleet, the one fan-out of both
// aggregate handlers. Units group per alive worker owning key(i) on the
// ring, and each group goes out as one request through dispatch under its
// first unit's key, so a worker's part cache key is stable across
// identical requests, and when a group's worker is ejected mid-dispatch
// the whole group moves to the survivor owning that first key. body
// builds a group's request; accept checks a 200's body on the group's
// dispatch goroutine and keeps what it needs of it. The groups come back
// in order of first unit.
func (c *Controller) fanOut(ctx context.Context, n int, key func(int) string, path, query string,
	body func(units []int) ([]byte, error), accept func(units []int, data []byte) error) []group {
	var groups []group
	owned := make(map[*worker]int)
	for i := 0; i < n; i++ {
		// With no worker alive, the units group under nil, and their
		// dispatch fails with errNoWorkers unless one revives first.
		wk, _ := c.pick(key(i))
		gi, seen := owned[wk]
		if !seen {
			gi = len(groups)
			owned[wk] = gi
			groups = append(groups, group{})
		}
		groups[gi].units = append(groups[gi].units, i)
	}
	var wg sync.WaitGroup
	for gi := range groups {
		g := &groups[gi]
		data, err := body(g.units)
		if err != nil {
			g.err = err
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.resp, g.err = c.dispatch(ctx, key(g.units[0]), path, query, data,
				func(b []byte) error { return accept(g.units, b) })
		}()
	}
	wg.Wait()
	return groups
}

// post sends one request to a specific worker, retrying transient
// failures in place: 429s wait out the worker's Retry-After hint;
// transport errors, 5xx and bodies accept refuses back off exponentially
// with jitter and count toward the worker's ejection streak.
func (c *Controller) post(ctx context.Context, w *worker, path, query string, body []byte, accept func([]byte) error) (wresp, error) {
	var last wresp
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			w.retries.Add(1)
		}
		resp, err := c.exchange(ctx, w, path, query, body, accept)
		switch {
		case err == nil && resp.status != http.StatusTooManyRequests && resp.status < 500:
			// 2xx or a permanent 4xx: either way the worker answered
			// coherently, which resets its failure streak.
			w.ok()
			return resp, nil
		case err == nil && resp.status == http.StatusTooManyRequests:
			// Load, not death. Honor the hint (capped so one hot worker
			// cannot stall the controller arbitrarily), then re-attempt.
			w.ok()
			last, lastErr = resp, nil
			wait := time.Duration(resp.retryAfter) * time.Second
			if cap := 8 * c.cfg.Backoff; wait > cap {
				wait = cap
			}
			if serr := sleepCtx(ctx, wait); serr != nil {
				return last, serr
			}
		default: // transport error, 5xx or a refused body
			if err != nil {
				last, lastErr = wresp{}, fmt.Errorf("fleet: worker %s: %w", w.url, err)
			} else {
				last, lastErr = resp, fmt.Errorf("fleet: worker %s: status %d: %s", w.url, resp.status, resp.message)
			}
			if w.fail(int64(c.cfg.EjectAfter)) {
				return last, lastErr // ejected: let the caller rehash now
			}
			if serr := sleepCtx(ctx, c.backoff(attempt)); serr != nil {
				return last, serr
			}
		}
	}
	return last, lastErr
}

// exchange performs one round trip to w, hands a 200's body to accept,
// and folds the worker's response headers (queue depth, cache outcomes,
// Retry-After) into the worker's gauges and the wresp. The cache
// counters count what a 200 served, once accept took it: a cohort part's
// X-Dvfsd-Cache outcome, or each point a sweep part's
// X-Dvfsd-Cache-Points header counts.
func (c *Controller) exchange(ctx context.Context, w *worker, path, query string, body []byte, accept func([]byte) error) (wresp, error) {
	resp, data, err := c.roundTrip(ctx, w, path, query, body)
	if err != nil {
		return wresp{}, err
	}
	if qd := resp.Header.Get("X-Dvfsd-Queue-Depth"); qd != "" {
		if n, perr := strconv.Atoi(qd); perr == nil {
			w.queueDepth.Store(int64(n))
		}
	}
	out := wresp{worker: w.url, status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		if err := accept(data); err != nil {
			return wresp{}, fmt.Errorf("malformed answer: %w", err)
		}
		switch resp.Header.Get("X-Dvfsd-Cache") {
		case "hit":
			w.hits.Add(1)
		case "miss", "coalesced":
			w.misses.Add(1)
		}
		if pts := resp.Header.Get("X-Dvfsd-Cache-Points"); pts != "" {
			var hits, misses int64
			if _, err := fmt.Sscanf(pts, "hits=%d misses=%d", &hits, &misses); err == nil {
				w.hits.Add(hits)
				w.misses.Add(misses)
			}
		}
		return out, nil
	}
	var env server.Envelope
	if json.Unmarshal(data, &env) == nil {
		out.code, out.message = env.Error.Code, env.Error.Message
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		out.retryAfter = 1
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if n, perr := strconv.Atoi(ra); perr == nil && n > 1 {
				out.retryAfter = n
			}
		}
	}
	return out, nil
}

// roundTrip sends one request to w under the controller-wide concurrency
// bound and the per-attempt timeout, and returns the response with its
// body read and closed: the connection and the concurrency slot are free
// again before exchange checks what the worker sent.
func (c *Controller) roundTrip(ctx context.Context, w *worker, path, query string, body []byte) (*http.Response, []byte, error) {
	select {
	case c.sem <- struct{}{}:
		defer func() { <-c.sem }()
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
	actx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, w.url+path+query, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	w.dispatches.Add(1)
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp, data, err
}

// backoff returns the jittered exponential delay before retry `attempt`:
// base·2^attempt scaled by a random factor in [0.5, 1.0), so synchronized
// retries from concurrent dispatches de-correlate.
func (c *Controller) backoff(attempt int) time.Duration {
	d := c.cfg.Backoff << uint(attempt)
	if max := 64 * c.cfg.Backoff; d > max {
		d = max
	}
	return time.Duration(float64(d) * (0.5 + rand.Float64()/2))
}

// sleepCtx sleeps d or returns ctx's error, whichever first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ---- probes ----

// probeLoop polls every worker's /healthz on the probe cadence. A
// passing probe revives an ejected worker (its ring keys flow back); a
// failing one extends the streak so a silently-dead worker is ejected
// even with no traffic in flight.
func (c *Controller) probeLoop() {
	defer close(c.probed)
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			for _, w := range c.workers {
				c.probe(w)
			}
		}
	}
}

func (c *Controller) probe(w *worker) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/healthz", nil)
	if err != nil {
		return
	}
	resp, err := c.probes.Do(req)
	if err != nil {
		w.fail(int64(c.cfg.EjectAfter))
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		w.ok()
	} else {
		w.fail(int64(c.cfg.EjectAfter))
	}
}

// ---- response plumbing ----

// writeDispatchError renders a failed dispatch: worker envelopes pass
// through status, code, and (clamped) Retry-After; fleet-level failures
// get their own codes.
func (c *Controller) writeDispatchError(w http.ResponseWriter, resp wresp, err error) {
	if errors.Is(err, errNoWorkers) {
		server.WriteJSON(w, http.StatusServiceUnavailable, server.NewEnvelope(CodeNoWorkers, err.Error()))
		return
	}
	if err != nil {
		server.WriteJSON(w, http.StatusInternalServerError, server.NewEnvelope(server.CodeInternal, err.Error()))
		return
	}
	if resp.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(max(resp.retryAfter, 1)))
	}
	code := resp.code
	if code == "" {
		code = server.CodeInternal
	}
	server.WriteJSON(w, resp.status, server.NewEnvelope(code, resp.message))
}

func (c *Controller) handleHealth(w http.ResponseWriter, r *http.Request) {
	if c.gate.Draining() {
		server.WriteJSON(w, http.StatusServiceUnavailable, struct {
			Status string `json:"status"`
		}{"draining"})
		return
	}
	alive := 0
	for _, wk := range c.workers {
		if wk.alive.Load() {
			alive++
		}
	}
	status := http.StatusOK
	state := "ok"
	if alive == 0 {
		status, state = http.StatusServiceUnavailable, "no_workers"
	}
	server.WriteJSON(w, status, struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
		Alive   int    `json:"alive"`
	}{state, len(c.workers), alive})
}
