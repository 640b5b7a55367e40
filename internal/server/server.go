// Package server turns the deterministic simulator into a long-running
// HTTP/JSON service: single runs, batch sweeps, cohort runs, and named
// experiments execute on a bounded campaign worker pool behind a
// content-addressed result cache. Determinism is the load-bearing property — a RunConfig's
// result never changes, so responses are cached forever, concurrent
// identical requests coalesce into one simulation, and a cache hit is
// byte-identical to the miss that populated it.
//
// Service discipline:
//
//   - admission control: the pool's queue is bounded; overflow returns
//     429 with a Retry-After estimate instead of queueing unboundedly;
//   - per-request timeouts in virtual time: every run's horizon is
//     clamped to Config.MaxHorizon, so a starved run terminates with
//     ErrHorizonExceeded instead of holding a worker forever;
//   - graceful shutdown: Shutdown stops admission (503) and drains every
//     accepted run before returning.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"videodvfs/internal/campaign"
	"videodvfs/internal/cohort"
	"videodvfs/internal/cpu"
	"videodvfs/internal/experiments"
	"videodvfs/internal/sim"
	"videodvfs/internal/trace"
	"videodvfs/internal/video"
)

// ErrOverloaded reports a request bounced by admission control: the
// worker pool's queue was full. Clients should retry after the
// Retry-After hint.
var ErrOverloaded = errors.New("server: overloaded, queue full")

// MaxBodyBytes bounds request bodies, dvfsd's and the dvfsctl
// controller's alike.
const MaxBodyBytes = 1 << 20

// Config tunes one Server.
type Config struct {
	// Workers is the simulation pool size (≤0 = GOMAXPROCS).
	Workers int
	// Queue bounds the admission queue (≤0 = 4×workers).
	Queue int
	// CacheBytes bounds the result cache's total body bytes
	// (≤0 = 64 MiB).
	CacheBytes int64
	// MaxHorizon caps every run's virtual-time horizon — the service's
	// per-request timeout, enforced inside the simulation so starved
	// runs fail with ErrHorizonExceeded (≤0 = 1 virtual hour).
	MaxHorizon sim.Time
	// MaxDuration rejects content longer than this up front, bounding
	// per-run memory and wall time (≤0 = 20 virtual minutes).
	MaxDuration sim.Time
	// MaxSweepRuns rejects sweeps expanding to more runs than this
	// (≤0 = 1024).
	MaxSweepRuns int
	// MaxCohortViewers rejects cohorts larger than this
	// (≤0 = 200_000).
	MaxCohortViewers int
	// Runner executes one simulation (nil = experiments.Run). Tests
	// substitute it to script latency and failures.
	Runner func(experiments.RunConfig) (experiments.RunResult, error)
}

func (c Config) withDefaults() Config {
	// Workers resolves first: the queue default scales with it.
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 4 * c.Workers
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.MaxHorizon <= 0 {
		c.MaxHorizon = sim.Time(3600) * sim.Second
	}
	if c.MaxDuration <= 0 {
		c.MaxDuration = sim.Time(1200) * sim.Second
	}
	if c.MaxSweepRuns <= 0 {
		c.MaxSweepRuns = 1024
	}
	if c.MaxCohortViewers <= 0 {
		c.MaxCohortViewers = 200_000
	}
	if c.Runner == nil {
		c.Runner = experiments.Run
	}
	return c
}

// Server is the simulation service. Create with New, mount Handler, stop
// with Shutdown.
type Server struct {
	cfg    Config
	pool   *campaign.Pool
	cache  *resultCache
	met    *metrics
	gate   Gate
	mux    *http.ServeMux
	runSeq atomic.Int64
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		pool:  campaign.NewPool(cfg.Workers, cfg.Queue),
		cache: newResultCache(cfg.CacheBytes),
		met:   newMetrics(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/cohort", s.handleCohort)
	mux.HandleFunc("POST /v1/cohort/part", s.handleCohortPart)
	mux.HandleFunc("GET /v1/experiments", s.handleExperimentList)
	mux.HandleFunc("POST /v1/experiments/{id}", s.handleExperiment)
	mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown stops admission (new requests get 503) and drains every
// accepted run. It returns early with ctx's error when the context ends
// first, leaving the drain running in the background.
func (s *Server) Shutdown(ctx context.Context) error {
	s.gate.Drain()
	done := make(chan struct{})
	go func() { s.pool.Close(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CacheStats exposes the result cache counters (for tests and the CLI's
// exit report).
func (s *Server) CacheStats() (hits, misses, coalesced int64) {
	st := s.cache.Stats()
	return st.Hits, st.Misses, st.Coalesced
}

// ---- response plumbing ----

// Machine-readable error codes: every non-2xx response from a /v1/*
// endpoint carries exactly one Envelope, whose code is one of these and
// whose message is human-readable detail. Clients branch on the code (or
// the status), never on message text.
const (
	// CodeBadRequest: the body or query string could not be decoded
	// (malformed JSON, unknown fields, bad parameter values). HTTP 400.
	CodeBadRequest = "bad_request"
	// CodeInvalidConfig: the request decoded but names an impossible
	// simulation (catalog miss, semantic violation, over-cap size). HTTP 400.
	CodeInvalidConfig = "invalid_config"
	// CodeOverloaded: admission control bounced the request; retry after
	// the Retry-After hint. HTTP 429.
	CodeOverloaded = "overloaded"
	// CodeHorizonExceeded: a well-formed scenario that cannot complete
	// within its virtual-time horizon. HTTP 422.
	CodeHorizonExceeded = "horizon_exceeded"
	// CodeNotFound: the named resource (experiment ID) does not exist.
	// HTTP 404.
	CodeNotFound = "not_found"
	// CodeDraining: the server is shutting down and not admitting new
	// work. HTTP 503.
	CodeDraining = "draining"
	// CodeTooLarge: the request body exceeded the service's byte cap.
	// HTTP 413.
	CodeTooLarge = "too_large"
	// CodeInternal: an unexpected server-side failure. HTTP 500.
	CodeInternal = "internal"
)

// Envelope is the uniform error body of the service's wire contract,
// {"error":{"code","message"}}. dvfsd answers every /v1/* failure with
// one, and the dvfsctl controller both parses its workers' envelopes and
// answers with its own through the same type.
type Envelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// NewEnvelope returns the envelope carrying code and message.
func NewEnvelope(code, message string) Envelope {
	var e Envelope
	e.Error.Code, e.Error.Message = code, message
	return e
}

// WriteJSON answers with v marshalled as one JSON line under status: the
// writer of every JSON body and envelope dvfsd and dvfsctl send.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":{"code":"internal","message":"encoding failure"}}`,
			http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

// WriteError answers with err's envelope, at the code and status
// CodeStatus maps it to.
func WriteError(w http.ResponseWriter, err error) {
	code, status := CodeStatus(err)
	WriteJSON(w, status, NewEnvelope(code, err.Error()))
}

// CodeStatus maps the service's error taxonomy onto an envelope code and
// HTTP status: an oversized body is 413, decode failures and invalid
// configs are the client's fault (400), admission bounces are 429, a
// horizon-exceeded run is a well-formed request whose scenario cannot
// complete (422), and anything else is a server-side 500.
func CodeStatus(err error) (code string, status int) {
	var tooLarge *http.MaxBytesError
	switch {
	// Checked first: the decoder wraps the byte cap's error in
	// ErrBadRequest.
	case errors.As(err, &tooLarge):
		return CodeTooLarge, http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrBadRequest):
		return CodeBadRequest, http.StatusBadRequest
	case errors.Is(err, experiments.ErrInvalidConfig):
		return CodeInvalidConfig, http.StatusBadRequest
	case errors.Is(err, ErrOverloaded), errors.Is(err, campaign.ErrPoolClosed):
		return CodeOverloaded, http.StatusTooManyRequests
	case errors.Is(err, experiments.ErrHorizonExceeded):
		return CodeHorizonExceeded, http.StatusUnprocessableEntity
	default:
		return CodeInternal, http.StatusInternalServerError
	}
}

// fail answers with err's envelope, counting admission bounces and
// adding their Retry-After estimate.
func (s *Server) fail(w http.ResponseWriter, err error) {
	if code, _ := CodeStatus(err); code == CodeOverloaded {
		s.met.reject()
		w.Header().Set("Retry-After", s.retryAfter())
	}
	WriteError(w, err)
}

// writeBody answers with a computed body, or with err's envelope when
// computing it failed.
func (s *Server) writeBody(w http.ResponseWriter, contentType string, body []byte, outcome cacheOutcome, err error) {
	if err != nil {
		s.fail(w, err)
		return
	}
	s.stamp(w, contentType, outcome)
	w.Write(body)
}

// stamp sets a body's headers before its first byte: the worker's load,
// the content type, and how the result cache served it.
func (s *Server) stamp(w http.ResponseWriter, contentType string, outcome cacheOutcome) {
	s.loadHeaders(w)
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("X-Dvfsd-Cache", string(outcome))
}

// retryAfter estimates seconds until queue space frees: the backlog
// (queued + active runs) spread over the workers, at the recent median
// run latency. Always at least 1.
func (s *Server) retryAfter() string {
	p50, _ := s.met.runQuantiles()
	return fmt.Sprintf("%d", retryAfterSeconds(
		s.pool.QueueDepth()+s.pool.Active(), s.pool.Workers(), p50))
}

// loadHeaders stamps the worker's instantaneous load onto a response so
// a fleet controller observes backpressure from the traffic it already
// sends instead of polling /metrics.
func (s *Server) loadHeaders(w http.ResponseWriter) {
	w.Header().Set("X-Dvfsd-Queue-Depth", strconv.Itoa(s.pool.QueueDepth()))
}

// retryAfterSeconds is the Retry-After estimate as a pure function, so
// the clamp is testable in isolation. The backlog snapshot races the
// rejection that triggered it — the queue may have drained (backlog 0,
// estimate 0) or the underflow-guarded depth may read negative — and an
// RFC 7231 Retry-After must be a non-negative integer, with 0 telling the
// client to hammer immediately. Every degenerate input therefore clamps
// to ≥ 1 second.
func retryAfterSeconds(backlog, workers int, p50 float64) int {
	if p50 <= 0 || math.IsNaN(p50) || math.IsInf(p50, 0) {
		p50 = 1
	}
	if workers < 1 {
		workers = 1
	}
	est := math.Ceil(float64(backlog) * p50 / float64(workers))
	if !(est >= 1) { // catches 0, negatives, and NaN in one comparison
		return 1
	}
	if est > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(est)
}

// ---- run execution ----

// prepare applies the service's resource bounds to a validated config:
// duration capped up front, horizon clamped to MaxHorizon so every run
// terminates in bounded virtual time.
func (s *Server) prepare(cfg *experiments.RunConfig) error {
	if cfg.Duration > s.cfg.MaxDuration {
		return fmt.Errorf("server: %w: duration %v exceeds the service cap %v",
			experiments.ErrInvalidConfig, cfg.Duration, s.cfg.MaxDuration)
	}
	cfg.Horizon = min(cfg.EffectiveHorizon(), s.cfg.MaxHorizon)
	return nil
}

// onPool runs fn as one task on the worker pool and blocks for its
// result: the one path every simulation the service runs takes. admit
// enqueues the task — tryAdmit for a request admitted on its own, a
// blocking submit for sweep points whose admission was decided once for
// the whole batch. An accepted task always completes, so its result
// feeds the cache even if the client has gone away.
func onPool[T any](s *Server, admit func(task func()) error, fn func() (T, error)) (T, error) {
	type outcome struct {
		res T
		err error
	}
	ch := make(chan outcome, 1)
	seq := int(s.runSeq.Add(1))
	task := func() {
		t0 := time.Now()
		var res T
		err := campaign.Protect(seq, func() error {
			var rerr error
			res, rerr = fn()
			return rerr
		})
		s.met.observeRun(time.Since(t0), err)
		ch <- outcome{res, err}
	}
	if err := admit(task); err != nil {
		var zero T
		return zero, err
	}
	out := <-ch
	return out.res, out.err
}

// tryAdmit is the non-blocking admission: a full queue fails fast with
// ErrOverloaded.
func (s *Server) tryAdmit(task func()) error {
	if !s.pool.TrySubmit(task) {
		return ErrOverloaded
	}
	return nil
}

// cached serves key's body from the result cache, computing it on a
// miss; an uncacheable request computes straight through as a bypass.
func (s *Server) cached(key string, cacheable bool, compute func() ([]byte, error)) ([]byte, cacheOutcome, error) {
	if !cacheable {
		body, err := compute()
		return body, cacheBypass, err
	}
	return s.cache.Do(key, compute)
}

// runBody is the cached response body of one run: the content-addressed
// key plus the full result. The bytes stored in the cache are exactly the
// bytes served, so hits are byte-identical to the miss that stored them.
type runBody struct {
	Key    string                `json:"key"`
	Result experiments.RunResult `json:"result"`
}

// runCached executes cfg through the cache (hit → stored bytes,
// miss → simulate + store, concurrent identical requests coalesce).
func (s *Server) runCached(cfg experiments.RunConfig, admit func(func()) error) ([]byte, cacheOutcome, error) {
	key, cacheable := experiments.ConfigKey(cfg)
	return s.cached(key, cacheable, func() ([]byte, error) {
		res, err := onPool(s, admit, func() (experiments.RunResult, error) { return s.cfg.Runner(cfg) })
		if err != nil {
			return nil, err
		}
		return json.Marshal(runBody{Key: key, Result: res})
	})
}

// ---- handlers ----

// QueryBool parses the boolean query parameter name (?strict on /run,
// /sweep and /cohort, ?stream on /cohort). Absent or "0"/"false" means
// off, "1"/"true" on, and anything else is a client error.
func QueryBool(r *http.Request, name string) (bool, error) {
	switch v := r.URL.Query().Get(name); v {
	case "", "0", "false":
		return false, nil
	case "1", "true":
		return true, nil
	default:
		return false, fmt.Errorf("%w: unknown %s value %q (1)", ErrBadRequest, name, v)
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if !s.gate.Admit(w, "run") {
		return
	}
	req, err := DecodeRunRequest(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		s.fail(w, err)
		return
	}
	cfg, err := req.Config()
	if err != nil {
		s.fail(w, err)
		return
	}
	if err := s.prepare(&cfg); err != nil {
		s.fail(w, err)
		return
	}
	// Strict configs are uncacheable by construction (ConfigKey returns
	// not-cacheable), so runCached re-executes with the checker armed and
	// answers with X-Dvfsd-Cache: bypass — a strict response always
	// reflects an audited run, never a pinned body.
	if cfg.Strict, err = QueryBool(r, "strict"); err != nil {
		s.fail(w, err)
		return
	}
	switch mode := r.URL.Query().Get("trace"); mode {
	case "":
	case "jsonl":
		s.handleRunTraced(w, r, cfg)
		return
	default:
		s.fail(w, fmt.Errorf("%w: unknown trace mode %q (jsonl)", ErrBadRequest, mode))
		return
	}
	body, outcome, err := s.runCached(cfg, s.tryAdmit)
	s.writeBody(w, "application/json", body, outcome, err)
}

// stream is the body of dvfsd's two streaming responses, a traced run's
// event lines and a live cohort's rollup frames. It stamps the headers
// on the first byte, so a request that fails before writing anything
// still gets a real status, and it flushes after each write when the
// ResponseWriter can: a non-flushing middleware wrapper (or a buffering
// test recorder) degrades the stream to buffered writes.
type stream struct {
	s     *Server
	w     http.ResponseWriter
	wrote bool
}

func (st *stream) Write(p []byte) (int, error) {
	if !st.wrote {
		st.s.stamp(st.w, "application/x-ndjson", cacheBypass)
		st.wrote = true
	}
	n, err := st.w.Write(p)
	if fl, ok := st.w.(http.Flusher); ok {
		fl.Flush()
	}
	return n, err
}

// end closes the stream with last as its final line, or by the one rule
// for a failed stream: a canceled run ends silently (the client went
// away, nobody is reading); a failure before the first byte answers
// through fail, with a real status (429 and Retry-After for an admission
// bounce); a failure after it ends the stream with one envelope line
// carrying CodeStatus's code.
func (st *stream) end(err error, last any) {
	switch {
	case errors.Is(err, experiments.ErrCanceled):
	case err != nil && !st.wrote:
		st.s.fail(st.w, err)
	case err != nil:
		code, _ := CodeStatus(err)
		json.NewEncoder(st).Encode(NewEnvelope(code, err.Error()))
	default:
		json.NewEncoder(st).Encode(last)
	}
}

// handleRunTraced streams the run's structured event trace as JSONL,
// closing with one "result" line. Traced runs bypass the cache (the
// response is a stream, not a body worth pinning) but still pass
// admission control. The client's disconnect cancels the simulation: an
// abandoned stream frees its pool worker within one event batch instead
// of simulating on to the horizon.
func (s *Server) handleRunTraced(w http.ResponseWriter, r *http.Request, cfg experiments.RunConfig) {
	st := &stream{s: s, w: w}
	sink := trace.NewJSONL(st)
	cfg.Tracer = sink
	cfg.Cancel = r.Context().Done()
	res, err := onPool(s, s.tryAdmit, func() (experiments.RunResult, error) { return s.cfg.Runner(cfg) })
	sink.Close() // flushes the buffered events; a write error leaves nobody to tell
	st.end(err, struct {
		T  float64               `json:"t"`
		Ev string                `json:"ev"`
		R  experiments.RunResult `json:"result"`
	}{res.SimEnd.Seconds(), "result", res})
}

// SweepBody is the response of one sweep, from dvfsd or the dvfsctl
// controller alike: per-point outcomes in expansion order, each either a
// run body (shared with the single-run cache) or an error string.
type SweepBody struct {
	Count    int            `json:"count"`
	Outcomes []SweepOutcome `json:"outcomes"`
}

// SweepOutcome is one point of a SweepBody.
type SweepOutcome struct {
	Index int             `json:"index"`
	Run   json.RawMessage `json:"run,omitempty"`
	Error string          `json:"error,omitempty"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !s.gate.Admit(w, "sweep") {
		return
	}
	req, err := DecodeSweepRequest(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		s.fail(w, err)
		return
	}
	if size := req.Size(); size > int64(s.cfg.MaxSweepRuns) {
		s.fail(w, fmt.Errorf("server: %w: sweep expands to %d runs, cap is %d",
			experiments.ErrInvalidConfig, size, s.cfg.MaxSweepRuns))
		return
	}
	cfgs, err := req.Configs()
	if err != nil {
		s.fail(w, err)
		return
	}
	strict, err := QueryBool(r, "strict")
	if err != nil {
		s.fail(w, err)
		return
	}
	for i := range cfgs {
		if err := s.prepare(&cfgs[i]); err != nil {
			s.fail(w, err)
			return
		}
		// Strict points are uncacheable (ConfigKey), so each one below
		// takes the compute path — audited runs never come from the cache.
		cfgs[i].Strict = strict
	}
	// Admission is decided once for the whole sweep: if the queue is
	// already full, bounce now rather than half-queueing a batch.
	if s.pool.QueueDepth() >= s.pool.Capacity() {
		s.fail(w, ErrOverloaded)
		return
	}
	queued := func(task func()) error { return s.pool.SubmitCtx(r.Context(), task) }
	outcomes := make([]SweepOutcome, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if body, _, err := s.runCached(cfg, queued); err != nil {
				outcomes[i] = SweepOutcome{Index: i, Error: err.Error()}
			} else {
				outcomes[i] = SweepOutcome{Index: i, Run: body}
			}
		}()
	}
	wg.Wait()
	s.loadHeaders(w)
	WriteJSON(w, http.StatusOK, SweepBody{Count: len(outcomes), Outcomes: outcomes})
}

// ---- cohort endpoint ----

// cohortRollupFrame and CohortSummaryFrame are the NDJSON lines of a
// /v1/cohort response: periodic rollup frames followed by one summary.
// The dvfsctl controller answers a sharded cohort with the summary line
// alone.
type cohortRollupFrame struct {
	Ev     string        `json:"ev"`
	Rollup cohort.Rollup `json:"rollup"`
}

// CohortSummaryFrame is the closing line of a /v1/cohort response.
type CohortSummaryFrame struct {
	Ev     string        `json:"ev"`
	Key    string        `json:"key,omitempty"`
	Result cohort.Result `json:"result"`
}

// cohortConfig resolves a cohort request under the service's bounds: the
// viewer cap, then the per-run bounds on its base session.
func (s *Server) cohortConfig(req CohortRequest) (cohort.Config, error) {
	cfg, err := req.Config()
	if err != nil {
		return cfg, err
	}
	if cfg.Viewers > s.cfg.MaxCohortViewers {
		return cfg, fmt.Errorf("server: %w: cohort of %d viewers exceeds the service cap %d",
			experiments.ErrInvalidConfig, cfg.Viewers, s.cfg.MaxCohortViewers)
	}
	return cfg, s.prepare(&cfg.Base)
}

// handleCohort runs a whole viewer population in cohort mode and answers
// with an NDJSON stream: {"ev":"rollup",...} frames at every virtual-time
// rollup barrier, closing with one {"ev":"summary","result":...} line.
//
// By default the full stream is buffered and served through the result
// cache (the rollup stream is deterministic, so a hit is byte-identical
// to the run that populated it); ?stream=1 bypasses the cache and
// flushes each frame as its barrier completes. Strict cohorts
// (?strict=1) are uncacheable by construction, exactly like strict runs.
func (s *Server) handleCohort(w http.ResponseWriter, r *http.Request) {
	if !s.gate.Admit(w, "cohort") {
		return
	}
	req, err := DecodeCohortRequest(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		s.fail(w, err)
		return
	}
	cfg, err := s.cohortConfig(req)
	if err != nil {
		s.fail(w, err)
		return
	}
	if cfg.Base.Strict, err = QueryBool(r, "strict"); err != nil {
		s.fail(w, err)
		return
	}
	stream, err := QueryBool(r, "stream")
	if err != nil {
		s.fail(w, err)
		return
	}
	key, cacheable := cohort.Key(cfg)
	if stream {
		s.handleCohortStream(w, r, key, cfg)
		return
	}
	body, outcome, err := s.cached("cohort/"+key, cacheable, func() ([]byte, error) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		runCfg := cfg
		runCfg.OnRollup = func(ru cohort.Rollup) {
			enc.Encode(cohortRollupFrame{Ev: "rollup", Rollup: ru})
		}
		res, err := onPool(s, s.tryAdmit, func() (cohort.Result, error) { return cohort.Run(runCfg) })
		if err != nil {
			return nil, err
		}
		if err := enc.Encode(CohortSummaryFrame{Ev: "summary", Key: key, Result: res}); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
	s.writeBody(w, "application/x-ndjson", body, outcome, err)
}

// handleCohortStream is the live-streaming variant: frames go out as
// their barriers complete, and the stream ends by the same rule as a
// traced run's. The client's disconnect cancels the cohort at its next
// rollup barrier, so an abandoned stream stops burning the pool.
func (s *Server) handleCohortStream(w http.ResponseWriter, r *http.Request, key string, cfg cohort.Config) {
	st := &stream{s: s, w: w}
	enc := json.NewEncoder(st)
	cfg.OnRollup = func(ru cohort.Rollup) {
		enc.Encode(cohortRollupFrame{Ev: "rollup", Rollup: ru})
	}
	cfg.Cancel = r.Context().Done()
	res, err := onPool(s, s.tryAdmit, func() (cohort.Result, error) { return cohort.Run(cfg) })
	st.end(err, CohortSummaryFrame{Ev: "summary", Key: key, Result: res})
}

// ---- cohort part endpoint (the fleet's worker-side seam) ----

// CohortPartBody is the response of one partial cohort run: the cohort's
// content-addressed key (empty when uncacheable) plus the executed
// shards' serialized aggregation states. The key is the one the worker
// computed after applying its own bounds, so the controller labels a
// merged summary with it.
type CohortPartBody struct {
	Key     string         `json:"key,omitempty"`
	Partial cohort.Partial `json:"partial"`
}

// handleCohortPart executes only the named shards of a cohort and
// answers with their serialized aggregation states — the worker side of
// a fleet-sharded cohort (DESIGN.md §13). The shard layout is a pure
// function of the cohort config, so a controller can fan disjoint shard
// sets across workers and MergeParts the responses into a Result
// bit-identical to a single-node run. Parts are cached per (cohort key,
// shard set): re-dispatch after a controller retry or worker restart is
// a cache hit.
func (s *Server) handleCohortPart(w http.ResponseWriter, r *http.Request) {
	if !s.gate.Admit(w, "cohort-part") {
		return
	}
	req, err := DecodeCohortPartRequest(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		s.fail(w, err)
		return
	}
	cfg, err := s.cohortConfig(req.Cohort)
	if err != nil {
		s.fail(w, err)
		return
	}
	key, cacheable := cohort.Key(cfg)
	body, outcome, err := s.cached("cohortpart/"+key+"/"+shardSetKey(req.Shards), cacheable, func() ([]byte, error) {
		part, err := onPool(s, s.tryAdmit, func() (cohort.Partial, error) { return cohort.RunPart(cfg, req.Shards) })
		if err != nil {
			return nil, err
		}
		return json.Marshal(CohortPartBody{Key: key, Partial: part})
	})
	s.writeBody(w, "application/json", body, outcome, err)
}

// shardSetKey renders a shard list as a canonical cache-key suffix
// (sorted, comma-joined) so two orders of the same set share one cached
// part. Duplicates stay in the key: cohort.RunPart refuses a shard named
// twice, so [0, 0] must never find [0]'s cached part.
func shardSetKey(shards []int) string {
	set := append([]int(nil), shards...)
	sort.Ints(set)
	var b strings.Builder
	for i, idx := range set {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(idx))
	}
	return b.String()
}

// experimentBody is the cached response of one named experiment.
type experimentBody struct {
	ID    string            `json:"id"`
	Table experiments.Table `json:"table"`
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	if !s.gate.Admit(w, "experiment") {
		return
	}
	id := r.PathValue("id")
	builder, err := experiments.Get(id)
	if err != nil {
		WriteJSON(w, http.StatusNotFound, NewEnvelope(CodeNotFound, err.Error()))
		return
	}
	// Experiments are identified by ID, not content: the table is a pure
	// function of the ID for the lifetime of the process.
	body, outcome, err := s.cache.Do("experiment/"+id, func() ([]byte, error) {
		tab, err := onPool(s, s.tryAdmit, builder)
		if err != nil {
			return nil, err
		}
		return json.Marshal(experimentBody{ID: id, Table: tab})
	})
	s.writeBody(w, "application/json", body, outcome, err)
}

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	s.gate.count("experiment-list")
	WriteJSON(w, http.StatusOK, struct {
		IDs []string `json:"ids"`
	}{experiments.IDs()})
}

// handleCatalog serves the built-in catalogs so clients can discover the
// names RunRequest accepts.
func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	s.gate.count("catalog")
	type catalog struct {
		Devices   []string `json:"devices"`
		Governors []string `json:"governors"`
		Titles    []string `json:"titles"`
		Rungs     []string `json:"rungs"`
		ABRs      []string `json:"abrs"`
		Nets      []string `json:"nets"`
	}
	var c catalog
	for _, d := range cpu.Devices() {
		c.Devices = append(c.Devices, d.Name)
	}
	for _, g := range experiments.GovernorIDs() {
		c.Governors = append(c.Governors, string(g))
	}
	for _, t := range video.Titles() {
		c.Titles = append(c.Titles, t.Name)
	}
	for _, res := range video.Resolutions() {
		c.Rungs = append(c.Rungs, res.Name)
	}
	for _, a := range experiments.ABRIDs() {
		c.ABRs = append(c.ABRs, string(a))
	}
	for _, n := range experiments.NetKinds() {
		c.Nets = append(c.Nets, string(n))
	}
	WriteJSON(w, http.StatusOK, c)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status, state := http.StatusOK, "ok"
	if s.gate.Draining() {
		status, state = http.StatusServiceUnavailable, "draining"
	}
	WriteJSON(w, status, struct {
		Status string `json:"status"`
	}{state})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	s.met.render(&b, &s.gate, s.pool.QueueDepth(), s.pool.Capacity(), s.pool.Active(), s.pool.Workers(), s.cache.Stats(), experiments.InputMemoStats())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write([]byte(b.String()))
}
