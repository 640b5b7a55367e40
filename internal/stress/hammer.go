package stress

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"videodvfs/internal/stats"
)

// A hammer worker retries a 429 up to maxRetries times per request,
// honoring Retry-After capped at retryCap per wait, so a soak run cannot
// be parked for minutes by one pessimistic estimate.
const (
	maxRetries = 10
	retryCap   = 2 * time.Second
)

// HammerConfig tunes a load-generation run against one or more
// dvfsd-compatible endpoints (dvfsd workers or a dvfsctl controller).
type HammerConfig struct {
	// Targets are base URLs (e.g. "http://127.0.0.1:8080"); requests
	// round-robin across them. Required.
	Targets []string
	// Path is the endpoint to hit (default "/v1/run").
	Path string
	// Body is the JSON request body sent to every request. Required.
	Body []byte
	// Bodies, if non-empty, overrides Body with a rotation: request i
	// sends Bodies[i % len(Bodies)]. Replaying a mix of recorded traffic
	// shapes is done by passing one encoded run request per shape.
	Bodies [][]byte
	// Requests is the total number of requests to issue (default 100).
	Requests int
	// Concurrency is the worker count (default 8).
	Concurrency int
	// Timeout bounds each attempt (default 30 s).
	Timeout time.Duration
	// Client overrides the HTTP client (its Timeout is ignored in favor
	// of per-attempt contexts).
	Client *http.Client
}

func (c HammerConfig) withDefaults() HammerConfig {
	if c.Path == "" {
		c.Path = "/v1/run"
	}
	if c.Requests == 0 {
		c.Requests = 100
	}
	if c.Concurrency == 0 {
		c.Concurrency = 8
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// EnvelopeViolation describes one protocol breach observed by the
// hammer: a non-2xx response that was not a well-formed dvfsd error
// envelope, or a 429 missing its Retry-After hint.
type EnvelopeViolation struct {
	// Target is the base URL the request went to.
	Target string
	// Status is the HTTP status received.
	Status int
	// Reason says what was malformed.
	Reason string
}

// HammerResult summarizes a load-generation run.
type HammerResult struct {
	// Requests is the number of logical requests issued.
	Requests int
	// OK counts 2xx responses with decodable JSON bodies.
	OK int
	// Rejected counts well-formed 429 bounces that exhausted retries.
	Rejected int
	// Retried counts individual 429 bounces that were retried.
	Retried int
	// Failed counts well-formed non-429 error responses.
	Failed int
	// Violations lists protocol breaches (empty on a healthy service).
	Violations []EnvelopeViolation
	// LatencyP50/LatencyP99 are attempt latencies of successful
	// responses.
	LatencyP50, LatencyP99 time.Duration
	// WallDur is the whole run's duration.
	WallDur time.Duration
}

// envelope mirrors dvfsd's uniform error body. Deliberately a local
// minimal struct: the hammer validates the wire contract, not the
// server's internals, and must stay importable without internal/server.
type envelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// knownCodes enumerates dvfsd's documented envelope codes.
var knownCodes = map[string]bool{
	"bad_request": true, "invalid_config": true, "overloaded": true,
	"horizon_exceeded": true, "not_found": true, "draining": true,
	"too_large": true, "internal": true,
}

// Hammer replays requests against the targets at the configured
// concurrency, validating every response against the dvfsd wire
// contract. It returns an error only for setup problems (an unusable
// config); service-side failures — transport errors included — are in the
// result, violations included, so a soak harness can assert on them.
func Hammer(cfg HammerConfig) (*HammerResult, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("stress: hammer needs at least one target")
	}
	if len(cfg.Body) == 0 && len(cfg.Bodies) == 0 {
		return nil, fmt.Errorf("stress: hammer needs a request body")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}

	var (
		next    atomic.Int64
		mu      sync.Mutex
		res     HammerResult
		lat     = stats.NewSketch(0.01)
		wg      sync.WaitGroup
		started = time.Now()
	)
	res.Requests = cfg.Requests

	worker := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= cfg.Requests {
				return
			}
			target := cfg.Targets[i%len(cfg.Targets)]
			body := cfg.Body
			if len(cfg.Bodies) > 0 {
				body = cfg.Bodies[i%len(cfg.Bodies)]
			}
			outcome, retried, dur, viol := doRequest(client, cfg, target, body)
			mu.Lock()
			res.Retried += retried
			switch outcome {
			case outcomeOK:
				res.OK++
				lat.Add(dur.Seconds())
			case outcomeRejected:
				res.Rejected++
			case outcomeFailed:
				res.Failed++
			}
			if viol != nil {
				res.Violations = append(res.Violations, *viol)
			}
			mu.Unlock()
		}
	}
	wg.Add(cfg.Concurrency)
	for i := 0; i < cfg.Concurrency; i++ {
		go worker()
	}
	wg.Wait()

	if lat.N() > 0 {
		res.LatencyP50 = time.Duration(lat.Quantile(0.5) * float64(time.Second))
		res.LatencyP99 = time.Duration(lat.Quantile(0.99) * float64(time.Second))
	}
	res.WallDur = time.Since(started)
	return &res, nil
}

type outcome int

const (
	outcomeOK outcome = iota
	outcomeRejected
	outcomeFailed
)

// doRequest issues one logical request with 429 retries, classifying the
// final response and reporting at most one envelope violation.
func doRequest(client *http.Client, cfg HammerConfig, target string, body []byte) (out outcome, retried int, dur time.Duration, viol *EnvelopeViolation) {
	url := target + cfg.Path
	for attempt := 0; ; attempt++ {
		status, hdr, respBody, elapsed, err := attemptOnce(client, cfg.Timeout, url, body)
		if err != nil {
			return outcomeFailed, retried, 0, &EnvelopeViolation{
				Target: target, Status: 0, Reason: "transport: " + err.Error(),
			}
		}
		if status >= 200 && status < 300 {
			if !json.Valid(respBody) {
				return outcomeFailed, retried, 0, &EnvelopeViolation{
					Target: target, Status: status, Reason: "2xx body is not valid JSON",
				}
			}
			return outcomeOK, retried, elapsed, nil
		}
		// Every error must be the uniform envelope with a documented code.
		var env envelope
		if jerr := json.Unmarshal(respBody, &env); jerr != nil || env.Error.Code == "" {
			return outcomeFailed, retried, 0, &EnvelopeViolation{
				Target: target, Status: status, Reason: "error body is not the uniform envelope",
			}
		}
		if !knownCodes[env.Error.Code] {
			return outcomeFailed, retried, 0, &EnvelopeViolation{
				Target: target, Status: status,
				Reason: "undocumented envelope code " + strconv.Quote(env.Error.Code),
			}
		}
		if status != http.StatusTooManyRequests {
			return outcomeFailed, retried, 0, nil
		}
		// 429: Retry-After is part of the contract.
		ra := hdr.Get("Retry-After")
		secs, perr := strconv.Atoi(ra)
		if ra == "" || perr != nil || secs < 0 {
			return outcomeFailed, retried, 0, &EnvelopeViolation{
				Target: target, Status: status,
				Reason: "429 without a non-negative integer Retry-After (got " + strconv.Quote(ra) + ")",
			}
		}
		if attempt >= maxRetries {
			return outcomeRejected, retried, 0, nil
		}
		retried++
		wait := time.Duration(secs) * time.Second
		if wait > retryCap {
			wait = retryCap
		}
		if wait == 0 {
			wait = 10 * time.Millisecond
		}
		time.Sleep(wait)
	}
}

// attemptOnce performs one POST with a per-attempt timeout.
func attemptOnce(client *http.Client, timeout time.Duration, url string, body []byte) (status int, hdr http.Header, respBody []byte, elapsed time.Duration, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return 0, nil, nil, 0, err
	}
	return resp.StatusCode, resp.Header, b, time.Since(start), nil
}
