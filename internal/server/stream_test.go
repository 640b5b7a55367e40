package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"videodvfs/internal/cohort"
	"videodvfs/internal/sim"
)

// Retry-After must always be a positive integer: RFC 7231 requires
// non-negative, and 0 tells clients to hammer immediately. The backlog
// snapshot races the rejection that triggered it, so every degenerate
// input clamps to ≥ 1.
func TestRetryAfterSecondsClamp(t *testing.T) {
	cases := []struct {
		name    string
		backlog int
		workers int
		p50     float64
		want    int
	}{
		{"normal", 8, 2, 0.5, 2},
		{"rounds up", 1, 4, 0.1, 1},
		{"drained backlog", 0, 4, 1, 1},
		{"negative backlog", -3, 4, 1, 1},
		{"no latency sample", 5, 2, 0, 3},
		{"negative p50", 5, 2, -1, 3},
		{"NaN p50", 5, 2, math.NaN(), 3},
		{"Inf p50", 5, 2, math.Inf(1), 3},
		{"zero workers", 4, 0, 1, 4},
		{"negative workers", 4, -2, 1, 4},
		{"huge estimate", 1 << 30, 1, 1e12, math.MaxInt32},
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.backlog, tc.workers, tc.p50); got != tc.want {
			t.Errorf("%s: retryAfterSeconds(%d, %d, %v) = %d, want %d",
				tc.name, tc.backlog, tc.workers, tc.p50, got, tc.want)
		}
		if got := retryAfterSeconds(tc.backlog, tc.workers, tc.p50); got < 1 {
			t.Errorf("%s: emitted %d < 1", tc.name, got)
		}
	}
}

// nonFlusher hides every optional ResponseWriter interface (Flusher
// included) the way a buffering middleware wrapper does: only the plain
// three-method surface remains.
type nonFlusher struct {
	inner http.ResponseWriter
}

func (n nonFlusher) Header() http.Header         { return n.inner.Header() }
func (n nonFlusher) Write(p []byte) (int, error) { return n.inner.Write(p) }
func (n nonFlusher) WriteHeader(code int)        { n.inner.WriteHeader(code) }

// Both streaming paths must degrade gracefully — buffered writes, no
// panic, complete output — when the ResponseWriter is not an
// http.Flusher.
func TestStreamingThroughNonFlushingWriter(t *testing.T) {
	s := New(Config{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	t.Run("run trace", func(t *testing.T) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/run?trace=jsonl",
			strings.NewReader(`{"duration_s": 5}`))
		s.Handler().ServeHTTP(nonFlusher{rec}, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
		var final struct {
			Ev string `json:"ev"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &final); err != nil || final.Ev != "result" {
			t.Fatalf("missing result line, got: %s", lines[len(lines)-1])
		}
	})

	t.Run("cohort stream", func(t *testing.T) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/cohort?stream=1",
			strings.NewReader(`{"base": {"duration_s": 5}, "viewers": 4}`))
		s.Handler().ServeHTTP(nonFlusher{rec}, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
		var final struct {
			Ev string `json:"ev"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &final); err != nil || final.Ev != "summary" {
			t.Fatalf("missing summary line, got: %s", lines[len(lines)-1])
		}
	})
}

// streamAndAbandon starts a streaming request, reads the first line,
// then severs the connection. Returns once the first frame arrived.
func streamAndAbandon(t *testing.T, url, body string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatalf("stream request: %v", err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		cancel()
		t.Fatalf("first frame: %v", err)
	}
	cancel() // sever: the server should observe the disconnect and stop
	resp.Body.Close()
}

// A client abandoning a streaming response must not keep burning a pool
// worker: the request context's cancellation propagates into the
// simulation, which stops within a poll tick, and the pool drains.
func TestStreamClientDisconnectFreesPool(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	// Long content (the service cap) so the run cannot finish before the
	// disconnect lands; the trace stream emits frames from t=0.
	streamAndAbandon(t, ts.URL+"/v1/run?trace=jsonl", `{"duration_s": 1200}`)
	// A big cohort with tight rollups: first frame early, long tail.
	streamAndAbandon(t, ts.URL+"/v1/cohort?stream=1",
		`{"base": {"duration_s": 1200}, "viewers": 64, "rollup_s": 5}`)

	deadline := time.Now().Add(30 * time.Second)
	for s.pool.Active() != 0 || s.pool.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pool did not drain after disconnects: active=%d queued=%d",
				s.pool.Active(), s.pool.QueueDepth())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if errs := s.met.runErrs.Load(); errs < 2 {
		t.Fatalf("canceled runs not counted as errors: runErrs=%d, want ≥2", errs)
	}
}

// The cohort-part endpoint is the fleet's worker-side seam: disjoint
// shard sets fetched over HTTP must merge into the exact single-node
// cohort result, and identical part requests must be cache hits.
func TestCohortPartEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const cohortBody = `{"base": {"duration_s": 6}, "viewers": 12, "shards": 4, "rollup_s": 5, "seed": 9}`

	fetch := func(shards string) (cohort.Partial, *http.Response) {
		body := `{"cohort": ` + cohortBody + `, "shards": ` + shards + `}`
		resp := postJSON(t, ts.URL+"/v1/cohort/part", body)
		raw := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("part status %d: %s", resp.StatusCode, raw)
		}
		var pb struct {
			Key     string         `json:"key"`
			Partial cohort.Partial `json:"partial"`
		}
		if err := json.Unmarshal(raw, &pb); err != nil {
			t.Fatalf("part body: %v\n%s", err, raw)
		}
		return pb.Partial, resp
	}

	p1, resp := fetch(`[0, 2]`)
	if got := resp.Header.Get("X-Dvfsd-Cache"); got != "miss" {
		t.Fatalf("first part cache header = %q, want miss", got)
	}
	if resp.Header.Get("X-Dvfsd-Queue-Depth") == "" {
		t.Fatal("part response missing X-Dvfsd-Queue-Depth load header")
	}
	p2, _ := fetch(`[3, 1]`)

	merged, err := cohort.MergeParts([]cohort.Partial{p1, p2})
	if err != nil {
		t.Fatalf("merge: %v", err)
	}

	cfg := cohort.DefaultConfig()
	cfg.Base.Duration = 6 * sim.Second
	cfg.Base.Horizon = cfg.Base.EffectiveHorizon()
	cfg.Viewers = 12
	cfg.Shards = 4
	cfg.Rollup = 5 * sim.Second
	cfg.Seed = 9
	direct, err := cohort.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, direct) {
		t.Fatalf("merged HTTP parts drifted from direct run:\nmerged: %+v\ndirect: %+v", merged, direct)
	}

	// Same shard set again (any spelling): cache hit.
	_, resp = fetch(`[2, 0]`)
	if got := resp.Header.Get("X-Dvfsd-Cache"); got != "hit" {
		t.Fatalf("repeat part cache header = %q, want hit", got)
	}

	// Bad shard sets are client errors with the invalid_config envelope,
	// before and after a valid subset of them has been cached: the answer
	// to a body must not depend on what the cache holds.
	badSets := []string{`[]`, `[9]`, `[0, 0]`, `[-1]`}
	postBad := func() {
		for _, shards := range badSets {
			resp := postJSON(t, ts.URL+"/v1/cohort/part", `{"cohort": `+cohortBody+`, "shards": `+shards+`}`)
			raw := readAll(t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("shards %s: status %d, want 400 (%s)", shards, resp.StatusCode, raw)
			}
		}
	}
	postBad()
	fetch(`[0]`)
	postBad()
}

// A traced run ends by the streaming failure rule. Turned away before its
// first byte, it gets what an untraced run gets: 429, a positive integer
// Retry-After, an overloaded envelope and a count on /metrics. Failing
// after its event lines, it ends with one envelope line carrying the
// failure's own code.
func TestRunTraceFailureRule(t *testing.T) {
	t.Run("full queue", func(t *testing.T) {
		ts := fullServer(t)
		resp := postJSON(t, ts.URL+"/v1/run?trace=jsonl", `{"duration_s": 5, "seed": 99}`)
		raw := readAll(t, resp)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("traced run on a full queue got %d, want 429: %s", resp.StatusCode, raw)
		}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
			t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
		}
		var eb Envelope
		if err := json.Unmarshal(raw, &eb); err != nil || eb.Error.Code != CodeOverloaded {
			t.Fatalf("429 body is not an %q envelope: %s", CodeOverloaded, raw)
		}
		if m := string(readAll(t, mustGet(t, ts.URL+"/metrics"))); !strings.Contains(m, "dvfsd_requests_rejected_total 1\n") {
			t.Fatalf("the bounce is not counted:\n%s", m)
		}
	})

	t.Run("horizon", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})
		resp := postJSON(t, ts.URL+"/v1/run?trace=jsonl", `{"duration_s": 30, "horizon_s": 5}`)
		raw := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200 with the events streamed: %.200s", resp.StatusCode, raw)
		}
		lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
		if len(lines) < 2 {
			t.Fatalf("no event lines before the failure: %s", raw)
		}
		var eb Envelope
		if err := json.Unmarshal(lines[len(lines)-1], &eb); err != nil || eb.Error.Code != CodeHorizonExceeded {
			t.Fatalf("last line is not a %q envelope: %s", CodeHorizonExceeded, lines[len(lines)-1])
		}
	})
}
