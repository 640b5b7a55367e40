package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"videodvfs/internal/cohort"
	"videodvfs/internal/experiments"
	"videodvfs/internal/sim"
)

// newTestServer starts a service over httptest. Tests that need scripted
// runs pass a Runner; nil uses the real simulator.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func decodeRunBody(t *testing.T, b []byte) (string, experiments.RunResult) {
	t.Helper()
	var body struct {
		Key    string                `json:"key"`
		Result experiments.RunResult `json:"result"`
	}
	if err := json.Unmarshal(b, &body); err != nil {
		t.Fatalf("decoding run body: %v\n%s", err, b)
	}
	return body.Key, body.Result
}

// The service must serve exactly what the library computes: a run round-
// tripped through HTTP/JSON is DeepEqual to the direct Run result.
func TestRunRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/run", `{"duration_s": 10, "seed": 3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	if got := resp.Header.Get("X-Dvfsd-Cache"); got != "miss" {
		t.Fatalf("first request cache header = %q, want miss", got)
	}
	key, served := decodeRunBody(t, readAll(t, resp))

	cfg := experiments.DefaultRunConfig()
	cfg.Duration = 10 * sim.Second
	cfg.Seed = 3
	direct, err := experiments.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(served, direct) {
		t.Fatalf("served result drifted from direct Run:\nserved: %+v\ndirect: %+v", served, direct)
	}
	cfg.Horizon = cfg.EffectiveHorizon() // the horizon the server pins
	wantKey, _ := experiments.ConfigKey(cfg)
	if key != wantKey {
		t.Fatalf("served key %s, want canonical %s", key, wantKey)
	}
}

// A cache hit must be byte-identical to the miss that populated it.
func TestCacheHitByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const body = `{"duration_s": 8, "seed": 11}`
	first := postJSON(t, ts.URL+"/v1/run", body)
	firstBytes := readAll(t, first)
	second := postJSON(t, ts.URL+"/v1/run", body)
	secondBytes := readAll(t, second)
	if got := second.Header.Get("X-Dvfsd-Cache"); got != "hit" {
		t.Fatalf("second request cache header = %q, want hit", got)
	}
	if !bytes.Equal(firstBytes, secondBytes) {
		t.Fatalf("cache hit body differs from the miss:\nmiss: %s\nhit:  %s", firstBytes, secondBytes)
	}
	if hits, _, _ := s.CacheStats(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	// The same config phrased differently (explicit defaults) must hit
	// the same content-addressed entry.
	third := postJSON(t, ts.URL+"/v1/run", `{"duration_s": 8, "seed": 11, "governor": "energyaware", "rung": "720p"}`)
	thirdBytes := readAll(t, third)
	if got := third.Header.Get("X-Dvfsd-Cache"); got != "hit" {
		t.Fatalf("equivalent request cache header = %q, want hit", got)
	}
	if !bytes.Equal(firstBytes, thirdBytes) {
		t.Fatal("equivalent config served different bytes")
	}
}

// N identical concurrent requests must coalesce into one simulation.
func TestSingleflightCoalesces(t *testing.T) {
	var ran atomic.Int64
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers: 4,
		Runner: func(cfg experiments.RunConfig) (experiments.RunResult, error) {
			ran.Add(1)
			<-gate
			return experiments.RunResult{Governor: string(cfg.Governor), SimEnd: cfg.Duration}, nil
		},
	})
	const clients = 8
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(`{"duration_s": 5}`))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			bodies[i], _ = io.ReadAll(resp.Body)
		}()
	}
	// Release only once every client is accounted for at the cache — one
	// leader (miss) plus seven coalesced followers — so no follower can
	// arrive late and be served as a plain hit.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, misses, coalesced := s.CacheStats()
		if misses+coalesced == clients {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("clients never converged on one flight: misses=%d coalesced=%d", misses, coalesced)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if got := ran.Load(); got != 1 {
		t.Fatalf("runner executed %d times for %d identical requests, want 1", got, clients)
	}
	_, misses, coalesced := s.CacheStats()
	if misses != 1 || coalesced != int64(clients-1) {
		t.Fatalf("cache stats: misses=%d coalesced=%d, want 1 and %d", misses, coalesced, clients-1)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d got different bytes than client 0", i)
		}
	}
	// The coalescing must be observable on /metrics too.
	metrics := readAll(t, mustGet(t, ts.URL+"/metrics"))
	if !strings.Contains(string(metrics), "dvfsd_cache_coalesced_total 7") {
		t.Fatalf("metrics missing coalesced counter:\n%s", metrics)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// fullServer starts a one-worker, one-slot service whose scripted runs
// block until release is called or the test ends, and fills it: one run
// on the worker, one parked in the queue. Every later admission bounces.
func fullServer(t *testing.T) (ts *httptest.Server, release func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	started := make(chan struct{}, 16)
	_, ts = newTestServer(t, Config{
		Workers: 1,
		Queue:   1,
		Runner: func(cfg experiments.RunConfig) (experiments.RunResult, error) {
			started <- struct{}{}
			<-gate
			return experiments.RunResult{SimEnd: cfg.Duration}, nil
		},
	})
	t.Cleanup(release) // before the server's cleanup drains the pool

	// Occupy the worker, then the single queue slot. Distinct seeds keep
	// the requests from coalescing in the cache instead of queueing.
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/run", "application/json",
				strings.NewReader(fmt.Sprintf(`{"duration_s": 5, "seed": %d}`, i+1)))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	<-started // worker busy
	// Wait (via /metrics, like an operator would) for the second request
	// to be parked in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := string(readAll(t, mustGet(t, ts.URL+"/metrics"))); strings.Contains(m, "dvfsd_queue_depth 1") {
			return ts, release
		}
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the queue")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A full queue must bounce with 429 + Retry-After, not block or drop.
func TestQueueFull429(t *testing.T) {
	ts, _ := fullServer(t)
	resp := postJSON(t, ts.URL+"/v1/run", `{"duration_s": 5, "seed": 99}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full-queue request got %d, want 429: %s", resp.StatusCode, readAll(t, resp))
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	var eb Envelope
	if err := json.Unmarshal(readAll(t, resp), &eb); err != nil || eb.Error.Code != CodeOverloaded {
		t.Fatalf("429 body is not an %q envelope: %v %+v", CodeOverloaded, err, eb)
	}
	if eb.Error.Message == "" {
		t.Fatal("429 envelope has no message")
	}
}

// Shutdown must drain: an accepted run completes and its client gets a
// 200 even though the server started draining mid-run.
func TestShutdownDrains(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s := New(Config{
		Workers: 1,
		Runner: func(cfg experiments.RunConfig) (experiments.RunResult, error) {
			once.Do(func() { close(started) })
			<-gate
			return experiments.RunResult{Governor: "drained", SimEnd: cfg.Duration}, nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	respc := make(chan *http.Response, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(`{"duration_s": 5}`))
		if err != nil {
			errc <- err
			return
		}
		respc <- resp
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// While draining, new work must be refused…
	time.Sleep(20 * time.Millisecond)
	if resp := postJSON(t, ts.URL+"/v1/run", `{"duration_s": 5, "seed": 2}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain got %d, want 503", resp.StatusCode)
	} else {
		var eb Envelope
		if err := json.Unmarshal(readAll(t, resp), &eb); err != nil || eb.Error.Code != CodeDraining {
			t.Fatalf("503 body is not a %q envelope: %+v", CodeDraining, eb)
		}
	}
	if resp := mustGet(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain got %d, want 503", resp.StatusCode)
	} else {
		readAll(t, resp)
	}

	// …and the accepted run must still finish.
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while a run was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-errc:
		t.Fatalf("drained client failed: %v", err)
	case resp := <-respc:
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("drained run got status %d", resp.StatusCode)
		}
		_, res := decodeRunBody(t, readAll(t, resp))
		if res.Governor != "drained" {
			t.Fatalf("drained run result corrupted: %+v", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("accepted run's response never arrived")
	}
}

// Concurrent mixed clients under -race: identical configs must produce
// identical bytes, every request must succeed, and the hit ratio must be
// visible on /metrics.
func TestConcurrentClientsHammer(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, Queue: 64})
	const clients = 24
	type got struct {
		seed int
		body []byte
	}
	results := make([]got, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seed := i%3 + 1 // three distinct configs, heavily repeated
			resp, err := http.Post(ts.URL+"/v1/run", "application/json",
				strings.NewReader(fmt.Sprintf(`{"duration_s": 6, "seed": %d}`, seed)))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				t.Errorf("client %d: status %d: %s", i, resp.StatusCode, b)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			results[i] = got{seed, body}
		}()
	}
	wg.Wait()
	bySeed := map[int][]byte{}
	for i, r := range results {
		if r.body == nil {
			t.Fatalf("client %d got no body", i)
		}
		if prev, ok := bySeed[r.seed]; ok {
			if !bytes.Equal(prev, r.body) {
				t.Fatalf("seed %d served two different bodies", r.seed)
			}
		} else {
			bySeed[r.seed] = r.body
		}
	}
	// Every duplicate was served without a fresh simulation: either as a
	// plain hit or by coalescing onto the in-flight leader. (Under full
	// concurrency all duplicates may coalesce, so hits alone can be 0
	// here.)
	if hits, misses, coalesced := s.CacheStats(); misses != 3 || hits+coalesced != clients-3 {
		t.Fatalf("hammer stats hits=%d misses=%d coalesced=%d, want 3 misses and %d hits+coalesced",
			hits, misses, coalesced, clients-3)
	}

	// Now that the flights have landed, a repeat of each config must be a
	// plain memory hit, and /metrics must report a positive hit ratio.
	for seed := 1; seed <= 3; seed++ {
		resp := postJSON(t, ts.URL+"/v1/run", fmt.Sprintf(`{"duration_s": 6, "seed": %d}`, seed))
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-hammer seed %d: status %d: %s", seed, resp.StatusCode, body)
		}
		if c := resp.Header.Get("X-Dvfsd-Cache"); c != "hit" {
			t.Fatalf("post-hammer seed %d: cache status %q, want hit", seed, c)
		}
		if !bytes.Equal(body, bySeed[seed]) {
			t.Fatalf("post-hammer seed %d served a different body than the hammer", seed)
		}
	}
	metrics := string(readAll(t, mustGet(t, ts.URL+"/metrics")))
	var ratio float64
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "dvfsd_cache_hit_ratio ") {
			fmt.Sscanf(line, "dvfsd_cache_hit_ratio %g", &ratio)
		}
	}
	if ratio <= 0 {
		t.Fatalf("hammer of repeated configs reported hit ratio %v, want > 0:\n%s", ratio, metrics)
	}
}

// The sweep endpoint must serve the same results as the direct batch
// path, in expansion order, sharing cache entries with /v1/run.
func TestSweepRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/sweep",
		`{"base": {"duration_s": 6}, "governors": ["performance", "energyaware"], "seed_range": [1, 2]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	var body struct {
		Count    int `json:"count"`
		Outcomes []struct {
			Index int             `json:"index"`
			Run   json.RawMessage `json:"run"`
			Error string          `json:"error"`
		} `json:"outcomes"`
	}
	if err := json.Unmarshal(readAll(t, resp), &body); err != nil {
		t.Fatal(err)
	}
	if body.Count != 4 || len(body.Outcomes) != 4 {
		t.Fatalf("sweep returned %d outcomes, want 4", body.Count)
	}

	base := experiments.DefaultRunConfig()
	base.Duration = 6 * sim.Second
	sw := experiments.Sweep{
		Base:      base,
		Governors: []experiments.GovernorID{experiments.GovPerformance, experiments.GovEnergyAware},
		Seeds:     []int64{1, 2},
	}
	direct := experiments.RunAll(sw.Expand(), 2)
	for i, o := range body.Outcomes {
		if o.Error != "" {
			t.Fatalf("outcome %d failed: %s", i, o.Error)
		}
		if o.Index != i {
			t.Fatalf("outcome %d carries index %d — order lost", i, o.Index)
		}
		var rb struct {
			Result experiments.RunResult `json:"result"`
		}
		if err := json.Unmarshal(o.Run, &rb); err != nil {
			t.Fatal(err)
		}
		if direct[i].Err != nil {
			t.Fatalf("direct run %d: %v", i, direct[i].Err)
		}
		if !reflect.DeepEqual(rb.Result, direct[i].Result) {
			t.Fatalf("sweep point %d drifted from the direct campaign path:\nserved: %+v\ndirect: %+v",
				i, rb.Result, direct[i].Result)
		}
	}
	// A single run of one sweep point must now be a cache hit — the two
	// endpoints share the content-addressed store.
	single := postJSON(t, ts.URL+"/v1/run", `{"duration_s": 6, "governor": "performance", "seed": 2}`)
	if got := single.Header.Get("X-Dvfsd-Cache"); got != "hit" {
		t.Fatalf("run after sweep cache header = %q, want hit", got)
	}
	readAll(t, single)
}

// The sweep body splices stored run bodies instead of re-encoding them;
// its bytes must still be exactly what marshalling the SweepBody they
// decode to writes, error outcomes included.
func TestSweepBodySplicesMarshalBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{Runner: func(cfg experiments.RunConfig) (experiments.RunResult, error) {
		if cfg.Seed == 2 {
			return experiments.RunResult{}, fmt.Errorf("scripted <failure> & co for seed %d", cfg.Seed)
		}
		return experiments.Run(cfg)
	}})
	resp := postJSON(t, ts.URL+"/v1/sweep", `{"base": {"duration_s": 4}, "governors": ["ondemand", "energyaware"], "seeds": [1, 2, 3]}`)
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var sw SweepBody
	if err := json.Unmarshal(raw, &sw); err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, o := range sw.Outcomes {
		if o.Error != "" {
			failed++
		}
	}
	if sw.Count != 6 || failed != 2 {
		t.Fatalf("want 6 outcomes, 2 of them errors: %s", raw)
	}
	want, err := json.Marshal(sw)
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(raw, want) {
		t.Fatalf("served sweep body differs from its marshalled SweepBody:\nserved:    %s\nmarshaled: %s", raw, want)
	}
}

// runSweepOutcomes posts one sweep and returns the raw per-point run
// bodies — the exact bytes the content-addressed cache stores.
func runSweepOutcomes(t *testing.T, url, req string) []json.RawMessage {
	t.Helper()
	resp := postJSON(t, url+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	var body struct {
		Outcomes []struct {
			Run   json.RawMessage `json:"run"`
			Error string          `json:"error"`
		} `json:"outcomes"`
	}
	if err := json.Unmarshal(readAll(t, resp), &body); err != nil {
		t.Fatal(err)
	}
	out := make([]json.RawMessage, len(body.Outcomes))
	for i, o := range body.Outcomes {
		if o.Error != "" {
			t.Fatalf("sweep point %d failed: %s", i, o.Error)
		}
		out[i] = o.Run
	}
	return out
}

// TestSweepRecycledSessionCacheBytes pins the daemon's arena-reuse
// contract: cache-miss sweep points computed on RECYCLED sessions (the
// production default — workers draw battered arenas from the pool) must
// write byte-identical ConfigKey cache entries to the same sweep computed
// on fresh-per-run sessions, which a Runner building a new arena for each
// run provides. The pool is deliberately dirtied first with dissimilar
// configs so the sweep's misses land on recycled arenas, not pristine
// ones.
func TestSweepRecycledSessionCacheBytes(t *testing.T) {
	const sweepReq = `{"base": {"duration_s": 6, "seed": 9},
		"governors": ["performance", "ondemand", "energyaware"], "seed_range": [9, 10]}`

	fresh := func(cfg experiments.RunConfig) (experiments.RunResult, error) {
		var res experiments.RunResult
		err := experiments.NewSession().RunInto(cfg, &res)
		return res, err
	}
	_, freshTS := newTestServer(t, Config{Workers: 2, Runner: fresh})
	freshRuns := runSweepOutcomes(t, freshTS.URL, sweepReq)

	_, recycledTS := newTestServer(t, Config{Workers: 2})
	// Dirty the arena pool: runs whose device, network, idle model, and
	// ABR all differ from the sweep's points.
	for _, warm := range []string{
		`{"duration_s": 4, "device": "midrange", "net": "lte", "abr": "bba", "seed": 77}`,
		`{"duration_s": 5, "device": "efficient", "net": "umts", "cstates": true, "seed": 78}`,
	} {
		resp := postJSON(t, recycledTS.URL+"/v1/run", warm)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm run status %d: %s", resp.StatusCode, readAll(t, resp))
		}
		readAll(t, resp)
	}
	recycledRuns := runSweepOutcomes(t, recycledTS.URL, sweepReq)

	if len(freshRuns) != len(recycledRuns) {
		t.Fatalf("outcome counts differ: fresh %d, recycled %d", len(freshRuns), len(recycledRuns))
	}
	for i := range freshRuns {
		if !bytes.Equal(freshRuns[i], recycledRuns[i]) {
			t.Errorf("sweep point %d: recycled-session cache entry differs from fresh-session entry\nfresh:    %s\nrecycled: %s",
				i, freshRuns[i], recycledRuns[i])
		}
	}
	// Re-sweeping on the recycled server must now serve every point from
	// the cache, bytes unchanged — recycled compute populated real entries.
	again := runSweepOutcomes(t, recycledTS.URL, sweepReq)
	for i := range again {
		if !bytes.Equal(recycledRuns[i], again[i]) {
			t.Errorf("sweep point %d: cache hit differs from the recycled miss that stored it", i)
		}
	}
}

// For a sample of experiment IDs, the table served by the daemon must be
// DeepEqual to the one the direct campaign.RunAll-backed builder
// produces — no drift between service and CLI.
func TestExperimentCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five full experiment builders")
	}
	_, ts := newTestServer(t, Config{})
	for _, id := range []string{"t1", "f1", "f3", "f7", "t4"} {
		resp := postJSON(t, ts.URL+"/v1/experiments/"+id, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", id, resp.StatusCode, readAll(t, resp))
		}
		var body struct {
			ID    string            `json:"id"`
			Table experiments.Table `json:"table"`
		}
		if err := json.Unmarshal(readAll(t, resp), &body); err != nil {
			t.Fatal(err)
		}
		builder, err := experiments.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := builder()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(body.Table, direct) {
			t.Fatalf("experiment %s drifted between service and direct path:\nserved: %+v\ndirect: %+v",
				id, body.Table, direct)
		}
	}
}

// The trace mode must stream the run's JSONL events and close with a
// result line carrying the same outcome as an untraced run.
func TestRunTraceStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/run?trace=jsonl", `{"duration_s": 5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	lines := bytes.Split(bytes.TrimSpace(readAll(t, resp)), []byte("\n"))
	if len(lines) < 100 {
		t.Fatalf("trace stream has only %d lines", len(lines))
	}
	for i, ln := range lines {
		if !json.Valid(ln) {
			t.Fatalf("line %d is not valid JSON: %s", i, ln)
		}
	}
	var final struct {
		Ev     string                `json:"ev"`
		Result experiments.RunResult `json:"result"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &final); err != nil {
		t.Fatal(err)
	}
	if final.Ev != "result" || !final.Result.QoE.Completed {
		t.Fatalf("final trace line is not a completed result: %s", lines[len(lines)-1])
	}
}

// Every failure path of every endpoint must answer with the one
// documented envelope {"error":{"code","message"}} and the right
// status/code pair. (429 is exercised with scripted load in
// TestQueueFull429, 422 in TestHorizonExceeded422, and 503 in
// TestShutdownDrains, against the same envelope.)
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
		wantStatus       int
		wantCode         string
	}{
		{"malformed JSON", "/v1/run", `{"duration`, http.StatusBadRequest, CodeBadRequest},
		{"unknown field", "/v1/run", `{"durations": 5}`, http.StatusBadRequest, CodeBadRequest},
		{"trailing garbage", "/v1/run", `{} {}`, http.StatusBadRequest, CodeBadRequest},
		{"stray closing brace", "/v1/run", `{"duration_s": 5}}`, http.StatusBadRequest, CodeBadRequest},
		{"stray closing bracket", "/v1/sweep", `{"base": {}} ]`, http.StatusBadRequest, CodeBadRequest},
		{"sweep part unknown field", "/v1/sweep/part", `{"sweep": {}, "points": [0], "shards": [0]}`, http.StatusBadRequest, CodeBadRequest},
		{"sweep part bad sweep", "/v1/sweep/part", `{"sweep": {"nets": ["5g"]}, "points": [0]}`, http.StatusBadRequest, CodeInvalidConfig},
		{"unknown governor", "/v1/run", `{"governor": "warpdrive"}`, http.StatusBadRequest, CodeInvalidConfig},
		{"unknown device", "/v1/run", `{"device": "mainframe"}`, http.StatusBadRequest, CodeInvalidConfig},
		{"unknown net", "/v1/run", `{"net": "5g"}`, http.StatusBadRequest, CodeInvalidConfig},
		{"negative duration", "/v1/run", `{"duration_s": -3}`, http.StatusBadRequest, CodeInvalidConfig},
		{"over duration cap", "/v1/run", `{"duration_s": 1e9}`, http.StatusBadRequest, CodeInvalidConfig},
		{"unknown trace mode", "/v1/run?trace=csv", `{}`, http.StatusBadRequest, CodeBadRequest},
		{"bad strict value", "/v1/run?strict=yes", `{}`, http.StatusBadRequest, CodeBadRequest},
		{"oversized body", "/v1/run", `{"codec": "` + strings.Repeat("x", MaxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"sweep seeds conflict", "/v1/sweep", `{"base": {}, "seeds": [1], "seed_range": [1, 2]}`, http.StatusBadRequest, CodeInvalidConfig},
		{"sweep too large", "/v1/sweep", `{"base": {}, "seed_range": [1, 100000]}`, http.StatusBadRequest, CodeInvalidConfig},
		{"sweep unknown net", "/v1/sweep", `{"base": {}, "nets": ["5g"]}`, http.StatusBadRequest, CodeInvalidConfig},
		{"unknown experiment", "/v1/experiments/zz", ``, http.StatusNotFound, CodeNotFound},
		{"cohort malformed", "/v1/cohort", `{"viewers`, http.StatusBadRequest, CodeBadRequest},
		{"cohort unknown field", "/v1/cohort", `{"spectators": 5}`, http.StatusBadRequest, CodeBadRequest},
		{"cohort bad arrival", "/v1/cohort", `{"arrival": "flashmob"}`, http.StatusBadRequest, CodeInvalidConfig},
		{"cohort bad base net", "/v1/cohort", `{"base": {"net": "5g"}}`, http.StatusBadRequest, CodeInvalidConfig},
		{"cohort bad cell", "/v1/cohort", `{"cell": {"capacity_mbps": -1}}`, http.StatusBadRequest, CodeInvalidConfig},
		{"cohort over viewer cap", "/v1/cohort", `{"viewers": 99000000}`, http.StatusBadRequest, CodeInvalidConfig},
		{"cohort bad stream value", "/v1/cohort?stream=maybe", `{}`, http.StatusBadRequest, CodeBadRequest},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+tc.path, tc.body)
		b := readAll(t, resp)
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.wantStatus, b)
			continue
		}
		var eb Envelope
		if err := json.Unmarshal(b, &eb); err != nil || eb.Error.Code != tc.wantCode {
			t.Errorf("%s: body is not an %q envelope: %s", tc.name, tc.wantCode, b)
			continue
		}
		if eb.Error.Message == "" {
			t.Errorf("%s: envelope has no message", tc.name)
		}
	}
}

// A request whose scenario cannot complete within its horizon is a 422,
// not a 500 — the simulation worked, the scenario starved.
func TestHorizonExceeded422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/run", `{"duration_s": 30, "horizon_s": 5}`)
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, b)
	}
	var eb Envelope
	if err := json.Unmarshal(b, &eb); err != nil || eb.Error.Code != CodeHorizonExceeded {
		t.Fatalf("422 body is not a %q envelope: %s", CodeHorizonExceeded, b)
	}
}

func TestHealthAndCatalog(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := mustGet(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	readAll(t, resp)

	resp = mustGet(t, ts.URL+"/v1/catalog")
	var cat struct {
		Devices   []string `json:"devices"`
		Governors []string `json:"governors"`
		Nets      []string `json:"nets"`
	}
	if err := json.Unmarshal(readAll(t, resp), &cat); err != nil {
		t.Fatal(err)
	}
	if len(cat.Devices) != 3 || len(cat.Governors) != 8 || len(cat.Nets) != 5 {
		t.Fatalf("catalog incomplete: %+v", cat)
	}

	resp = mustGet(t, ts.URL+"/v1/experiments")
	var ids struct {
		IDs []string `json:"ids"`
	}
	if err := json.Unmarshal(readAll(t, resp), &ids); err != nil {
		t.Fatal(err)
	}
	if len(ids.IDs) != 30 {
		t.Fatalf("experiment list has %d IDs, want 30", len(ids.IDs))
	}
}

func TestMetricsShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	readAll(t, postJSON(t, ts.URL+"/v1/run", `{"duration_s": 5}`))
	body := string(readAll(t, mustGet(t, ts.URL+"/metrics")))
	for _, want := range []string{
		"dvfsd_uptime_seconds ",
		`dvfsd_requests_total{endpoint="run"} 1`,
		"dvfsd_queue_depth ",
		"dvfsd_runs_total 1",
		"dvfsd_runs_per_sec ",
		`dvfsd_run_latency_seconds{quantile="0.5"} `,
		`dvfsd_run_latency_seconds{quantile="0.99"} `,
		"dvfsd_cache_misses_total 1",
		"dvfsd_cache_hit_ratio ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// The default admission queue is 4× the resolved worker count. Workers
// defaults to GOMAXPROCS, so the queue must be sized after that
// resolution, not from the unresolved zero.
func TestDefaultQueueIsFourTimesWorkers(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := string(readAll(t, mustGet(t, ts.URL+"/metrics")))
	workers := runtime.GOMAXPROCS(0)
	for _, want := range []string{
		fmt.Sprintf("dvfsd_workers %d\n", workers),
		fmt.Sprintf("dvfsd_queue_capacity %d\n", 4*workers),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("New(Config{}) metrics missing %q:\n%s", want, body)
		}
	}
}

// ?strict=1 arms the invariant checker and must never be served from the
// result cache: every strict response reflects a re-executed, audited run.
func TestStrictRunBypassesCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const body = `{"duration_s": 8, "seed": 11}`

	// Warm the cache with the plain config so a cache hit is available.
	readAll(t, postJSON(t, ts.URL+"/v1/run", body))

	var strictBytes []byte
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v1/run?strict=1", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("strict run %d: status %d: %s", i, resp.StatusCode, readAll(t, resp))
		}
		if got := resp.Header.Get("X-Dvfsd-Cache"); got != "bypass" {
			t.Fatalf("strict run %d cache header = %q, want bypass", i, got)
		}
		strictBytes = readAll(t, resp)
	}

	// The audited result must agree with the unaudited one: the checker
	// observes, it never perturbs.
	_, strictRes := decodeRunBody(t, strictBytes)
	plain := readAll(t, postJSON(t, ts.URL+"/v1/run", body))
	_, plainRes := decodeRunBody(t, plain)
	if !reflect.DeepEqual(strictRes, plainRes) {
		t.Fatalf("strict result drifted from plain run:\nstrict: %+v\nplain:  %+v", strictRes, plainRes)
	}

	// Garbage strict values are client errors, not silently-off runs.
	resp := postJSON(t, ts.URL+"/v1/run?strict=yes", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("strict=yes: status %d, want 400", resp.StatusCode)
	}
}

// A small cohort body could make dvfsd step and encode one NDJSON frame
// per rollup barrier without limit: a 0.1 ms rollup asked for 36,535
// frames (12.9 MB), a near-zero Poisson rate for 45,916 (26 MB). Both are
// refused with one invalid_config envelope before any frame is written, on
// the buffered and the live-streaming path alike.
func TestCohortRefusesUnboundedBarriers(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"base":{"duration_s":2},"viewers":2,"rollup_s":0.0001}`,
		`{"base":{"duration_s":2},"viewers":2,"arrival":"poisson","arrival_rate_per_sec":0.00001}`,
	} {
		for _, path := range []string{"/v1/cohort", "/v1/cohort?stream=1"} {
			resp := postJSON(t, ts.URL+path, body)
			raw := readAll(t, resp)
			var env Envelope
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &env) != nil || env.Error.Code != "invalid_config" {
				t.Errorf("%s %s: status %d with %d bytes (%.120s), want 400 and one invalid_config envelope",
					path, body, resp.StatusCode, len(raw), raw)
			}
		}
	}
}

// The cohort endpoint must stream rollup frames and a summary whose
// result matches the direct library path, serve repeats byte-identically
// from the cache, and produce the same bytes when live-streaming.
func TestCohortEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const body = `{"base": {"duration_s": 6}, "viewers": 8, "rollup_s": 5, "seed": 4}`

	resp := postJSON(t, ts.URL+"/v1/cohort", body)
	first := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, first)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	if got := resp.Header.Get("X-Dvfsd-Cache"); got != "miss" {
		t.Fatalf("first cohort cache header = %q, want miss", got)
	}
	lines := bytes.Split(bytes.TrimSpace(first), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("cohort stream has only %d lines:\n%s", len(lines), first)
	}
	for i, ln := range lines[:len(lines)-1] {
		var frame struct {
			Ev     string        `json:"ev"`
			Rollup cohort.Rollup `json:"rollup"`
		}
		if err := json.Unmarshal(ln, &frame); err != nil || frame.Ev != "rollup" {
			t.Fatalf("line %d is not a rollup frame: %s", i, ln)
		}
	}
	var final struct {
		Ev     string        `json:"ev"`
		Key    string        `json:"key"`
		Result cohort.Result `json:"result"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &final); err != nil || final.Ev != "summary" {
		t.Fatalf("final line is not a summary: %s", lines[len(lines)-1])
	}
	if final.Result.Completed != 8 || final.Result.Errors != 0 {
		t.Fatalf("cohort did not complete: %+v", final.Result)
	}

	// The served summary must match the direct library path under the
	// same horizon the server pins.
	cfg := cohort.DefaultConfig()
	cfg.Base.Duration = 6 * sim.Second
	cfg.Base.Horizon = cfg.Base.EffectiveHorizon()
	cfg.Viewers = 8
	cfg.Rollup = 5 * sim.Second
	cfg.Seed = 4
	direct, err := cohort.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(final.Result, direct) {
		t.Fatalf("served cohort drifted from direct run:\nserved: %+v\ndirect: %+v", final.Result, direct)
	}
	if wantKey, _ := cohort.Key(cfg); final.Key != wantKey {
		t.Fatalf("served key %s, want canonical %s", final.Key, wantKey)
	}

	// A repeat is a cache hit, byte-identical to the miss.
	resp = postJSON(t, ts.URL+"/v1/cohort", body)
	second := readAll(t, resp)
	if got := resp.Header.Get("X-Dvfsd-Cache"); got != "hit" {
		t.Fatalf("second cohort cache header = %q, want hit", got)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cohort cache hit differs from the miss that stored it")
	}

	// Live streaming bypasses the cache but produces the same bytes —
	// the rollup stream is deterministic either way.
	resp = postJSON(t, ts.URL+"/v1/cohort?stream=1", body)
	streamed := readAll(t, resp)
	if got := resp.Header.Get("X-Dvfsd-Cache"); got != "bypass" {
		t.Fatalf("streamed cohort cache header = %q, want bypass", got)
	}
	if !bytes.Equal(first, streamed) {
		t.Fatalf("streamed cohort differs from cached body:\ncached:\n%sstreamed:\n%s", first, streamed)
	}

	// Strict cohorts are uncacheable: audited, never pinned.
	resp = postJSON(t, ts.URL+"/v1/cohort?strict=1", body)
	readAll(t, resp)
	if got := resp.Header.Get("X-Dvfsd-Cache"); got != "bypass" {
		t.Fatalf("strict cohort cache header = %q, want bypass", got)
	}
}

// A strict sweep audits every expanded point; outcomes match the plain
// sweep and nothing lands in (or comes from) the cache.
func TestStrictSweep(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const body = `{"base": {"duration_s": 5}, "governors": ["ondemand", "energyaware"], "seeds": [1]}`
	resp := postJSON(t, ts.URL+"/v1/sweep?strict=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	var sw SweepBody
	if err := json.Unmarshal(readAll(t, resp), &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Count != 2 {
		t.Fatalf("sweep count = %d, want 2", sw.Count)
	}
	for _, o := range sw.Outcomes {
		if o.Error != "" {
			t.Fatalf("strict sweep point %d failed: %s", o.Index, o.Error)
		}
	}
	if _, misses, _ := s.CacheStats(); misses != 0 {
		t.Fatalf("strict sweep populated the cache: %d misses recorded", misses)
	}
}

// seedRangeEdges are one-line sweep bodies at the ends of the seed
// space. The two wide ranges overflow an int64 count of hi-lo+1 (to 1
// and to a negative size), which slipped under the sweep cap and then
// exhausted memory or panicked in the expansion; the top pair made the
// seed loop wrap past MaxInt64 and never end.
var seedRangeEdges = []struct {
	name, body string
	wantStatus int
	wantRuns   int
}{
	{"whole seed space", `{"base": {"duration_s": 2}, "seed_range": [-9223372036854775808, 9223372036854775807]}`, http.StatusBadRequest, 0},
	{"half the seed space", `{"base": {"duration_s": 2}, "seed_range": [-4611686018427387904, 4611686018427387904]}`, http.StatusBadRequest, 0},
	{"top of the seed space", `{"base": {"duration_s": 2}, "seed_range": [9223372036854775806, 9223372036854775807]}`, http.StatusOK, 2},
}

func TestSweepSeedRangeEdges(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range seedRangeEdges {
		resp := postJSON(t, ts.URL+"/v1/sweep", tc.body)
		b := readAll(t, resp)
		if resp.StatusCode != tc.wantStatus {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.wantStatus, b)
		}
		if tc.wantStatus != http.StatusOK {
			var eb Envelope
			if err := json.Unmarshal(b, &eb); err != nil || eb.Error.Code != CodeInvalidConfig {
				t.Fatalf("%s: body is not an %q envelope: %s", tc.name, CodeInvalidConfig, b)
			}
			continue
		}
		var sw SweepBody
		if err := json.Unmarshal(b, &sw); err != nil || sw.Count != tc.wantRuns || len(sw.Outcomes) != tc.wantRuns {
			t.Fatalf("%s: want %d outcomes: %v %s", tc.name, tc.wantRuns, err, b)
		}
		for _, o := range sw.Outcomes {
			if o.Error != "" {
				t.Fatalf("%s: point %d failed: %s", tc.name, o.Index, o.Error)
			}
		}
	}
}
