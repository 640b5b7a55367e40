package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"videodvfs/internal/cohort"
	"videodvfs/internal/experiments"
	"videodvfs/internal/server"
	"videodvfs/internal/sim"
)

// ---- ring ----

// The ring must spread keys over every worker and, on an ejection, move
// only the ejected worker's keys — the cache-affinity property the whole
// design rests on.
func TestRingSpreadAndMinimalDisruption(t *testing.T) {
	labels := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := newRing(labels)
	allAlive := func(int) bool { return true }

	counts := make([]int, len(labels))
	owner := make(map[string]int, 10000)
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("key-%d", i)
		wi, ok := r.pick(key, allAlive)
		if !ok {
			t.Fatal("pick failed with all workers alive")
		}
		counts[wi]++
		owner[key] = wi
	}
	for wi, n := range counts {
		if n < 1500 {
			t.Errorf("worker %d owns only %d/10000 keys — ring is badly skewed", wi, n)
		}
	}

	// Eject worker 1: its keys must move, everyone else's must not.
	withoutB := func(i int) bool { return i != 1 }
	for key, prev := range owner {
		wi, ok := r.pick(key, withoutB)
		if !ok {
			t.Fatal("pick failed with two workers alive")
		}
		if prev != 1 && wi != prev {
			t.Fatalf("key %q moved from %d to %d though its owner is alive", key, prev, wi)
		}
		if prev == 1 && wi == 1 {
			t.Fatalf("key %q still routes to the ejected worker", key)
		}
	}

	if _, ok := r.pick("anything", func(int) bool { return false }); ok {
		t.Fatal("pick succeeded with no alive workers")
	}
}

// The ring must spread structured keys, not just random ones. A cohort's
// shards are routed by "key/shard/i" and each worker's vnodes are labelled
// "url#v": keys that differ only in a short suffix. Without a finalized
// hash they cluster, and every shard of a cohort lands on one worker.
func TestRingSpreadsSuffixKeys(t *testing.T) {
	rng := sim.Stream(16, "ring-test")
	seq := 0
	hexKey := func() string { // shaped like a content-addressed config key
		seq++
		sum := sha256.Sum256([]byte(strconv.Itoa(seq)))
		return hex.EncodeToString(sum[:])
	}
	ringOf := func(n int) *ring {
		labels := make([]string, n)
		for i := range labels {
			labels[i] = fmt.Sprintf("http://127.0.0.1:%d", 32768+rng.Intn(28232))
		}
		return newRing(labels)
	}
	allAlive := func(int) bool { return true }

	// (a) 8-shard cohorts over 4 workers touch at least 3 of them.
	r := ringOf(4)
	spread := 0
	for k := 0; k < 1000; k++ {
		key := hexKey()
		owners := map[int]bool{}
		for i := 0; i < 8; i++ {
			wi, _ := r.pick(key+"/shard/"+strconv.Itoa(i), allAlive)
			owners[wi] = true
		}
		if len(owners) >= 3 {
			spread++
		}
	}
	if spread < 900 {
		t.Errorf("8-shard cohorts over 4 workers reached ≥ 3 workers for %d/1000 keys, want ≥ 900", spread)
	}

	// (b) Every worker's share of plain keys is near even.
	for _, n := range []int{2, 3, 4, 8} {
		r := ringOf(n)
		counts := make([]int, n)
		for k := 0; k < 10000; k++ {
			wi, _ := r.pick(hexKey(), allAlive)
			counts[wi]++
		}
		for wi, c := range counts {
			if share := float64(c) * float64(n) / 10000; share < 0.6 || share > 1.4 {
				t.Errorf("%d workers: worker %d owns %d/10000 keys (%.2f× even), want within [0.6, 1.4]×", n, wi, c, share)
			}
		}
	}
}

// ---- e2e harness ----

// slowRunner wraps the real simulator with a small fixed wall-time delay
// so a sweep stays in flight long enough to kill a worker under it.
func slowRunner(d time.Duration) func(experiments.RunConfig) (experiments.RunResult, error) {
	return func(cfg experiments.RunConfig) (experiments.RunResult, error) {
		time.Sleep(d)
		return experiments.Run(cfg)
	}
}

// testFleet boots n real dvfsd workers plus a controller over them and
// returns the controller and its base URL, the worker httptest servers
// (for killing), and the single-node reference dvfsd every merged answer
// is compared against.
func testFleet(t *testing.T, n int, workerCfg server.Config, fcfg Config) (*Controller, string, []*httptest.Server, string) {
	t.Helper()
	var urls []string
	var wts []*httptest.Server
	for i := 0; i < n; i++ {
		s := server.New(workerCfg)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		})
		urls = append(urls, ts.URL)
		wts = append(wts, ts)
	}

	ref := server.New(server.Config{})
	refTS := httptest.NewServer(ref.Handler())
	t.Cleanup(func() {
		refTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		ref.Shutdown(ctx)
	})

	fcfg.Workers = urls
	ctl, err := New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(ctl.Handler())
	t.Cleanup(func() {
		cts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		ctl.Shutdown(ctx)
	})
	return ctl, cts.URL, wts, refTS.URL
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

const sweepReq = `{"base": {"duration_s": 6}, "governors": ["ondemand", "energyaware"], "seeds": [1, 2, 3, 4]}`

// A fleet-merged sweep must be byte-identical to a single node's: same
// expansion order, same per-point run bodies, same envelope.
func TestFleetSweepMatchesSingleNode(t *testing.T) {
	_, ctlURL, _, refURL := testFleet(t, 3, server.Config{}, Config{
		Retries: 2, Backoff: 5 * time.Millisecond, ProbeInterval: time.Hour,
	})

	resp, fleetBody := post(t, ctlURL+"/v1/sweep", sweepReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet sweep status %d: %s", resp.StatusCode, fleetBody)
	}
	refResp, refBody := post(t, refURL+"/v1/sweep", sweepReq)
	if refResp.StatusCode != http.StatusOK {
		t.Fatalf("ref sweep status %d: %s", refResp.StatusCode, refBody)
	}
	if !bytes.Equal(fleetBody, refBody) {
		t.Fatalf("fleet sweep differs from single node:\nfleet: %s\nref:   %s", fleetBody, refBody)
	}

	// The routing is cache-affine: a repeat sweep is all hits, visible in
	// the controller's rollup.
	if _, again := post(t, ctlURL+"/v1/sweep", sweepReq); !bytes.Equal(again, refBody) {
		t.Fatal("repeat fleet sweep drifted")
	}
	_, met := getBody(t, ctlURL+"/metrics")
	if !strings.Contains(string(met), "dvfsctl_worker_cache_hits_total") {
		t.Fatalf("metrics missing per-worker cache counters:\n%s", met)
	}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// Killing a worker mid-sweep must not change the answer: the controller
// ejects it, rehashes its in-flight points onto the survivors, and the
// merged response still matches the single-node bytes.
func TestFleetSweepSurvivesWorkerKill(t *testing.T) {
	ctl, ctlURL, workers, refURL := testFleet(t, 3,
		server.Config{Runner: slowRunner(60 * time.Millisecond), Workers: 2},
		Config{Retries: 3, Backoff: 5 * time.Millisecond, EjectAfter: 1, ProbeInterval: time.Hour})

	// Kill a worker the sweep is dispatched to, while the sweep's first
	// wave is still sleeping in the scripted runner. The ring hashes the
	// workers' random httptest ports, so a fixed index may own none of the
	// sweep's points — and a worker never dispatched to is never ejected.
	victim := workers[sweepOwner(t, ctl, sweepReq)]
	killed := make(chan struct{})
	go func() {
		time.Sleep(25 * time.Millisecond)
		victim.CloseClientConnections()
		victim.Close()
		close(killed)
	}()

	resp, fleetBody := post(t, ctlURL+"/v1/sweep", sweepReq)
	<-killed
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet sweep status %d after kill: %s", resp.StatusCode, fleetBody)
	}
	refResp, refBody := post(t, refURL+"/v1/sweep", sweepReq)
	if refResp.StatusCode != http.StatusOK {
		t.Fatalf("ref sweep status %d: %s", refResp.StatusCode, refBody)
	}
	if !bytes.Equal(fleetBody, refBody) {
		t.Fatalf("post-kill fleet sweep differs from single node:\nfleet: %s\nref:   %s", fleetBody, refBody)
	}

	// The dead worker must be gone from routing.
	_, met := getBody(t, ctlURL+"/metrics")
	if !strings.Contains(string(met), fmt.Sprintf("dvfsctl_worker_up{worker=%q} 0", victim.URL)) {
		t.Fatalf("killed worker still marked up:\n%s", met)
	}
}

// sweepOwner returns the index of the worker the controller's ring
// routes the sweep's first point to while every worker is alive.
func sweepOwner(t *testing.T, ctl *Controller, body string) int {
	t.Helper()
	req, err := server.DecodeSweepRequest(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := req.Configs()
	if err != nil {
		t.Fatal(err)
	}
	key, _ := experiments.ConfigKey(cfgs[0])
	wi, ok := ctl.ring.pick(key, func(int) bool { return true })
	if !ok {
		t.Fatal("ring routed the sweep's first point nowhere")
	}
	return wi
}

const cohortReq = `{"base": {"duration_s": 6}, "viewers": 24, "shards": 6, "rollup_s": 5, "seed": 7}`

// summaryOf parses the last NDJSON line of a cohort response.
func summaryOf(t *testing.T, raw []byte) (string, cohort.Result) {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	var frame struct {
		Ev     string        `json:"ev"`
		Key    string        `json:"key"`
		Result cohort.Result `json:"result"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &frame); err != nil || frame.Ev != "summary" {
		t.Fatalf("no summary line: %v\n%s", err, raw)
	}
	return frame.Key, frame.Result
}

// A fleet-sharded cohort must merge to the exact single-node summary —
// with all workers healthy, and again with one worker already dead (its
// shards rehash onto the survivors via ejection).
func TestFleetCohortMatchesSingleNode(t *testing.T) {
	ctl, ctlURL, workers, refURL := testFleet(t, 3, server.Config{}, Config{
		Retries: 2, Backoff: 5 * time.Millisecond, EjectAfter: 1, ProbeInterval: time.Hour,
	})

	// The ring hashes the workers' random ports, so search for a cohort
	// seed whose shards reach at least two workers: the merge must fold
	// parts computed on different workers, not one worker's whole cohort.
	body := ""
	for seed := 7; body == ""; seed++ {
		if seed > 7+64 {
			t.Fatal("no cohort seed routed shards to two workers")
		}
		b := fmt.Sprintf(`{"base": {"duration_s": 6}, "viewers": 24, "shards": 6, "rollup_s": 5, "seed": %d}`, seed)
		if len(cohortOwners(t, ctl, b)) >= 2 {
			body = b
		}
	}

	refResp, refBody := post(t, refURL+"/v1/cohort", body)
	if refResp.StatusCode != http.StatusOK {
		t.Fatalf("ref cohort status %d: %s", refResp.StatusCode, refBody)
	}
	refKey, refResult := summaryOf(t, refBody)

	resp, fleetBody := post(t, ctlURL+"/v1/cohort", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet cohort status %d: %s", resp.StatusCode, fleetBody)
	}
	key, result := summaryOf(t, fleetBody)
	if key != refKey {
		t.Fatalf("fleet cohort key %s, want %s", key, refKey)
	}
	if !reflect.DeepEqual(result, refResult) {
		t.Fatalf("fleet cohort differs from single node:\nfleet: %+v\nref:   %+v", result, refResult)
	}

	// Kill a worker, then run again: its shards must rehash and the
	// merged result must not change.
	workers[1].CloseClientConnections()
	workers[1].Close()
	resp, fleetBody = post(t, ctlURL+"/v1/cohort", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet cohort status %d after kill: %s", resp.StatusCode, fleetBody)
	}
	if _, result = summaryOf(t, fleetBody); !reflect.DeepEqual(result, refResult) {
		t.Fatalf("post-kill fleet cohort differs:\nfleet: %+v\nref:   %+v", result, refResult)
	}
}

// A worker answering 429 is load, not death: after the retry budget the
// controller passes the 429 through with the worker's Retry-After hint
// clamped to ≥ 1 — even when the worker (degenerately) says 0.
func TestFleet429CarryThroughClamped(t *testing.T) {
	var hits atomic.Int64
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		hits.Add(1)
		w.Header().Set("Retry-After", "0") // degenerate hint
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, `{"error":{"code":"overloaded","message":"queue full"}}`)
	}))
	t.Cleanup(busy.Close)

	ctl, err := New(Config{
		Workers: []string{busy.URL}, Retries: 1,
		Backoff: time.Millisecond, ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(ctl.Handler())
	t.Cleanup(func() {
		cts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ctl.Shutdown(ctx)
	})

	resp, raw := post(t, cts.URL+"/v1/sweep", `{"base": {"duration_s": 6}, "seeds": [1, 2]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, raw)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want clamped ≥ 1", ra)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != "overloaded" {
		t.Fatalf("envelope = %s", raw)
	}
	if got := hits.Load(); got < 4 { // 2 points × (1 try + 1 retry)
		t.Fatalf("worker saw %d attempts, want ≥4 (retry budget not honored)", got)
	}
}

// With every worker dead the controller must answer 503/no_workers, and
// a revived worker must come back via the health probe.
func TestFleetNoWorkersAndRevival(t *testing.T) {
	s := server.New(server.Config{})
	var down atomic.Bool
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		gate.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	ctl, err := New(Config{
		Workers: []string{gate.URL}, Retries: 0,
		Backoff: time.Millisecond, EjectAfter: 1, ProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(ctl.Handler())
	t.Cleanup(func() {
		cts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ctl.Shutdown(ctx)
	})

	down.Store(true)
	resp, raw := post(t, cts.URL+"/v1/cohort", cohortReq)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d with all workers dead, want 503: %s", resp.StatusCode, raw)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != CodeNoWorkers {
		t.Fatalf("envelope = %s, want code %q", raw, CodeNoWorkers)
	}
	if hresp, _ := getBody(t, cts.URL+"/healthz"); hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d with no alive workers, want 503", hresp.StatusCode)
	}

	// Revive: the probe loop must bring the worker back without traffic.
	down.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if hresp, _ := getBody(t, cts.URL+"/healthz"); hresp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never revived via health probe")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if resp, raw := post(t, cts.URL+"/v1/cohort", cohortReq); resp.StatusCode != http.StatusOK {
		t.Fatalf("cohort after revival: status %d: %s", resp.StatusCode, raw)
	}
}

// The default worker client must keep a connection per concurrent
// dispatch alive between sweeps: with net/http's default of 2 idle
// connections per host, every burst of Concurrency dispatches to one
// worker closed and redialed the rest.
func TestDefaultClientReusesWorkerConnections(t *testing.T) {
	var dials atomic.Int64
	s := server.New(server.Config{})
	wts := httptest.NewUnstartedServer(s.Handler())
	wts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	wts.Start()
	t.Cleanup(func() {
		wts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	ctl, err := New(Config{Workers: []string{wts.URL}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(ctl.Handler())
	t.Cleanup(func() {
		cts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		ctl.Shutdown(ctx)
	})

	const sweep = `{"base": {"duration_s": 2}, "seeds": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]}`
	for i := 0; i < 20; i++ {
		if resp, raw := post(t, cts.URL+"/v1/sweep", sweep); resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep %d: status %d: %s", i, resp.StatusCode, raw)
		}
	}
	if n, limit := dials.Load(), int64(ctl.cfg.Concurrency); n > limit {
		t.Fatalf("20 sweeps opened %d worker connections, want at most Concurrency = %d", n, limit)
	}
}

// Health probes must not queue behind dispatches. The default client caps
// each worker at Concurrency connections, so with every one of them held
// by a slow run on worker A, a probe sharing that pool would wait for a
// run to finish (up to Timeout) and stall the probe loop for every
// worker behind A: here, an ejected worker B that has come back.
func TestProbeNotBlockedBySaturatedWorker(t *testing.T) {
	sa, sb := server.New(server.Config{}), server.New(server.Config{})
	var held atomic.Int64
	release := make(chan struct{})
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			held.Add(1)
			<-release
		}
		sa.Handler().ServeHTTP(w, r)
	}))
	var bDown atomic.Bool
	bDown.Store(true)
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if bDown.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		sb.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		a.Close()
		b.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		sa.Shutdown(ctx)
		sb.Shutdown(ctx)
	})

	const interval = 50 * time.Millisecond
	ctl, err := New(Config{Workers: []string{a.URL, b.URL}, EjectAfter: 1, ProbeInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(ctl.Handler())
	var freeOnce sync.Once
	free := func() { freeOnce.Do(func() { close(release) }) }
	t.Cleanup(func() {
		free()
		cts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		ctl.Shutdown(ctx)
	})
	waitFor := func(what string, d time.Duration, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(d); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: not within %v", what, d)
			}
		}
	}
	waitFor("worker B ejected by its failing probe", 10*time.Second, func() bool { return !ctl.workers[1].alive.Load() })

	// With B ejected, every point of the sweep routes to A.
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(cts.URL+"/v1/sweep", "application/json",
			strings.NewReader(`{"base": {"duration_s": 2}, "seeds": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]}`))
		if err != nil {
			status <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	limit := int64(ctl.cfg.Concurrency)
	waitFor("Concurrency dispatches held on worker A", 10*time.Second, func() bool { return held.Load() == limit })

	bDown.Store(false)
	waitFor("worker B revived by the probe loop", 40*interval, func() bool { return ctl.workers[1].alive.Load() })
	if n := held.Load(); n != limit {
		t.Fatalf("worker A saw %d dispatches while saturated, want %d", n, limit)
	}
	free()
	if code := <-status; code != http.StatusOK {
		t.Fatalf("sweep after release: status %d", code)
	}
}

// serveWorker serves one dvfsd over httptest, shut down with the test.
func serveWorker(t *testing.T, cfg server.Config) *httptest.Server {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return ts
}

// Sweep bodies at the edges of the wire form. The controller must answer
// each exactly as a single node does, except for a seed 0, which the
// per-run wire form cannot express and the controller refuses whether it
// is listed or spanned by a seed_range. The two wide ranges overflowed
// the sweep's size count and then exhausted memory or panicked in the
// expansion; the top pair made the seed loop wrap and never end; an
// empty nets entry, wifi to a single node, ran the default net.
func TestFleetSweepWireEdges(t *testing.T) {
	_, ctlURL, _, refURL := testFleet(t, 2, server.Config{}, Config{
		Retries: 2, Backoff: 5 * time.Millisecond, ProbeInterval: time.Hour,
	})
	cases := []struct {
		name, body string
		wantStatus int
		wantRuns   int
	}{
		{"whole seed space", `{"base": {"duration_s": 2}, "seed_range": [-9223372036854775808, 9223372036854775807]}`, http.StatusBadRequest, 0},
		{"half the seed space", `{"base": {"duration_s": 2}, "seed_range": [-4611686018427387904, 4611686018427387904]}`, http.StatusBadRequest, 0},
		{"top of the seed space", `{"base": {"duration_s": 2}, "seed_range": [9223372036854775806, 9223372036854775807]}`, http.StatusOK, 2},
		{"seed_range from 0", `{"base": {"duration_s": 2}, "seed_range": [0, 1]}`, http.StatusBadRequest, 0},
		{"seed_range across 0", `{"base": {"duration_s": 2}, "seed_range": [-1, 1]}`, http.StatusBadRequest, 0},
		{"listed seed 0", `{"base": {"duration_s": 2}, "seeds": [0, 1]}`, http.StatusBadRequest, 0},
		{"empty nets entry", `{"base": {"duration_s": 2}, "nets": ["", "lte"]}`, http.StatusOK, 2},
	}
	for _, tc := range cases {
		resp, raw := post(t, ctlURL+"/v1/sweep", tc.body)
		if resp.StatusCode != tc.wantStatus {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.wantStatus, raw)
		}
		if tc.wantStatus != http.StatusOK {
			var env server.Envelope
			if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != server.CodeInvalidConfig {
				t.Fatalf("%s: body is not an %q envelope: %s", tc.name, server.CodeInvalidConfig, raw)
			}
			continue
		}
		var sw server.SweepBody
		if err := json.Unmarshal(raw, &sw); err != nil || sw.Count != tc.wantRuns {
			t.Fatalf("%s: want %d outcomes: %v %s", tc.name, tc.wantRuns, err, raw)
		}
		if _, ref := post(t, refURL+"/v1/sweep", tc.body); !bytes.Equal(raw, ref) {
			t.Fatalf("%s: fleet sweep differs from single node:\nfleet: %s\nref:   %s", tc.name, raw, ref)
		}
	}
}

// The summary key is the one the workers computed under their own
// bounds. With every node capping horizons at 30 s — below cohortReq's
// 96 s default — the fleet's summary line must equal a single node's,
// key included, though the controller knows nothing of the cap.
func TestFleetCohortKeyFromWorkers(t *testing.T) {
	capped := server.Config{MaxHorizon: 30 * sim.Second}
	_, ctlURL, _, _ := testFleet(t, 3, capped, Config{
		Retries: 2, Backoff: 5 * time.Millisecond, ProbeInterval: time.Hour,
	})
	ref := serveWorker(t, capped)

	refResp, refBody := post(t, ref.URL+"/v1/cohort", cohortReq)
	if refResp.StatusCode != http.StatusOK {
		t.Fatalf("ref cohort status %d: %s", refResp.StatusCode, refBody)
	}
	resp, fleetBody := post(t, ctlURL+"/v1/cohort", cohortReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet cohort status %d: %s", resp.StatusCode, fleetBody)
	}
	refLines := bytes.Split(bytes.TrimSpace(refBody), []byte("\n"))
	if got, want := bytes.TrimSpace(fleetBody), refLines[len(refLines)-1]; !bytes.Equal(got, want) {
		t.Fatalf("fleet summary differs from single node:\nfleet: %s\nref:   %s", got, want)
	}
}

// Workers that bound a cohort differently compute different keys for it
// and cut its viewers at different horizons, so their parts merge into
// no single node's answer: the controller must refuse with a 500, never
// answer 200 with a mixed merge.
func TestFleetCohortRefusesMixedWorkerKeys(t *testing.T) {
	short := serveWorker(t, server.Config{MaxHorizon: 20 * sim.Second})
	long := serveWorker(t, server.Config{MaxHorizon: 3600 * sim.Second})
	ctl, err := New(Config{
		Workers: []string{short.URL, long.URL},
		Retries: 2, Backoff: 5 * time.Millisecond, ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(ctl.Handler())
	t.Cleanup(func() {
		cts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		ctl.Shutdown(ctx)
	})

	// The ring hashes the workers' random ports, so search for a cohort
	// seed whose shards route to both workers.
	body := ""
	for seed := 1; body == ""; seed++ {
		if seed > 64 {
			t.Fatal("no cohort seed routed shards to both workers")
		}
		b := fmt.Sprintf(`{"base": {"duration_s": 30}, "viewers": 24, "shards": 6, "rollup_s": 5, "seed": %d}`, seed)
		if len(cohortOwners(t, ctl, b)) == 2 {
			body = b
		}
	}
	resp, raw := post(t, cts.URL+"/v1/cohort", body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d with workers at 20 s and 3600 s horizon caps, want 500: %s", resp.StatusCode, raw)
	}
	var env server.Envelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != server.CodeInternal {
		t.Fatalf("body is not an %q envelope: %s", server.CodeInternal, raw)
	}
}

// cohortOwners returns the workers the controller's ring routes a
// cohort's shards to while every worker is alive.
func cohortOwners(t *testing.T, ctl *Controller, body string) map[int]bool {
	t.Helper()
	req, err := server.DecodeCohortRequest(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	key, _ := cohort.Key(cfg)
	owners := map[int]bool{}
	for i := 0; i < cohort.ShardCount(cfg); i++ {
		wi, ok := ctl.ring.pick(key+"/shard/"+strconv.Itoa(i), func(int) bool { return true })
		if !ok {
			t.Fatal("ring routed a shard nowhere")
		}
		owners[wi] = true
	}
	return owners
}

// A cohort must survive a worker that fails under it: the controller
// ejects the worker, its shard group runs on a survivor, and the merged
// summary line is byte-identical to a single node's.
func TestFleetCohortSurvivesWorkerKill(t *testing.T) {
	victim := atomic.Int64{}
	victim.Store(-1)
	var refused atomic.Int64
	var urls []string
	for i := 0; i < 3; i++ {
		s := server.New(server.Config{})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if victim.Load() == int64(i) && r.URL.Path == "/v1/cohort/part" {
				refused.Add(1)
				w.WriteHeader(http.StatusInternalServerError)
				return
			}
			s.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		})
		urls = append(urls, ts.URL)
	}
	ctl, err := New(Config{
		Workers: urls, Retries: 2, Backoff: 5 * time.Millisecond, EjectAfter: 1, ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(ctl.Handler())
	t.Cleanup(func() {
		cts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		ctl.Shutdown(ctx)
	})
	ref := serveWorker(t, server.Config{})

	// The ring hashes the workers' random ports, so search for a cohort
	// seed whose shards reach at least two workers, and fail the owner of
	// shard 0: its group must move to a survivor.
	body := ""
	for seed := 1; body == ""; seed++ {
		if seed > 64 {
			t.Fatal("no cohort seed routed shards to two workers")
		}
		b := fmt.Sprintf(`{"base": {"duration_s": 6}, "viewers": 16, "shards": 4, "rollup_s": 5, "seed": %d}`, seed)
		if len(cohortOwners(t, ctl, b)) >= 2 {
			body = b
		}
	}
	req, err := server.DecodeCohortRequest(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	key, _ := cohort.Key(cfg)
	owner, _ := ctl.ring.pick(key+"/shard/0", func(int) bool { return true })
	victim.Store(int64(owner))

	refResp, refBody := post(t, ref.URL+"/v1/cohort", body)
	if refResp.StatusCode != http.StatusOK {
		t.Fatalf("ref cohort status %d: %s", refResp.StatusCode, refBody)
	}
	resp, fleetBody := post(t, cts.URL+"/v1/cohort", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet cohort status %d with a failing worker: %s", resp.StatusCode, fleetBody)
	}
	refLines := bytes.Split(bytes.TrimSpace(refBody), []byte("\n"))
	if got, want := bytes.TrimSpace(fleetBody), refLines[len(refLines)-1]; !bytes.Equal(got, want) {
		t.Fatalf("fleet summary differs from single node:\nfleet: %s\nref:   %s", got, want)
	}
	if refused.Load() == 0 {
		t.Fatal("the failing worker was never sent a part")
	}
	_, met := getBody(t, cts.URL+"/metrics")
	if !strings.Contains(string(met), fmt.Sprintf("dvfsctl_worker_up{worker=%q} 0", urls[owner])) {
		t.Fatalf("failing worker still marked up:\n%s", met)
	}
}

// dvfsctl_ejections_total sums every worker's ejections, the health
// probe's included: with no traffic at all, a worker whose probe fails is
// ejected, and the controller total says so.
func TestEjectionTotalCountsProbeEjections(t *testing.T) {
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(sick.Close)
	ctl, err := New(Config{Workers: []string{sick.URL}, EjectAfter: 1, ProbeInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(ctl.Handler())
	t.Cleanup(func() {
		cts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ctl.Shutdown(ctx)
	})

	perWorker := fmt.Sprintf("dvfsctl_worker_ejections_total{worker=%q} 1\n", sick.URL)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		_, met := getBody(t, cts.URL+"/metrics")
		if !strings.Contains(string(met), perWorker) {
			if time.Now().After(deadline) {
				t.Fatalf("the probe never ejected the worker:\n%s", met)
			}
			continue
		}
		if !strings.Contains(string(met), "dvfsctl_ejections_total 1\n") {
			t.Fatalf("controller total leaves out the probe's ejection:\n%s", met)
		}
		return
	}
}
