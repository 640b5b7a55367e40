// Sim-vs-real equivalence battery: the live player-driver (real HTTP
// sockets, real shaped origin) against the netsim.Trace replay backend.
// These tests are the stress-e2e gate (make stress-e2e) and run under
// -race: the origin paces with real timers across goroutines while the
// player runs in virtual time, so any sloppy sharing in the bridge
// surfaces here.
package stress_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"videodvfs/internal/experiments"
	"videodvfs/internal/netsim"
	"videodvfs/internal/server"
	"videodvfs/internal/sim"
	"videodvfs/internal/stress"
	"videodvfs/internal/video"
)

// startOrigin serves a shaped origin over a loopback listener.
func startOrigin(t *testing.T, cfg stress.OriginConfig) *httptest.Server {
	t.Helper()
	o, err := stress.NewOrigin(cfg)
	if err != nil {
		t.Fatalf("origin: %v", err)
	}
	ts := httptest.NewServer(o.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// livePlay runs the real player against a loopback origin and returns
// the recorded run. Short content at a rate well above the rung bitrate:
// both sides should play cleanly, making the equivalence margins tight.
func livePlay(t *testing.T, rateQuery string) *stress.PlayResult {
	t.Helper()
	ts := startOrigin(t, stress.OriginConfig{RateBps: 16e6})
	res, err := stress.Play(stress.PlayConfig{
		OriginURL: ts.URL,
		Governor:  "ondemand",
		Title:     video.TitleNews,
		Rung:      video.R360p,
		Seed:      7,
		Duration:  8 * sim.Second,
		RateQuery: rateQuery,
	})
	if err != nil {
		t.Fatalf("live play: %v", err)
	}
	return res
}

// replayConfig builds the simulator config that mirrors livePlay: same
// content fields, the recorded trace as the bandwidth model, background
// load off (the live driver has none), and a radio profile with zero
// promotion delay — the live loopback path has no RRC signaling, so the
// replay must not charge for one. Strict arms the invariant checker.
func replayConfig(tr *netsim.Trace) experiments.RunConfig {
	rrc := netsim.RRCConfig{
		IdleW: 0.02, FACHW: 0.45, DCHW: 1.20, TxExtraW: 0.30,
		T1: 60 * sim.Second, T2: sim.Second,
		PromoIdle: 0, PromoFACH: 0,
	}
	return experiments.RunConfig{
		Governor:   experiments.GovOndemand,
		Title:      video.TitleNews,
		Rung:       video.R360p,
		Net:        experiments.NetTrace,
		BWTrace:    tr,
		RRC:        &rrc,
		Duration:   8 * sim.Second,
		Seed:       7,
		Background: false,
		Strict:     true,
	}
}

// Documented equivalence tolerances (DESIGN.md §14). The replay's
// downloader charges a 70 ms request RTT per fetch and advances in
// 100 ms network chunks, neither of which the loopback origin exhibits;
// with two-ish fetches before first display that bounds the startup
// skew well under half a second. Rebuffer counting can differ by one
// when a stall straddles the low-water threshold on exactly one side.
const (
	startupTolerance  = 0.5 // seconds
	rebufferTolerance = 1   // count
)

// TestSimRealEquivalence is the headline check: record a trace from a
// live run over real sockets, replay it through the netsim.Trace
// backend, and hold the two runs to the documented tolerances — with
// chunk-level byte accounting exact, not approximate.
func TestSimRealEquivalence(t *testing.T) {
	live := livePlay(t, "")

	// Byte accounting: the trace's per-fetch byte sums must equal the
	// payload the player requested, exactly — every chunk the recorder
	// saw is conserved through sample coalescing and clamping.
	fb := live.Trace.FetchBytes()
	if len(fb) != len(live.SegmentBits) {
		t.Fatalf("trace covers %d fetches, player made %d", len(fb), len(live.SegmentBits))
	}
	for i, bits := range live.SegmentBits {
		if want := math.Ceil(bits / 8); fb[i] != want {
			t.Errorf("fetch %d: trace has %v bytes, want %v", i, fb[i], want)
		}
	}
	if !live.Metrics.Completed {
		t.Fatal("live run did not complete")
	}

	res, err := experiments.Run(replayConfig(&live.Trace))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !res.QoE.Completed {
		t.Fatal("replay did not complete")
	}
	if res.Fetches != len(live.SegmentBits) {
		t.Errorf("replay made %d fetches, live made %d", res.Fetches, len(live.SegmentBits))
	}
	if d := math.Abs((res.QoE.StartupDelay - live.Metrics.StartupDelay).Seconds()); d > startupTolerance {
		t.Errorf("startup delay skew %.3fs exceeds %.1fs (live %v, replay %v)",
			d, startupTolerance, live.Metrics.StartupDelay, res.QoE.StartupDelay)
	}
	if d := res.QoE.RebufferCount - live.Metrics.RebufferCount; d > rebufferTolerance || d < -rebufferTolerance {
		t.Errorf("rebuffer count skew %d exceeds ±%d (live %d, replay %d)",
			d, rebufferTolerance, live.Metrics.RebufferCount, res.QoE.RebufferCount)
	}
}

// TestReplayMetamorphic pins the round trip: a recorded trace encoded to
// JSONL, decoded back, and replayed twice must give byte-identical JSONL
// and identical run results — with invariants armed on both replays.
func TestReplayMetamorphic(t *testing.T) {
	live := livePlay(t, "")

	var buf bytes.Buffer
	if err := netsim.WriteTrace(&buf, live.Trace); err != nil {
		t.Fatalf("encode: %v", err)
	}
	first := append([]byte(nil), buf.Bytes()...)
	tr, err := netsim.ReadTrace(bytes.NewReader(first))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	// Round trip is a fixed point at the byte level.
	buf.Reset()
	if err := netsim.WriteTrace(&buf, tr); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(first, buf.Bytes()) {
		t.Fatal("JSONL round trip is not byte-identical")
	}

	cfg := replayConfig(&tr)
	r1, err := experiments.Run(cfg)
	if err != nil {
		t.Fatalf("replay 1: %v", err)
	}
	r2, err := experiments.Run(cfg)
	if err != nil {
		t.Fatalf("replay 2: %v", err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("replaying the same trace twice diverged:\n%+v\n%+v", r1, r2)
	}
}

// TestOriginShaping holds the origin to its contract: exact byte counts
// for every shape, and ON-OFF gaps long enough that a recorded transfer
// actually contains the stalls the replay is supposed to reproduce.
func TestOriginShaping(t *testing.T) {
	ts := startOrigin(t, stress.OriginConfig{RateBps: 8e6})

	fetch := func(t *testing.T, query string) ([]byte, time.Duration) {
		t.Helper()
		start := time.Now()
		resp, err := http.Get(ts.URL + "/blob?" + query)
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %s", resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return b, time.Since(start)
	}

	for _, shape := range []string{"steady", "onoff", "throttle"} {
		t.Run(shape, func(t *testing.T) {
			const n = 100_000
			b, _ := fetch(t, "bytes=100000&rate=8e6&shape="+shape)
			if len(b) != n {
				t.Fatalf("shape %s sent %d bytes, want %d", shape, len(b), n)
			}
		})
	}

	t.Run("onoff stalls", func(t *testing.T) {
		// 200 kB at 2 Mbit/s with a 200/300 ms cycle: the per-cycle quota
		// is 250 kB/s · 0.5 s = 125 kB, so the transfer spills into a
		// second cycle whose quota is withheld until t = 0.5 s. Timing
		// lower bounds are safe under CI load — delays only grow.
		_, dur := fetch(t, "bytes=200000&rate=2e6&shape=onoff")
		if dur < 400*time.Millisecond {
			t.Errorf("ON-OFF transfer took %v, expected the second cycle's quota to be withheld until 500ms", dur)
		}
	})

	t.Run("bad bytes", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/blob?bytes=nope")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %s, want 400", resp.Status)
		}
	})
}

// TestOnOffTracePreservesStalls closes the loop on shaping: a live run
// against an ON-OFF origin must record inter-sample gaps inside a fetch
// (the wire stalls), and the replay backend must render those gaps as
// rate 0 — the signature Hoque et al. burst-pause delivery.
func TestOnOffTracePreservesStalls(t *testing.T) {
	live := livePlay(t, "rate=2e6&shape=onoff")
	stalls := 0
	for i := 1; i < len(live.Trace.Samples); i++ {
		prev, cur := live.Trace.Samples[i-1], live.Trace.Samples[i]
		if cur.Fetch != prev.Fetch || cur.Start-prev.End < sim.Time(100*time.Millisecond.Seconds()) {
			continue
		}
		stalls++
		mid := prev.End + (cur.Start-prev.End)/2
		if bps, _ := live.Trace.Rate(mid); bps != 0 {
			t.Errorf("mid-fetch gap at %v replays as %v bps, want 0", mid, bps)
		}
	}
	if stalls == 0 {
		t.Error("ON-OFF origin produced no recorded mid-fetch stalls ≥100ms")
	}
	// The stalls must survive replay: the run still completes under
	// invariants with the recorded pauses in the bandwidth model.
	if _, err := experiments.Run(replayConfig(&live.Trace)); err != nil {
		t.Fatalf("replay of ON-OFF trace: %v", err)
	}
}

// TestHammerDvfsd is the load-generation acceptance check: ≥100
// concurrent requests against a real dvfsd instance with zero error-
// envelope violations. The body mix includes a trace-backed run so the
// new NetKind rides the hot ingest path under contention.
func TestHammerDvfsd(t *testing.T) {
	s := server.New(server.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	traceBody, err := json.Marshal(map[string]any{
		"net": "trace", "duration_s": 2, "background": false,
		"bw_trace": []map[string]any{
			{"t0": 0, "t1": 0.5, "bytes": 500000, "fetch": 0},
			{"t0": 0.7, "t1": 1, "bytes": 400000, "fetch": 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := stress.Hammer(stress.HammerConfig{
		Targets: []string{ts.URL},
		Bodies: [][]byte{
			[]byte(`{"governor":"ondemand","net":"const8","duration_s":2}`),
			traceBody,
			[]byte(`{"net":"not-a-net"}`), // must bounce as a clean envelope
		},
		Requests:    200,
		Concurrency: 100,
	})
	if err != nil {
		t.Fatalf("hammer: %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("envelope violation: target=%s status=%d: %s", v.Target, v.Status, v.Reason)
	}
	// The bad-net body is a well-formed 400 per request — a third of the
	// load — so Failed equals exactly that share and nothing else.
	wantFailed := 0
	for i := 0; i < res.Requests; i++ {
		if i%3 == 2 {
			wantFailed++
		}
	}
	if res.Failed != wantFailed {
		t.Errorf("failed %d, want %d (only the malformed body may fail)", res.Failed, wantFailed)
	}
	if got := res.OK + res.Rejected + res.Failed; got != res.Requests {
		t.Errorf("accounting: OK %d + Rejected %d + Failed %d = %d, want %d",
			res.OK, res.Rejected, res.Failed, got, res.Requests)
	}
	if res.OK == 0 {
		t.Error("no request succeeded under load")
	}
}

// TestPlayRefusesVideoAwareGovernors pins the live player-driver's
// contract: stock governors only. It has no radio model, so the
// video-aware policies stay sim-side, and they are refused before any
// fetch.
func TestPlayRefusesVideoAwareGovernors(t *testing.T) {
	ts := startOrigin(t, stress.OriginConfig{RateBps: 16e6})
	for _, tc := range []struct {
		governor string
		ok       bool
	}{
		{"energyaware", false},
		{"oracle", false},
		{"warp", false},
		{"", true}, // ondemand
		{"performance", true},
	} {
		_, err := stress.Play(stress.PlayConfig{
			OriginURL: ts.URL,
			Governor:  tc.governor,
			Title:     video.TitleNews,
			Rung:      video.R360p,
			Seed:      7,
			Duration:  2 * sim.Second,
		})
		if (err == nil) != tc.ok {
			t.Errorf("governor %q: err = %v, want ok=%v", tc.governor, err, tc.ok)
		}
	}
}
