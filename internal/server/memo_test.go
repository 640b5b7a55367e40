package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"videodvfs/internal/experiments"
)

// TestMemoBoundedUnderFreshSeeds asks dvfsd for twice the input memo's
// budget in fresh content: 500 ladder runs of 30 s with distinct seeds,
// 144 KB of renditions each. The memo must stay within its budget,
// evicting instead of growing with every seed, and /metrics must show it.
func TestMemoBoundedUnderFreshSeeds(t *testing.T) {
	const runs = 500
	before := experiments.InputMemoStats()
	if need := int64(runs) * 4 * 900 * 40; need < 2*before.Budget {
		t.Fatalf("%d runs ask for %d B, less than twice the %d B budget", runs, need, before.Budget)
	}
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	for i := 0; i < runs; i++ {
		body := fmt.Sprintf(`{"abr": "bba", "duration_s": 30, "seed": %d}`, 7_000_000+i)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("run %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if st := experiments.InputMemoStats(); st.Bytes > st.Budget {
			t.Fatalf("after run %d the memo charges %d B, over its %d B budget", i, st.Bytes, st.Budget)
		}
	}
	st := experiments.InputMemoStats()
	if st.Misses-before.Misses < 4*runs || st.Evictions == before.Evictions {
		t.Fatalf("%d misses and %d evictions over %d fresh ladders", st.Misses-before.Misses, st.Evictions-before.Evictions, runs)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var memoBytes, budget int64
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		fmt.Sscanf(line, "dvfsd_memo_bytes %d", &memoBytes)
		fmt.Sscanf(line, "dvfsd_memo_budget_bytes %d", &budget)
	}
	if budget != st.Budget || memoBytes == 0 || memoBytes > budget {
		t.Fatalf("/metrics reports a memo of %d B under a %d B budget:\n%s", memoBytes, budget, rec.Body)
	}
	for _, want := range []string{"dvfsd_memo_hits_total ", "dvfsd_memo_misses_total ", "dvfsd_memo_evictions_total ", "dvfsd_memo_entries ", "dvfsd_memo_hit_ratio "} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}
