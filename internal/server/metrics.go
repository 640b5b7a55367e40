package server

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"videodvfs/internal/experiments"
	"videodvfs/internal/stats"
)

// latencyWindow is how many recent run latencies the quantile estimates
// are computed over.
const latencyWindow = 512

// metrics aggregates the service-level counters exposed on /metrics.
// Counters are atomics; the latency ring is mutex-guarded. Everything
// derived (ratios, quantiles, rates) is computed at render time.
type metrics struct {
	start time.Time

	rejected atomic.Int64
	runs     atomic.Int64
	runErrs  atomic.Int64

	mu        sync.Mutex
	latencies [latencyWindow]float64 // seconds, ring
	lat       int                    // next write position
	latN      int                    // filled entries
}

func newMetrics() *metrics {
	return &metrics{start: time.Now()}
}

// reject counts one admission rejection (HTTP 429).
func (m *metrics) reject() { m.rejected.Add(1) }

// observeRun records one completed simulation and its wall latency.
func (m *metrics) observeRun(d time.Duration, err error) {
	m.runs.Add(1)
	if err != nil {
		m.runErrs.Add(1)
	}
	m.mu.Lock()
	m.latencies[m.lat] = d.Seconds()
	m.lat = (m.lat + 1) % latencyWindow
	if m.latN < latencyWindow {
		m.latN++
	}
	m.mu.Unlock()
}

// runQuantiles returns p50/p99 over the latency window (zeros when no
// run has completed yet).
func (m *metrics) runQuantiles() (p50, p99 float64) {
	m.mu.Lock()
	window := append([]float64(nil), m.latencies[:m.latN]...)
	m.mu.Unlock()
	if len(window) == 0 {
		return 0, 0
	}
	qs := stats.Percentiles(window, 50, 99)
	return qs[0], qs[1]
}

// render writes the metrics in Prometheus-style text exposition format.
// Counters and gauges owned by other components (the gate's request
// counts, queue depth, cache counters) are passed in so /metrics is a
// consistent point-in-time snapshot.
func (m *metrics) render(b *strings.Builder, gate *Gate, queueDepth, queueCap, active, workers int, cs cacheStats, ms experiments.MemoStats) {
	uptime := time.Since(m.start).Seconds()
	fmt.Fprintf(b, "dvfsd_uptime_seconds %g\n", uptime)
	gate.Render(b, "dvfsd")
	fmt.Fprintf(b, "dvfsd_requests_rejected_total %d\n", m.rejected.Load())

	fmt.Fprintf(b, "dvfsd_queue_depth %d\n", queueDepth)
	fmt.Fprintf(b, "dvfsd_queue_capacity %d\n", queueCap)
	fmt.Fprintf(b, "dvfsd_active_runs %d\n", active)
	fmt.Fprintf(b, "dvfsd_workers %d\n", workers)

	runs := m.runs.Load()
	fmt.Fprintf(b, "dvfsd_runs_total %d\n", runs)
	fmt.Fprintf(b, "dvfsd_run_errors_total %d\n", m.runErrs.Load())
	rate := 0.0
	if uptime > 0 {
		rate = float64(runs) / uptime
	}
	fmt.Fprintf(b, "dvfsd_runs_per_sec %g\n", rate)
	p50, p99 := m.runQuantiles()
	fmt.Fprintf(b, "dvfsd_run_latency_seconds{quantile=\"0.5\"} %g\n", p50)
	fmt.Fprintf(b, "dvfsd_run_latency_seconds{quantile=\"0.99\"} %g\n", p99)

	fmt.Fprintf(b, "dvfsd_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(b, "dvfsd_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(b, "dvfsd_cache_coalesced_total %d\n", cs.Coalesced)
	fmt.Fprintf(b, "dvfsd_cache_evictions_total %d\n", cs.Evictions)
	fmt.Fprintf(b, "dvfsd_cache_entries %d\n", cs.Entries)
	fmt.Fprintf(b, "dvfsd_cache_bytes %d\n", cs.Bytes)
	fmt.Fprintf(b, "dvfsd_cache_hit_ratio %g\n", cs.HitRatio())

	// The generated-input memo behind every simulation: renditions and
	// bandwidth traces, bounded by its byte budget.
	fmt.Fprintf(b, "dvfsd_memo_hits_total %d\n", ms.Hits)
	fmt.Fprintf(b, "dvfsd_memo_misses_total %d\n", ms.Misses)
	fmt.Fprintf(b, "dvfsd_memo_evictions_total %d\n", ms.Evictions)
	fmt.Fprintf(b, "dvfsd_memo_entries %d\n", ms.Entries)
	fmt.Fprintf(b, "dvfsd_memo_bytes %d\n", ms.Bytes)
	fmt.Fprintf(b, "dvfsd_memo_budget_bytes %d\n", ms.Budget)
	fmt.Fprintf(b, "dvfsd_memo_hit_ratio %g\n", ms.HitRatio())
}
