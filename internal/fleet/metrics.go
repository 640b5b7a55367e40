package fleet

import (
	"fmt"
	"net/http"
	"strings"
	"time"
)

// handleMetrics renders the fleet rollup in the same Prometheus-style
// text format as dvfsd's /metrics: controller counters first, then one
// gauge set per worker labeled by its URL.
func (c *Controller) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	fmt.Fprintf(&b, "dvfsctl_uptime_seconds %g\n", time.Since(c.start).Seconds())
	c.gate.Render(&b, "dvfsctl")

	// The ejection total sums the workers' own counters, so it counts the
	// health probe's ejections as well as the dispatches'. Liveness and
	// ejections are read once, so the totals agree with the per-worker
	// lines even when a probe ejects a worker mid-render.
	up := make([]int, len(c.workers))
	ejections := make([]int64, len(c.workers))
	alive, ejected := 0, int64(0)
	for i, wk := range c.workers {
		if wk.alive.Load() {
			up[i] = 1
		}
		ejections[i] = wk.ejections.Load()
		alive += up[i]
		ejected += ejections[i]
	}
	fmt.Fprintf(&b, "dvfsctl_workers %d\n", len(c.workers))
	fmt.Fprintf(&b, "dvfsctl_workers_alive %d\n", alive)
	fmt.Fprintf(&b, "dvfsctl_ejections_total %d\n", ejected)

	for i, wk := range c.workers {
		fmt.Fprintf(&b, "dvfsctl_worker_up{worker=%q} %d\n", wk.url, up[i])
		fmt.Fprintf(&b, "dvfsctl_worker_queue_depth{worker=%q} %d\n", wk.url, wk.queueDepth.Load())
		fmt.Fprintf(&b, "dvfsctl_worker_dispatches_total{worker=%q} %d\n", wk.url, wk.dispatches.Load())
		fmt.Fprintf(&b, "dvfsctl_worker_retries_total{worker=%q} %d\n", wk.url, wk.retries.Load())
		fmt.Fprintf(&b, "dvfsctl_worker_failures_total{worker=%q} %d\n", wk.url, wk.failures.Load())
		fmt.Fprintf(&b, "dvfsctl_worker_ejections_total{worker=%q} %d\n", wk.url, ejections[i])
		fmt.Fprintf(&b, "dvfsctl_worker_cache_hits_total{worker=%q} %d\n", wk.url, wk.hits.Load())
		fmt.Fprintf(&b, "dvfsctl_worker_cache_misses_total{worker=%q} %d\n", wk.url, wk.misses.Load())
		fmt.Fprintf(&b, "dvfsctl_worker_cache_hit_ratio{worker=%q} %g\n", wk.url, wk.hitRatio())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write([]byte(b.String()))
}
