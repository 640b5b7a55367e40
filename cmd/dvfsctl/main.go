// Command dvfsctl fronts a fleet of dvfsd workers as one controller
// service: aggregate requests (batch sweeps, cohort runs) are sharded
// across the workers by consistent-hashing each unit of work's
// content-addressed key — keeping every worker's result cache hot and
// disjoint — and the responses merge back into the exact answer a single
// dvfsd would have produced.
//
// Usage:
//
//	dvfsctl -workers http://10.0.0.1:8080,http://10.0.0.2:8080
//	dvfsctl -addr :9090 -concurrency 32 -retries 3
//	dvfsctl -eject-after 3 -probe-s 1   # death detection / revival
//
// Endpoints (see README for request bodies and curl examples):
//
//	POST /v1/sweep   batch sweep, points fanned across the fleet
//	POST /v1/cohort  cohort run, shards fanned across the fleet;
//	                 answers with the summary NDJSON line
//	GET  /healthz    liveness (503 when draining or no worker alive)
//	GET  /metrics    per-worker queue depth, hit ratio, retries, ejections
//
// SIGINT/SIGTERM drain gracefully: admission stops, in-flight merges
// finish.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"videodvfs/internal/fleet"
	"videodvfs/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dvfsctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dvfsctl", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":9090", "listen address")
		workers     = fs.String("workers", "", "comma-separated dvfsd base URLs (required)")
		concurrency = fs.Int("concurrency", 0, "max in-flight worker requests (0 = 4x workers)")
		timeoutS    = fs.Float64("timeout-s", 60, "per-attempt worker request timeout in seconds")
		retries     = fs.Int("retries", 2, "retry attempts per dispatch beyond the first")
		backoffMS   = fs.Float64("backoff-ms", 100, "base of the jittered exponential retry backoff")
		ejectAfter  = fs.Int("eject-after", 3, "consecutive failures before a worker is ejected from routing")
		probeS      = fs.Float64("probe-s", 1, "health-probe cadence in seconds")
		maxSweep    = fs.Int("max-sweep-runs", 1024, "largest accepted sweep expansion")
		drainS      = fs.Float64("drain-timeout-s", 60, "seconds to wait for in-flight requests on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var urls []string
	for _, u := range strings.Split(*workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		return fmt.Errorf("no workers: pass -workers with at least one dvfsd base URL")
	}
	// Resolve the default here so the startup log reports the bound in
	// force rather than the zero "use the default" sentinel.
	if *concurrency <= 0 {
		*concurrency = 4 * len(urls)
	}

	ctl, err := fleet.New(fleet.Config{
		Workers:       urls,
		Concurrency:   *concurrency,
		Timeout:       time.Duration(*timeoutS * float64(time.Second)),
		Retries:       *retries,
		Backoff:       time.Duration(*backoffMS * float64(time.Millisecond)),
		EjectAfter:    *ejectAfter,
		ProbeInterval: time.Duration(*probeS * float64(time.Second)),
		MaxSweepRuns:  *maxSweep,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("dvfsctl: listening on %s (workers=%d concurrency=%d retries=%d)",
		ln.Addr(), len(urls), *concurrency, *retries)
	return server.Serve("dvfsctl", ln, ctl.Handler(), ctl.Shutdown, time.Duration(*drainS*float64(time.Second)))
}
