// Command dvfsd serves the simulator as a long-running HTTP/JSON
// service: single runs, batch sweeps, and named experiments execute on a
// bounded worker pool behind a content-addressed result cache (runs are
// deterministic, so identical requests are served from memory and
// concurrent duplicates coalesce into one simulation).
//
// Usage:
//
//	dvfsd                      # listen on :8080
//	dvfsd -addr 127.0.0.1:9000 # custom listen address
//	dvfsd -workers 8 -queue 64 # pool sizing / admission bound
//	dvfsd -cache-mb 256        # result-cache size
//
// Endpoints (see README for request bodies and curl examples):
//
//	POST /v1/run               one simulation (?trace=jsonl streams events)
//	POST /v1/sweep             batch sweep over config axes
//	POST /v1/cohort            whole viewer population in shared engines;
//	                           NDJSON rollup frames + summary (?stream=1 live)
//	POST /v1/experiments/{id}  regenerate a named table/figure
//	GET  /v1/experiments       list experiment IDs
//	GET  /v1/catalog           devices/governors/titles/rungs/abrs/nets
//	GET  /healthz              liveness (503 while draining)
//	GET  /metrics              queue depth, cache hit ratio, run latency
//
// SIGINT/SIGTERM drain gracefully: admission stops, accepted runs finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"videodvfs/internal/server"
	"videodvfs/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dvfsd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dvfsd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		workers    = fs.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
		queue      = fs.Int("queue", 0, "admission queue depth (0 = 4x workers); overflow returns 429")
		cacheMB    = fs.Int("cache-mb", 64, "result cache size in MiB")
		maxHorizon = fs.Float64("max-horizon-s", 3600, "per-run virtual-time cap in seconds (the request timeout)")
		maxDur     = fs.Float64("max-duration-s", 1200, "largest accepted content duration in seconds")
		maxSweep   = fs.Int("max-sweep-runs", 1024, "largest accepted sweep expansion")
		maxCohort  = fs.Int("max-cohort-viewers", 200_000, "largest accepted cohort population")
		drainS     = fs.Float64("drain-timeout-s", 60, "seconds to wait for in-flight runs on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Resolve the pool defaults here so the startup log reports the sizes
	// in force rather than the zero "use the default" sentinels.
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	if *queue <= 0 {
		*queue = 4 * *workers
	}

	srv := server.New(server.Config{
		Workers:          *workers,
		Queue:            *queue,
		CacheBytes:       int64(*cacheMB) << 20,
		MaxHorizon:       sim.Time(*maxHorizon) * sim.Second,
		MaxDuration:      sim.Time(*maxDur) * sim.Second,
		MaxSweepRuns:     *maxSweep,
		MaxCohortViewers: *maxCohort,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	log.Printf("dvfsd: listening on %s (workers=%d queue=%d cache=%dMiB)",
		ln.Addr(), *workers, *queue, *cacheMB)

	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("dvfsd: %v — draining", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainS*float64(time.Second)))
	defer cancel()
	// Stop admission and drain the simulation pool first, then close the
	// HTTP side; handlers still waiting on accepted runs finish cleanly.
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("dvfsd: drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	hits, misses, coalesced := srv.CacheStats()
	log.Printf("dvfsd: drained (cache: %d hits, %d misses, %d coalesced)", hits, misses, coalesced)
	return <-errc
}
