package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Gate is the admission gate in front of a service's handlers, dvfsd's
// and the dvfsctl controller's alike: it counts every request against
// its endpoint and, once the service drains, refuses new work. The zero
// Gate admits.
type Gate struct {
	draining atomic.Bool
	mu       sync.Mutex
	requests map[string]int64
}

// Admit counts one request against endpoint and, while the service
// drains, refuses it with a 503 draining envelope. It reports whether
// the handler goes on.
func (g *Gate) Admit(w http.ResponseWriter, endpoint string) bool {
	g.count(endpoint)
	if g.draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, NewEnvelope(CodeDraining, "draining, not admitting new work"))
		return false
	}
	return true
}

// count counts one request against endpoint without gating it: for
// read-only endpoints that keep answering while the service drains.
func (g *Gate) count(endpoint string) {
	g.mu.Lock()
	if g.requests == nil {
		g.requests = make(map[string]int64)
	}
	g.requests[endpoint]++
	g.mu.Unlock()
}

// Drain stops admission: every later Admit refuses.
func (g *Gate) Drain() { g.draining.Store(true) }

// Draining reports whether Drain has been called.
func (g *Gate) Draining() bool { return g.draining.Load() }

// Render writes one <prefix>_requests_total{endpoint=…} line per endpoint
// seen, in endpoint order, in Prometheus text exposition format.
func (g *Gate) Render(w io.Writer, prefix string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	endpoints := make([]string, 0, len(g.requests))
	for ep := range g.requests {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)
	for _, ep := range endpoints {
		fmt.Fprintf(w, "%s_requests_total{endpoint=%q} %d\n", prefix, ep, g.requests[ep])
	}
}

// Serve serves handler on ln until SIGINT or SIGTERM, then drains: drain
// stops admission and waits for the service's accepted work, and only
// then does the HTTP side shut down, so handlers still waiting on that
// work answer cleanly. Both steps share one timeout. name prefixes the
// log lines.
func Serve(name string, ln net.Listener, handler http.Handler, drain func(context.Context) error, timeout time.Duration) error {
	hs := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("%s: %v — draining", name, sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := drain(ctx); err != nil {
		log.Printf("%s: drain incomplete: %v", name, err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	log.Printf("%s: drained", name)
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
