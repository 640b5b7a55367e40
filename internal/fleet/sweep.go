package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"videodvfs/internal/experiments"
	"videodvfs/internal/server"
)

// handleSweep shards one sweep across the fleet: the request expands
// through server.SweepRequest.Configs, dvfsd's own expansion, each config
// goes out as its wire point (server.SweepRequest.Point) to the worker
// owning its ConfigKey on the ring (keeping the workers' caches hot and
// disjoint), and the outcomes merge back in expansion order into the
// server.SweepBody a single dvfsd would build. Each outcome is the
// worker's raw run body, byte-identical to a single node's since both
// are the same content-addressed marshal.
func (c *Controller) handleSweep(w http.ResponseWriter, r *http.Request) {
	c.met.request("sweep")
	if c.draining.Load() {
		server.WriteJSON(w, http.StatusServiceUnavailable,
			server.NewEnvelope(server.CodeDraining, "controller draining, not admitting new work"))
		return
	}
	req, err := server.DecodeSweepRequest(http.MaxBytesReader(w, r.Body, server.MaxBodyBytes))
	if err != nil {
		server.WriteError(w, err)
		return
	}
	if size := req.Size(); size > int64(c.cfg.MaxSweepRuns) {
		server.WriteJSON(w, http.StatusBadRequest, server.NewEnvelope(server.CodeInvalidConfig,
			fmt.Sprintf("fleet: sweep expands to %d runs, cap is %d", size, c.cfg.MaxSweepRuns)))
		return
	}
	// Configs both validates every point and yields the content-addressed
	// routing keys, in expansion order.
	cfgs, err := req.Configs()
	if err != nil {
		server.WriteError(w, err)
		return
	}
	for i := range cfgs {
		if cfgs[i].Seed == 0 {
			// The per-run wire form cannot express seed 0 (zero means
			// "default"), so a fleet-dispatched point would silently run a
			// different seed than a single node. Reject rather than diverge,
			// whether the 0 is listed in seeds or spanned by seed_range.
			server.WriteJSON(w, http.StatusBadRequest, server.NewEnvelope(server.CodeInvalidConfig,
				"fleet: explicit seed 0 is not expressible in dispatched runs"))
			return
		}
	}
	query, err := passthroughQuery(r)
	if err != nil {
		server.WriteError(w, err)
		return
	}

	outcomes := make([]server.SweepOutcome, len(cfgs))
	resps := make([]wresp, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		body, merr := json.Marshal(req.Point(cfg))
		if merr != nil {
			errs[i] = merr
			continue
		}
		key, _ := experiments.ConfigKey(cfg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = c.dispatch(r.Context(), key, query, body)
		}()
	}
	wg.Wait()

	failed, overloaded := 0, 0
	maxRetryAfter := 1
	for i := range cfgs {
		switch {
		case errs[i] != nil:
			outcomes[i] = server.SweepOutcome{Index: i, Error: errs[i].Error()}
			failed++
		case resps[i].status == http.StatusOK:
			outcomes[i] = server.SweepOutcome{Index: i, Run: resps[i].body}
		default:
			msg := resps[i].message
			if msg == "" {
				msg = fmt.Sprintf("worker status %d", resps[i].status)
			}
			outcomes[i] = server.SweepOutcome{Index: i, Error: msg}
			failed++
			if resps[i].status == http.StatusTooManyRequests {
				overloaded++
				if resps[i].retryAfter > maxRetryAfter {
					maxRetryAfter = resps[i].retryAfter
				}
			}
		}
	}
	// A sweep the fleet could not place at all is backpressure, not a
	// result: pass the 429 through with the workers' largest hint
	// (clamped ≥ 1 like dvfsd's own Retry-After).
	if failed == len(cfgs) && overloaded == failed && failed > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", maxRetryAfter))
		server.WriteJSON(w, http.StatusTooManyRequests, server.NewEnvelope(server.CodeOverloaded,
			"fleet: every worker is overloaded; retry after the hint"))
		return
	}
	server.WriteJSON(w, http.StatusOK, server.SweepBody{Count: len(outcomes), Outcomes: outcomes})
}

// passthroughQuery validates and forwards the query parameters dvfsd's
// /v1/run understands from a sweep (?strict, parsed exactly as dvfsd
// parses it); unknown parameters are a client error rather than a
// silent drop.
func passthroughQuery(r *http.Request) (string, error) {
	for k := range r.URL.Query() {
		if k != "strict" {
			return "", fmt.Errorf("fleet: %w: unknown query parameter %q", server.ErrBadRequest, k)
		}
	}
	strict, err := server.QueryBool(r, "strict")
	if err != nil || !strict {
		return "", err
	}
	return "?strict=1", nil
}
