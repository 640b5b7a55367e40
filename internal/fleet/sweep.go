package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"videodvfs/internal/experiments"
	"videodvfs/internal/server"
)

// handleSweep shards one sweep across the fleet: the request expands
// through server.SweepRequest.Configs, dvfsd's own expansion, and the
// points group per worker owning their ConfigKey on the ring (keeping the
// workers' caches hot and disjoint). Each group goes out as one
// /v1/sweep/part request carrying the client's sweep body and the
// group's point indexes (fanOut). A part answers with one outcome object
// per point, the bytes a single node's sweep body holds for it, and the
// controller splices them back in expansion order (server.WriteSweep)
// into the body a single dvfsd would build, without decoding a run body.
//
// A group that fails — a transport error, a 5xx or a body that fails the
// splice check after retries, a worker 4xx, or a 429 the retries did not
// outlast — answers each of its points with an error outcome naming the
// worker; when every group failed with 429, the 429 itself passes
// through.
func (c *Controller) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !c.gate.Admit(w, "sweep") {
		return
	}
	// The parts carry the body as read, so keep its bytes.
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, server.MaxBodyBytes))
	if err != nil {
		server.WriteError(w, fmt.Errorf("fleet: %w: %w", server.ErrBadRequest, err))
		return
	}
	req, err := server.DecodeSweepRequest(bytes.NewReader(raw))
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
	query, err := passthroughQuery(r)
	if err != nil {
		server.WriteError(w, err)
		return
	}
	keys := make([]string, len(cfgs))
	for i := range cfgs {
		keys[i], _ = experiments.ConfigKey(cfgs[i])
	}

	// Each group's accept writes only its own points' outcomes.
	outcomes := make([][]byte, len(cfgs))
	groups := c.fanOut(r.Context(), len(cfgs), func(i int) string { return keys[i] }, "/v1/sweep/part", query,
		func(points []int) ([]byte, error) { return server.SweepPartBody(raw, points), nil },
		func(points []int, data []byte) error { return splicePart(outcomes, points, data) })

	overloaded, maxRetryAfter := 0, 1
	for gi := range groups {
		g := &groups[gi]
		if g.ok() {
			continue
		}
		msg := partFailure(g)
		if g.err == nil && g.resp.status == http.StatusTooManyRequests {
			overloaded++
			maxRetryAfter = max(maxRetryAfter, g.resp.retryAfter)
		}
		for _, i := range g.units {
			outcomes[i], _ = json.Marshal(server.SweepOutcome{Index: i, Error: msg}) // an int and a string: cannot fail
		}
	}
	// A sweep the fleet could not place at all is backpressure, not a
	// result: pass the 429 through with the workers' largest hint
	// (clamped ≥ 1 like dvfsd's own Retry-After).
	if overloaded == len(groups) {
		w.Header().Set("Retry-After", strconv.Itoa(maxRetryAfter))
		server.WriteJSON(w, http.StatusTooManyRequests, server.NewEnvelope(server.CodeOverloaded,
			"fleet: every worker is overloaded; retry after the hint"))
		return
	}
	server.WriteSweep(w, outcomes)
}

// splicePart checks a sweep part's answer for the given points and, only
// if every line passes, files each line as its point's outcome: one line
// per point, in order, each opening with its point's index and valid
// JSON, and nothing after the last newline. A part cut short, padded,
// misnumbered or garbled is refused whole, so no line of it reaches the
// merge.
func splicePart(outcomes [][]byte, points []int, data []byte) error {
	lines := make([][]byte, len(points))
	rest := data
	for k, i := range points {
		line, tail, ok := bytes.Cut(rest, []byte{'\n'})
		if !ok {
			return fmt.Errorf("%d of %d lines", k, len(points))
		}
		if got := outcomeIndex(line); got != i {
			return fmt.Errorf("line %d holds point %d, want %d", k+1, got, i)
		}
		if !json.Valid(line) {
			return fmt.Errorf("line %d (point %d) is not JSON", k+1, i)
		}
		lines[k], rest = line, tail
	}
	if len(rest) != 0 {
		return fmt.Errorf("%d bytes after the last of %d lines", len(rest), len(points))
	}
	for k, i := range points {
		outcomes[i] = lines[k]
	}
	return nil
}

// outcomeIndex reads the index an outcome object opens with,
// {"index":N,…, or -1 when the line does not open so.
func outcomeIndex(line []byte) int {
	rest, ok := bytes.CutPrefix(line, []byte(`{"index":`))
	if !ok {
		return -1
	}
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return -1
	}
	n, err := strconv.Atoi(string(rest[:end]))
	if err != nil {
		return -1
	}
	return n
}

// partFailure is the error outcome of every point of a failed group: a
// fleet-level error already names its worker (or says none was alive); a
// worker's own refusal is named here with its status and envelope.
func partFailure(g *group) string {
	if g.err != nil {
		return g.err.Error()
	}
	msg := fmt.Sprintf("fleet: worker %s: status %d", g.resp.worker, g.resp.status)
	if g.resp.message != "" {
		msg += ": " + g.resp.message
	}
	return msg
}

// passthroughQuery validates and forwards the query parameters dvfsd's
// /v1/sweep/part understands from a sweep (?strict, parsed exactly as
// dvfsd parses it); unknown parameters are a client error rather than a
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
