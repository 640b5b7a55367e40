package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"videodvfs/internal/cohort"
	"videodvfs/internal/server"
)

// handleCohort shards one cohort across the fleet. The shard layout is a
// pure function of the cohort config, so the controller derives it
// locally, routes each shard index by cohortKey+"/shard/i" on the ring,
// and sends every worker one /v1/cohort/part request naming its shard
// set. The returned partials merge in global shard-index order
// (cohort.MergeParts), reproducing the single-node Result bit for bit;
// the response is the summary NDJSON line a single dvfsd closes its
// cohort stream with. (Rollup frames require the whole-cohort barrier
// state no part can see, so a fleet cohort answers with the summary
// only.)
//
// The controller routes by the key of the request as decoded, but labels
// the summary with the key the workers computed after applying their own
// bounds, which every part body carries: the label is a single node's
// without the controller copying the workers' settings. Parts that
// disagree on the key ran under different settings and merge into no
// single node's answer, so the controller refuses them with a 500.
func (c *Controller) handleCohort(w http.ResponseWriter, r *http.Request) {
	c.met.request("cohort")
	if c.draining.Load() {
		server.WriteJSON(w, http.StatusServiceUnavailable,
			server.NewEnvelope(server.CodeDraining, "controller draining, not admitting new work"))
		return
	}
	req, err := server.DecodeCohortRequest(http.MaxBytesReader(w, r.Body, server.MaxBodyBytes))
	if err != nil {
		server.WriteError(w, err)
		return
	}
	if len(r.URL.Query()) != 0 {
		// ?stream=1 and ?strict=1 need single-engine context a sharded
		// cohort does not have; reject rather than silently degrade.
		server.WriteJSON(w, http.StatusBadRequest, server.NewEnvelope(server.CodeBadRequest,
			"fleet: /v1/cohort accepts no query parameters (stream/strict are single-node features)"))
		return
	}
	cfg, err := req.Config()
	if err != nil {
		server.WriteError(w, err)
		return
	}
	key, _ := cohort.Key(cfg)
	shards := make([]int, cohort.ShardCount(cfg))
	for i := range shards {
		shards[i] = i
	}
	parts, resp, err := c.runShards(r.Context(), req, key, shards)
	if err != nil || resp.status != 0 {
		c.writeDispatchError(w, resp, err)
		return
	}
	partials := make([]cohort.Partial, len(parts))
	for i, p := range parts {
		if p.Key != parts[0].Key {
			server.WriteJSON(w, http.StatusInternalServerError, server.NewEnvelope(server.CodeInternal,
				fmt.Sprintf("fleet: workers disagree on the cohort key (%s vs %s); their settings differ", parts[0].Key, p.Key)))
			return
		}
		partials[i] = p.Partial
	}
	merged, err := cohort.MergeParts(partials)
	if err != nil {
		server.WriteJSON(w, http.StatusInternalServerError, server.NewEnvelope(server.CodeInternal, err.Error()))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := json.NewEncoder(w).Encode(server.CohortSummaryFrame{Ev: "summary", Key: parts[0].Key, Result: merged}); err != nil {
		server.WriteJSON(w, http.StatusInternalServerError, server.NewEnvelope(server.CodeInternal, err.Error()))
	}
}

// runShards dispatches the named shard indexes across the fleet and
// collects the workers' part bodies. Shards group per owning worker (one
// /v1/cohort/part per worker per round, so a worker's part cache key is
// stable across identical cohorts); when a worker is ejected
// mid-dispatch its group rehashes onto the survivors in the next round.
// Rounds are bounded: a retry round requires an ejection, so there are
// at most len(workers) of them. A non-routable failure (worker 4xx,
// exhausted 429, or an error on a still-alive worker) aborts the whole
// cohort — parts are all-or-nothing, MergeParts needs every shard.
//
// Failures return either a non-nil error (fleet-level) or a wresp with a
// non-zero status (worker envelope to pass through); success returns
// resp.status == 0.
func (c *Controller) runShards(ctx context.Context, req server.CohortRequest, key string, shards []int) ([]server.CohortPartBody, wresp, error) {
	var parts []server.CohortPartBody
	pending := shards
	for round := 0; len(pending) > 0; round++ {
		if round > len(c.workers) {
			return nil, wresp{}, fmt.Errorf("fleet: shard dispatch did not converge after %d rounds", round)
		}
		groups := make(map[*worker][]int)
		for _, sh := range pending {
			wk, ok := c.pick(key + "/shard/" + strconv.Itoa(sh))
			if !ok {
				return nil, wresp{}, errNoWorkers
			}
			groups[wk] = append(groups[wk], sh)
		}
		var (
			mu       sync.Mutex
			retry    []int
			failResp wresp
			failErr  error
			failed   bool
			wg       sync.WaitGroup
		)
		for wk, grp := range groups {
			body, merr := json.Marshal(server.CohortPartRequest{Cohort: req, Shards: grp})
			if merr != nil {
				return nil, wresp{}, merr
			}
			wg.Add(1)
			go func(wk *worker, grp []int, body []byte) {
				defer wg.Done()
				resp, err := c.post(ctx, wk, "/v1/cohort/part", "", body)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err == nil && resp.status == http.StatusOK:
					var pb server.CohortPartBody
					if uerr := json.Unmarshal(resp.body, &pb); uerr != nil {
						if !failed {
							failed, failErr = true, fmt.Errorf("fleet: worker %s: undecodable part: %w", wk.url, uerr)
						}
						return
					}
					parts = append(parts, pb)
				case err != nil && !wk.alive.Load():
					// Ejected mid-dispatch: rehash this group's shards onto
					// the survivors next round.
					retry = append(retry, grp...)
				default:
					if !failed {
						failed, failResp, failErr = true, resp, err
					}
				}
			}(wk, grp, body)
		}
		wg.Wait()
		if failed {
			return nil, failResp, failErr
		}
		pending = retry
	}
	return parts, wresp{}, nil
}
