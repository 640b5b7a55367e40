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
	if !c.gate.Admit(w, "cohort") {
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
	parts, resp, err := c.runShards(r.Context(), req, key, cohort.ShardCount(cfg))
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

// runShards dispatches a cohort's n shards across the fleet and collects
// the workers' part bodies. Shards group per owning worker, and each
// group goes out as one /v1/cohort/part request through dispatch under
// its first shard's key, so a worker's part cache key is stable across
// identical cohorts. When a group's worker is ejected mid-dispatch,
// dispatch moves the whole group to the survivor owning that first key;
// MergeParts folds parts by shard index, so where a group ran never
// shows in the merge. Any other failure (a worker 4xx, an exhausted 429,
// a fleet-level error) aborts the whole cohort: MergeParts needs every
// shard.
//
// Failures return either a non-nil error (fleet-level) or a wresp with a
// non-zero status (worker envelope to pass through); success returns
// resp.status == 0.
func (c *Controller) runShards(ctx context.Context, req server.CohortRequest, key string, n int) ([]server.CohortPartBody, wresp, error) {
	shardKey := func(sh int) string { return key + "/shard/" + strconv.Itoa(sh) }
	var groups [][]int // in order of first shard
	owned := make(map[*worker]int)
	for sh := 0; sh < n; sh++ {
		wk, ok := c.pick(shardKey(sh))
		if !ok {
			return nil, wresp{}, errNoWorkers
		}
		gi, seen := owned[wk]
		if !seen {
			gi = len(groups)
			owned[wk] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], sh)
	}
	parts := make([]server.CohortPartBody, len(groups))
	resps := make([]wresp, len(groups))
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for gi, grp := range groups {
		body, err := json.Marshal(server.CohortPartRequest{Cohort: req, Shards: grp})
		if err != nil {
			errs[gi] = err
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[gi], errs[gi] = c.dispatch(ctx, shardKey(grp[0]), "/v1/cohort/part", "", body)
			if errs[gi] == nil && resps[gi].status == http.StatusOK {
				if err := json.Unmarshal(resps[gi].body, &parts[gi]); err != nil {
					errs[gi] = fmt.Errorf("fleet: undecodable part: %w", err)
				}
			}
		}()
	}
	wg.Wait()
	for gi := range groups {
		if errs[gi] != nil || resps[gi].status != http.StatusOK {
			return nil, resps[gi], errs[gi]
		}
	}
	return parts, wresp{}, nil
}
