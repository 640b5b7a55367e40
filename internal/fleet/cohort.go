package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"videodvfs/internal/cohort"
	"videodvfs/internal/server"
)

// handleCohort shards one cohort across the fleet. The shard layout is a
// pure function of the cohort config, so the controller derives it
// locally, routes each shard index by cohortKey+"/shard/i" on the ring,
// and sends every owning worker one /v1/cohort/part request naming its
// shard set (fanOut). The returned partials merge in global shard-index
// order (cohort.MergeParts), reproducing the single-node Result bit for
// bit wherever each group ran; the response is the summary NDJSON line a
// single dvfsd closes its cohort stream with. (Rollup frames require the
// whole-cohort barrier state no part can see, so a fleet cohort answers
// with the summary only.)
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
	n := cohort.ShardCount(cfg)
	// Each group's part body lands at its first shard's index: the groups
	// are disjoint, so their dispatch goroutines write disjoint elements.
	bodies := make([]server.CohortPartBody, n)
	groups := c.fanOut(r.Context(), n, func(sh int) string { return key + "/shard/" + strconv.Itoa(sh) },
		"/v1/cohort/part", "",
		func(shards []int) ([]byte, error) {
			return json.Marshal(server.CohortPartRequest{Cohort: req, Shards: shards})
		},
		func(shards []int, data []byte) error {
			var part server.CohortPartBody
			if err := json.Unmarshal(data, &part); err != nil {
				return err
			}
			bodies[shards[0]] = part
			return nil
		})
	// MergeParts needs every shard, so any failed group (a worker 4xx, an
	// exhausted 429, a fleet-level error) fails the whole cohort.
	for gi := range groups {
		if g := &groups[gi]; !g.ok() {
			c.writeDispatchError(w, g.resp, g.err)
			return
		}
	}
	partKey := bodies[groups[0].units[0]].Key
	partials := make([]cohort.Partial, len(groups))
	for gi, g := range groups {
		p := bodies[g.units[0]]
		if p.Key != partKey {
			server.WriteJSON(w, http.StatusInternalServerError, server.NewEnvelope(server.CodeInternal,
				fmt.Sprintf("fleet: workers disagree on the cohort key (%s vs %s); their settings differ", partKey, p.Key)))
			return
		}
		partials[gi] = p.Partial
	}
	merged, err := cohort.MergeParts(partials)
	if err != nil {
		server.WriteJSON(w, http.StatusInternalServerError, server.NewEnvelope(server.CodeInternal, err.Error()))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := json.NewEncoder(w).Encode(server.CohortSummaryFrame{Ev: "summary", Key: partKey, Result: merged}); err != nil {
		server.WriteJSON(w, http.StatusInternalServerError, server.NewEnvelope(server.CodeInternal, err.Error()))
	}
}
