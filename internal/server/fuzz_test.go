package server

import (
	"bytes"
	"encoding/hex"
	"errors"
	"slices"
	"testing"

	"videodvfs/internal/cohort"
	"videodvfs/internal/experiments"
)

// FuzzDecodeRunRequest asserts the full untrusted-input path is total:
// arbitrary bytes either decode into a RunRequest whose Config() is a
// validated, cacheable RunConfig, or fail with a typed error — never a
// panic, never a config that Validate would reject.
func FuzzDecodeRunRequest(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"duration_s": 30, "seed": 2}`))
	f.Add([]byte(`{"governor": "ondemand", "abr": "bba", "net": "lte", "duration_s": 60}`))
	f.Add([]byte(`{"device": "flagship", "title": "sports", "rung": "1080p", "fps": 24}`))
	f.Add([]byte(`{"policy": {"margin": 0.3, "beta": 0.5}}`))
	f.Add([]byte(`{"governor": "nosuch"}`))
	f.Add([]byte(`{"unknown_field": 1}`))
	f.Add([]byte(`{"duration_s": -5}`))
	f.Add([]byte(`{} trailing`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"duration_s": 1e309}`))
	f.Add([]byte("{\"title\": \"\x00\"}"))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeRunRequest(bytes.NewReader(body))
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("decode error %v does not wrap ErrBadRequest", err)
			}
			return
		}
		cfg, err := req.Config()
		if err != nil {
			if !errors.Is(err, experiments.ErrInvalidConfig) {
				t.Fatalf("Config error %v does not wrap ErrInvalidConfig", err)
			}
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Config() returned a config Validate rejects: %v", err)
		}
		// Requests carry no callbacks, so every accepted config must have
		// a stable content-addressed identity.
		k1, ok := experiments.ConfigKey(cfg)
		if !ok {
			t.Fatal("decoded config reported uncacheable")
		}
		if k2, _ := experiments.ConfigKey(cfg); k1 != k2 || len(k1) != 64 {
			t.Fatalf("cache key unstable or malformed: %q vs %q", k1, k2)
		}
	})
}

// FuzzSweepRequest pins the sweep expansion's counting contract: Size,
// which the handlers check against the cap before anything is
// materialised, counts exactly the configs Configs produces. Configs
// materialises every point, so like the handlers the target only calls
// it under a cap.
func FuzzSweepRequest(f *testing.F) {
	f.Add([]byte(`{"base": {}, "seed_range": [-9223372036854775808, 9223372036854775807]}`))
	f.Add([]byte(`{"base": {}, "seed_range": [-4611686018427387904, 4611686018427387904]}`))
	f.Add([]byte(`{"base": {}, "seed_range": [9223372036854775806, 9223372036854775807]}`))
	f.Add([]byte(`{"base": {"duration_s": 5}, "governors": ["ondemand", "energyaware"], "nets": ["wifi", "lte"],
		"devices": ["flagship", "midrange"], "titles": ["news", "sports"], "rungs": ["360p", "720p"], "seeds": [1, 2, 3]}`))
	f.Add([]byte(`{"base": {}, "seeds": [1, 2, 3], "seed_range": [5, 4]}`))
	f.Add([]byte(`{"base": {"net": "trace", "bw_trace": ` + validTraceJSON + `, "duration_s": 1}, "seeds": [1, 2]}`))
	f.Add([]byte(`{"base": {"net": "lte"}, "nets": ["", "umts"], "seeds": [3]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeSweepRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		size := req.Size()
		if size < 1 {
			t.Fatalf("Size() = %d, want ≥ 1", size)
		}
		if size > 4096 {
			return
		}
		cfgs, err := req.Configs()
		if err != nil {
			return
		}
		if int64(len(cfgs)) != size {
			t.Fatalf("Size() = %d but Configs() yields %d", size, len(cfgs))
		}
	})
}

// FuzzSweepPartRequest holds the /v1/sweep/part body — a whole sweep
// request nested beside the points a worker should run — to the contract
// of a run body, and the controller's nesting to losing nothing:
//
//   - as a part body, the bytes either decode or fail with an error
//     wrapping ErrBadRequest; a decoded part whose sweep expands has its
//     point list refused, with ErrInvalidConfig, exactly when the list is
//     empty, names a point twice, or names one below 0 or at or past the
//     sweep's size (checkPoints, which the sweep path runs before it
//     prepares, admits or queues anything);
//   - as a sweep body that decodes and expands, the part SweepPartBody
//     nests it into decodes, and its points have the ConfigKeys the whole
//     sweep's Configs() gives at those indexes.
//
// Like the handlers, the target expands only under a cap.
func FuzzSweepPartRequest(f *testing.F) {
	f.Add([]byte(`{"sweep": {"base": {"duration_s": 5}, "governors": ["ondemand", "energyaware"], "seeds": [1, 2]}, "points": [3, 0]}`))
	f.Add([]byte(`{"sweep": {"base": {}}, "points": []}`))
	f.Add([]byte(`{"sweep": {"base": {}, "seeds": [1, 2]}, "points": [1, 1]}`))
	f.Add([]byte(`{"sweep": {"base": {}}, "points": [-1]}`))
	f.Add([]byte(`{"sweep": {"base": {}, "seeds": [1, 2]}, "points": [2]}`))
	f.Add([]byte(`{"sweep": {"base": {}, "seed_range": [0, 3]}, "points": [0]}`))
	f.Add([]byte(`{"sweep": {"base": {}}, "points": [0], "shards": [0]}`))
	f.Add([]byte(`{"sweep": {"base": {}}, "points": [0]} trailing`))
	f.Add([]byte(`{"points": [0]}`))
	f.Add([]byte(`{"base": {"net": "lte"}, "nets": ["", "umts"], "seeds": [0, 3]}`))
	f.Add([]byte(`{"base": {"net": "trace", "bw_trace": ` + validTraceJSON + `, "duration_s": 1}, "seeds": [1, 2]}`))
	f.Add([]byte(` {"base": {"duration_s": 5}, "governors": ["oracle"]}` + "\n"))
	f.Add([]byte(`{"base": {}}}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, body []byte) {
		if part, err := DecodeSweepPartRequest(bytes.NewReader(body)); err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("decode error %v does not wrap ErrBadRequest", err)
			}
		} else if part.Sweep.Size() <= 4096 {
			if cfgs, err := part.Sweep.Configs(); err == nil {
				invalid := len(part.Points) == 0
				seen := map[int]bool{}
				for _, p := range part.Points {
					invalid = invalid || p < 0 || p >= len(cfgs) || seen[p]
					seen[p] = true
				}
				err := checkPoints(part.Points, len(cfgs))
				if invalid != (err != nil) {
					t.Fatalf("points %v of a %d-point sweep: invalid %v, but checkPoints says %v", part.Points, len(cfgs), invalid, err)
				}
				if err != nil && !errors.Is(err, experiments.ErrInvalidConfig) {
					t.Fatalf("checkPoints error %v does not wrap ErrInvalidConfig", err)
				}
			}
		}

		sweep, err := DecodeSweepRequest(bytes.NewReader(body))
		if err != nil || sweep.Size() > 1024 {
			return
		}
		cfgs, err := sweep.Configs()
		if err != nil {
			return
		}
		var points []int // every other point, last first
		for i := len(cfgs) - 1; i >= 0; i -= 2 {
			points = append(points, i)
		}
		part, err := DecodeSweepPartRequest(bytes.NewReader(SweepPartBody(body, points)))
		if err != nil {
			t.Fatalf("the part nesting an accepted sweep body does not decode: %v", err)
		}
		if !slices.Equal(part.Points, points) {
			t.Fatalf("the part names points %v, want %v", part.Points, points)
		}
		partCfgs, err := part.Sweep.Configs()
		if err != nil || len(partCfgs) != len(cfgs) {
			t.Fatalf("the nested sweep expands to %d points (%v), the sweep to %d", len(partCfgs), err, len(cfgs))
		}
		for _, p := range points {
			got, _ := experiments.ConfigKey(partCfgs[p])
			want, _ := experiments.ConfigKey(cfgs[p])
			if got != want {
				t.Fatalf("point %d: the part runs key %s, the sweep %s", p, got, want)
			}
		}
	})
}

// FuzzCohortPartRequest holds the /v1/cohort/part body — a whole cohort
// request nested beside the shard list a worker should run — to the same
// contract as a run body: decode errors wrap ErrBadRequest, config errors
// wrap ErrInvalidConfig, and an accepted cohort validates and has a
// stable content-addressed key. The shard list is checked on both sides
// of the cache: cohort.RunPart refuses an empty list, a duplicate, a
// negative index or one at or past the shard count, and shardSetKey never
// files a list with duplicates under its deduplicated form's key (where a
// cached part of the valid list would answer it). The target calls
// RunPart only for lists it finds invalid itself, which RunPart refuses
// before building any shard, and only up to 4096 indexes, since RunPart
// copies and sorts the list.
func FuzzCohortPartRequest(f *testing.F) {
	f.Add([]byte(`{"cohort": {"viewers": 8, "shards": 4, "base": {"duration_s": 5}}, "shards": [0, 2]}`))
	f.Add([]byte(`{"cohort": {"viewers": 8, "shards": 4}, "shards": [1, 1]}`))
	f.Add([]byte(`{"cohort": {"viewers": 8, "shards": 4}, "shards": [-1]}`))
	f.Add([]byte(`{"cohort": {"viewers": 8, "shards": 4}, "shards": [4]}`))
	f.Add([]byte(`{"cohort": {"viewers": 8, "shards": 4}, "shards": []}`))
	f.Add([]byte(`{"cohort": {"viewers": 3000, "arrival": "poisson", "arrival_rate_per_sec": 50,
		"cell": {"capacity_mbps": 250, "sectors": 8}}, "shards": [7, 0, 7]}`))
	f.Add([]byte(`{"cohort": {"arrival": "flashmob"}, "shards": [0]}`))
	f.Add([]byte(`{"cohort": {"base": {"net": "5g"}}, "shards": [0]}`))
	f.Add([]byte(`{"cohort": {"spectators": 5}, "shards": [0]}`))
	f.Add([]byte(`{"cohort": {}, "shards": [0]} trailing`))
	f.Add([]byte(`{"shards": [0]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeCohortPartRequest(bytes.NewReader(body))
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("decode error %v does not wrap ErrBadRequest", err)
			}
			return
		}
		shards := req.Shards
		set := slices.Clone(shards)
		slices.Sort(set)
		set = slices.Compact(set)
		if len(set) != len(shards) && shardSetKey(shards) == shardSetKey(set) {
			t.Fatalf("shard list %v shares the cache key %q of its deduplicated form", shards, shardSetKey(set))
		}
		rev := slices.Clone(shards)
		slices.Reverse(rev)
		if shardSetKey(rev) != shardSetKey(shards) {
			t.Fatalf("two orders of %v map to different keys", shards)
		}

		cfg, err := req.Cohort.Config()
		if err != nil {
			if !errors.Is(err, experiments.ErrInvalidConfig) {
				t.Fatalf("Config error %v does not wrap ErrInvalidConfig", err)
			}
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Config() returned a cohort Validate rejects: %v", err)
		}
		k1, ok := cohort.Key(cfg)
		if !ok {
			t.Fatal("decoded cohort reported uncacheable")
		}
		if k2, _ := cohort.Key(cfg); k1 != k2 || len(k1) != 64 {
			t.Fatalf("cohort key unstable or malformed: %q vs %q", k1, k2)
		}
		if _, err := hex.DecodeString(k1); err != nil {
			t.Fatalf("cohort key %q is not hex: %v", k1, err)
		}

		n := cohort.ShardCount(cfg)
		invalid := len(shards) == 0 || len(set) != len(shards)
		for _, idx := range shards {
			if idx < 0 || idx >= n {
				invalid = true
			}
		}
		if !invalid || len(shards) > 4096 {
			return
		}
		if _, err := cohort.RunPart(cfg, shards); !errors.Is(err, experiments.ErrInvalidConfig) {
			t.Fatalf("RunPart over %d shards accepted the list %v (err %v)", n, shards, err)
		}
	})
}
