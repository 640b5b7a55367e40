package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"

	"videodvfs/internal/sim"
)

// ring is a consistent-hash ring mapping content-addressed keys onto
// worker indexes. Each worker owns vnodes points on the ring, so load
// spreads evenly and removing one worker reassigns only that worker's
// keys — the property that keeps every other worker's result cache hot
// across an ejection. The ring itself is immutable after build; liveness
// is a predicate supplied at lookup time, so an ejected worker's keys
// flow to the next alive point with no ring mutation (and flow back the
// moment a probe revives it).
type ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	worker int
}

// vnodes is the number of ring points per worker.
const vnodes = 64

// newRing builds a ring with vnodes points per worker, identified by the
// workers' stable labels (their base URLs).
func newRing(labels []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(labels)*vnodes)}
	for wi, label := range labels {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   hashKey(fmt.Sprintf("%s#%d", label, v)),
				worker: wi,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.worker < b.worker // ties broken deterministically
	})
	return r
}

// pick returns the worker owning key: the first alive worker at or after
// key's point on the ring, wrapping around. The second return is false
// when no worker is alive.
func (r *ring) pick(key string, alive func(int) bool) (int, bool) {
	if len(r.points) == 0 {
		return 0, false
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if alive(p.worker) {
			return p.worker, true
		}
	}
	return 0, false
}

// hashKey places a key on the ring: FNV-1a, finalized with SplitMix64.
// FNV-1a alone folds a key's last byte in with one multiply, so keys that
// differ only in a short suffix — a cohort's "key/shard/i", a worker's
// "url#v" vnode labels — land next to each other and share one owner.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return sim.Mix64(h.Sum64())
}
