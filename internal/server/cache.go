package server

import (
	"sync"

	"videodvfs/internal/lru"
)

// cacheStats is a point-in-time snapshot of the result cache's counters.
type cacheStats struct {
	// Hits counts lookups served from memory.
	Hits int64
	// Misses counts lookups that had to compute (singleflight leaders).
	Misses int64
	// Coalesced counts lookups that joined another request's in-flight
	// computation instead of starting their own.
	Coalesced int64
	// Evictions counts entries dropped to stay under the byte bound.
	Evictions int64
	// Entries and Bytes describe the current residency.
	Entries int
	Bytes   int64
}

// HitRatio returns hits / (hits + misses + coalesced). Coalesced lookups
// count toward the denominator but not as hits: they did wait on a
// simulation, just not their own.
func (s cacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses + s.Coalesced
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// flight is one in-progress computation that identical concurrent
// requests coalesce onto.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// resultCache is a content-addressed response cache: canonical-config
// SHA-256 → marshalled response body, bounded by total body bytes with
// LRU eviction, with singleflight coalescing so N concurrent identical
// requests cost one simulation.
//
// Determinism makes this sound: a RunConfig's result never changes, so
// entries have no TTL and invalidation does not exist — the only reason
// to drop an entry is the byte bound.
type resultCache struct {
	mu      sync.Mutex
	bodies  *lru.Cache[string, []byte] // charged len(body)
	flights map[string]*flight
	stats   cacheStats
}

// newResultCache returns a cache bounded to maxBytes of body bytes.
// maxBytes ≤ 0 disables storage entirely (every lookup computes), which
// keeps the singleflight behavior but no residency.
func newResultCache(maxBytes int64) *resultCache {
	return &resultCache{
		bodies:  lru.New[string, []byte](maxBytes),
		flights: make(map[string]*flight),
	}
}

// cacheOutcome tags how a Do call was satisfied, surfaced to clients in
// the X-Dvfsd-Cache header.
type cacheOutcome string

const (
	cacheHit       cacheOutcome = "hit"
	cacheMiss      cacheOutcome = "miss"
	cacheCoalesced cacheOutcome = "coalesced"
	cacheBypass    cacheOutcome = "bypass"
)

// Do returns the body cached under key, computing it with compute on a
// miss. Concurrent calls with the same key coalesce: one runs compute,
// the rest wait and share its result. Failed computations are not
// cached — the next request retries.
func (c *resultCache) Do(key string, compute func() ([]byte, error)) ([]byte, cacheOutcome, error) {
	c.mu.Lock()
	if body, ok := c.bodies.Get(key); ok {
		c.stats.Hits++
		c.mu.Unlock()
		return body, cacheHit, nil
	}
	if f, ok := c.flights[key]; ok {
		c.stats.Coalesced++
		c.mu.Unlock()
		<-f.done
		return f.body, cacheCoalesced, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.stats.Misses++
	c.mu.Unlock()

	f.body, f.err = compute()
	close(f.done)

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.bodies.Add(key, f.body, int64(len(f.body)))
	}
	c.mu.Unlock()
	return f.body, cacheMiss, f.err
}

// Get returns the body cached under key without computing on a miss.
func (c *resultCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	body, ok := c.bodies.Get(key)
	if ok {
		c.stats.Hits++
	}
	return body, ok
}

// Stats snapshots the counters.
func (c *resultCache) Stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Evictions = c.bodies.Evictions()
	s.Entries = c.bodies.Len()
	s.Bytes = c.bodies.Bytes()
	return s
}
