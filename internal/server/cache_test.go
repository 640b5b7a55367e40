package server

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestCacheStoresAndHits(t *testing.T) {
	c := newResultCache(1 << 20)
	calls := 0
	compute := func() ([]byte, error) { calls++; return []byte("body"), nil }
	body, outcome, err := c.Do("k", compute)
	if err != nil || outcome != cacheMiss || string(body) != "body" {
		t.Fatalf("first Do = %s/%s/%v", body, outcome, err)
	}
	body, outcome, err = c.Do("k", compute)
	if err != nil || outcome != cacheHit || string(body) != "body" {
		t.Fatalf("second Do = %s/%s/%v", body, outcome, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 4 {
		t.Fatalf("stats %+v", st)
	}
	if got := st.HitRatio(); got != 0.5 {
		t.Fatalf("hit ratio %v, want 0.5", got)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := newResultCache(1 << 20)
	boom := errors.New("boom")
	calls := 0
	if _, _, err := c.Do("k", func() ([]byte, error) { calls++; return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if body, outcome, err := c.Do("k", func() ([]byte, error) { calls++; return []byte("ok"), nil }); err != nil ||
		outcome != cacheMiss || string(body) != "ok" {
		t.Fatalf("retry = %s/%s/%v", body, outcome, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (error must not be pinned)", calls)
	}
}

// resident reports whether key's body is in the cache, probing through
// Do with a computation that fails, so a miss stores nothing. A hit
// refreshes the entry's recency, as any lookup does.
func resident(c *resultCache, key string) bool {
	_, outcome, _ := c.Do(key, func() ([]byte, error) { return nil, errors.New("not resident") })
	return outcome == cacheHit
}

// Eviction must keep total bytes under the bound, dropping least
// recently used entries first.
func TestCacheLRUByteBound(t *testing.T) {
	c := newResultCache(100)
	body := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 40) }
	for i := 0; i < 2; i++ {
		c.Do(fmt.Sprintf("k%d", i), func() ([]byte, error) { return body(i), nil })
	}
	// Touch k0 so k1 is the LRU victim when k2 arrives.
	if !resident(c, "k0") {
		t.Fatal("k0 missing before eviction")
	}
	c.Do("k2", func() ([]byte, error) { return body(2), nil })
	st := c.Stats()
	if st.Bytes > 100 {
		t.Fatalf("cache holds %d bytes, bound is 100", st.Bytes)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if resident(c, "k1") {
		t.Fatal("k1 survived but was the LRU entry")
	}
	if !resident(c, "k0") {
		t.Fatal("k0 evicted despite being recently used")
	}
	if !resident(c, "k2") {
		t.Fatal("k2 missing right after insert")
	}
}

// A body larger than the whole bound must pass through uncached rather
// than evicting everything.
func TestCacheOversizedBodyNotStored(t *testing.T) {
	c := newResultCache(10)
	c.Do("small", func() ([]byte, error) { return []byte("abc"), nil })
	c.Do("big", func() ([]byte, error) { return bytes.Repeat([]byte("x"), 64), nil })
	if resident(c, "big") {
		t.Fatal("oversized body was stored")
	}
	if !resident(c, "small") {
		t.Fatal("small entry evicted by an unstorable body")
	}
}

func TestCacheSingleflightConcurrent(t *testing.T) {
	c := newResultCache(1 << 20)
	gate := make(chan struct{})
	var calls, coalesced, misses int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, outcome, err := c.Do("k", func() ([]byte, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				<-gate
				return []byte("flight"), nil
			})
			if err != nil || string(body) != "flight" {
				t.Errorf("Do = %s/%v", body, err)
			}
			mu.Lock()
			switch outcome {
			case cacheCoalesced:
				coalesced++
			case cacheMiss:
				misses++
			}
			mu.Unlock()
		}()
	}
	// Let every goroutine reach the cache before releasing the leader.
	for {
		st := c.Stats()
		if st.Misses+st.Coalesced == 16 {
			break
		}
	}
	close(gate)
	wg.Wait()
	if calls != 1 || misses != 1 || coalesced != 15 {
		t.Fatalf("calls=%d misses=%d coalesced=%d, want 1/1/15", calls, misses, coalesced)
	}
}
