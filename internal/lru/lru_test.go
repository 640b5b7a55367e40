package lru

import "testing"

// TestEvictsLeastRecentlyUsed checks the eviction order: a lookup makes an
// entry most recently used, and adding past the budget drops from the
// other end until the charged total fits.
func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](3)
	c.Add("a", 1, 1)
	c.Add("b", 2, 1)
	c.Add("c", 3, 1)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Add("d", 4, 2) // evicts b, then c; a was used after both
	for key, want := range map[string]bool{"a": true, "b": false, "c": false, "d": true} {
		if _, ok := c.Get(key); ok != want {
			t.Errorf("%s present = %v, want %v", key, ok, want)
		}
	}
	if c.Len() != 2 || c.Bytes() != 3 || c.Evictions() != 2 {
		t.Fatalf("len %d, bytes %d, evictions %d; want 2, 3, 2", c.Len(), c.Bytes(), c.Evictions())
	}
	c.Add("a", 9, 1) // present: keeps its value
	if v, _ := c.Get("a"); v != 1 {
		t.Fatalf("re-adding a replaced its value with %d", v)
	}
	c.Add("big", 0, 4) // over the whole budget: not stored, nothing evicted
	if _, ok := c.Get("big"); ok || c.Len() != 2 {
		t.Fatalf("an entry over the budget was stored (len %d)", c.Len())
	}
	if z := New[string, int](0); func() bool { z.Add("x", 1, 0); return z.Len() != 0 }() {
		t.Fatal("a zero budget stored an entry")
	}
}
