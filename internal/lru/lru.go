// Package lru is a map bounded by the bytes its entries are charged,
// evicting the least recently used entry first. dvfsd's result cache and
// the experiments package's generated-input memo both keep one.
package lru

import "container/list"

// Cache maps keys to values under a byte budget. Each entry is charged a
// cost when it is added; adding past the budget evicts from the least
// recently used end until the charged total fits again. A Cache is not
// safe for concurrent use: its owner serializes access, usually under the
// same lock that guards the owner's own counters.
type Cache[K comparable, V any] struct {
	max       int64
	size      int64
	evictions int64
	ll        list.List // most recently used at the front; values are *entry[K, V]
	items     map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// New returns an empty cache with a budget of maxBytes.
func New[K comparable, V any](maxBytes int64) *Cache[K, V] {
	return &Cache[K, V]{max: maxBytes, items: make(map[K]*list.Element)}
}

// Get returns the value stored under key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Add stores val under key at the given cost, evicting from the least
// recently used end until the budget holds. An entry costing more than
// the whole budget is not stored, and neither is anything under a budget
// ≤ 0. A key already present keeps its value and becomes most recently
// used.
func (c *Cache[K, V]) Add(key K, val V, cost int64) {
	if c.max <= 0 || cost > c.max {
		return
	}
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val, cost: cost})
	c.size += cost
	for c.size > c.max {
		tail := c.ll.Back()
		e := tail.Value.(*entry[K, V])
		c.ll.Remove(tail)
		delete(c.items, e.key)
		c.size -= e.cost
		c.evictions++
	}
}

// Len returns the number of entries stored.
func (c *Cache[K, V]) Len() int { return c.ll.Len() }

// Bytes returns the total cost of the entries stored.
func (c *Cache[K, V]) Bytes() int64 { return c.size }

// Budget returns the byte budget the cache was made with.
func (c *Cache[K, V]) Budget() int64 { return c.max }

// Evictions returns how many entries the budget has evicted so far.
func (c *Cache[K, V]) Evictions() int64 { return c.evictions }
