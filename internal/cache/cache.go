// Package cache memoizes detector outputs across queries.
//
// The simulated (and any stateless real) detector is deterministic per
// (source, class, frame), so when overlapping queries sample the same frame
// the second inference is pure waste — the paper's cost model charges it
// all the same. This package provides a bounded, sharded LRU keyed by
// exactly that triple: concurrent queries Get before running the detector
// and Put after, and a hit is charged decode-only cost by the caller.
//
// The cache holds detector output verbatim. Cached slices are shared
// between queries and MUST be treated as immutable by callers; the
// discriminator consumes detections by value, so the query pipeline
// satisfies this naturally.
package cache

import (
	"sync"
	"sync/atomic"

	"github.com/exsample/exsample/internal/track"
)

// Key identifies one detector invocation. Source disambiguates repositories
// (every open source gets a unique id), Class the per-query detector head.
type Key struct {
	Source uint64
	Class  string
	Frame  int64
}

// numShards is the lock-striping factor. 16 keeps contention negligible for
// worker pools an order of magnitude larger while wasting at most 15 spare
// entries of capacity.
const numShards = 16

// Cache is a bounded, sharded LRU. All methods are safe for concurrent use.
type Cache struct {
	shards    [numShards]lruShard
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// lruShard keeps its entries in a slab of slots doubly linked by int32
// indexes (head = most recently used) and indexed by idx. The slab grows on
// demand up to cap and nothing ever frees a slot without refilling it — an
// evicting insert reuses the victim's slot in place — so no free list is
// needed, and Put allocates nothing in steady state: insert, refresh and
// evicting insert all work in place.
type lruShard struct {
	mu         sync.Mutex
	cap        int
	slots      []slot
	idx        map[Key]int32
	head, tail int32 // -1 when empty
}

type slot struct {
	key        Key
	dets       []track.Detection
	prev, next int32
}

// New creates a cache bounding the total entry count to roughly capacity
// (capacity is split evenly across the lock shards, rounding up).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	per := (capacity + numShards - 1) / numShards
	c := &Cache{}
	for i := range c.shards {
		c.shards[i] = lruShard{cap: per, idx: make(map[Key]int32), head: -1, tail: -1}
	}
	return c
}

// shard picks the lock shard for a key by hashing all three components.
func (c *Cache) shard(k Key) *lruShard {
	h := k.Source*0x9e3779b97f4a7c15 ^ uint64(k.Frame)*0xbf58476d1ce4e5b9
	for i := 0; i < len(k.Class); i++ {
		h = (h ^ uint64(k.Class[i])) * 0x100000001b3
	}
	h ^= h >> 29
	return &c.shards[h%numShards]
}

// unlink detaches slot i from the recency list.
func (s *lruShard) unlink(i int32) {
	sl := &s.slots[i]
	if sl.prev >= 0 {
		s.slots[sl.prev].next = sl.next
	} else {
		s.head = sl.next
	}
	if sl.next >= 0 {
		s.slots[sl.next].prev = sl.prev
	} else {
		s.tail = sl.prev
	}
}

// pushFront links slot i in as the most recently used.
func (s *lruShard) pushFront(i int32) {
	sl := &s.slots[i]
	sl.prev, sl.next = -1, s.head
	if s.head >= 0 {
		s.slots[s.head].prev = i
	} else {
		s.tail = i
	}
	s.head = i
}

// moveToFront makes slot i the most recently used.
func (s *lruShard) moveToFront(i int32) {
	if i != s.head {
		s.unlink(i)
		s.pushFront(i)
	}
}

// Get returns the memoized detections for a key. The returned slice is
// shared — callers must not mutate it. A nil slice with ok true is a valid
// memoized "no detections" result.
func (c *Cache) Get(k Key) (dets []track.Detection, ok bool) {
	s := c.shard(k)
	s.mu.Lock()
	i, ok := s.idx[k]
	if ok {
		s.moveToFront(i)
		dets = s.slots[i].dets
	}
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return dets, ok
}

// Put memoizes detections for a key, evicting the least recently used entry
// of the key's shard when full. Re-putting an existing key refreshes its
// recency (the value is identical by construction — detectors are
// deterministic).
func (c *Cache) Put(k Key, dets []track.Detection) {
	s := c.shard(k)
	s.mu.Lock()
	if i, ok := s.idx[k]; ok {
		s.moveToFront(i)
		s.slots[i].dets = dets
		s.mu.Unlock()
		return
	}
	var i int32
	if len(s.slots) < s.cap {
		s.slots = append(s.slots, slot{})
		i = int32(len(s.slots) - 1)
	} else {
		// Full: the least recently used slot takes the new entry in place.
		i = s.tail
		delete(s.idx, s.slots[i].key)
		s.unlink(i)
		c.evictions.Add(1)
	}
	s.slots[i].key, s.slots[i].dets = k, dets
	s.pushFront(i)
	s.idx[k] = i
	s.mu.Unlock()
}

// Stats is a snapshot of the cache's aggregate counters.
type Stats struct {
	// Hits and Misses count Get outcomes since construction.
	Hits, Misses int64
	// Evictions counts entries displaced by capacity pressure.
	Evictions int64
	// Entries is the current resident entry count.
	Entries int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += len(s.idx)
		s.mu.Unlock()
	}
	return st
}
