package cachestore

import (
	"context"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/internal/batchwire"
	"github.com/exsample/exsample/internal/cache"
)

// Local is the in-process tier: a Store over the bounded sharded LRU that
// backs the engine's memo cache. It is the L1 of every Tiered store and the
// natural backing store for an httpcache.Handler (a cache server is a
// Local behind the wire protocol). Local never returns an error and is safe
// for concurrent use.
type Local struct {
	c *cache.Cache
}

// Compile-time interface check.
var _ Store = (*Local)(nil)

// NewLocal builds a local store bounding resident entries to roughly
// capacity (values < 1 are clamped to 1, matching internal/cache).
func NewLocal(capacity int) *Local {
	return &Local{c: cache.New(capacity)}
}

// GetBatch implements Store. The returned detections are the cached slices
// themselves, shared with every other reader: do not modify them.
func (l *Local) GetBatch(_ context.Context, keys []Key) ([]Entry, error) {
	out := make([]Entry, len(keys))
	for i, k := range keys {
		if dets, ok := l.lookup(k); ok {
			out[i] = Entry{Found: true, Dets: dets}
		}
	}
	return out, nil
}

// lookup is the allocation-free single-key read behind GetBatch and a
// Tiered's L1 pass.
func (l *Local) lookup(k Key) ([]backend.Detection, bool) { return l.c.Get(cacheKey(k)) }

// PutBatch implements Store. Each entry is stored under its key's frame
// whatever Frame its detections echo (see batchwire.PinFrame).
func (l *Local) PutBatch(_ context.Context, keys []Key, vals [][]backend.Detection) error {
	if err := checkPut(keys, vals); err != nil {
		return err
	}
	for i, k := range keys {
		l.c.Put(cacheKey(k), batchwire.PinFrame(k.Frame, vals[i]))
	}
	return nil
}

// Stats is a snapshot of a local store's counters.
type Stats struct {
	// Hits and Misses count lookup outcomes since construction.
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

// Stats snapshots the store's counters.
func (l *Local) Stats() Stats {
	st := l.c.Stats()
	return Stats{Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions, Entries: st.Entries}
}

// cacheKey maps a content-addressed key onto the internal cache's key
// space: Content plays the role the per-process source id plays for the
// memo cache.
func cacheKey(k Key) cache.Key {
	return cache.Key{Source: k.Content, Class: k.Class, Frame: k.Frame}
}
