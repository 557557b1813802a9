package cache

import (
	"fmt"
	"sync"
	"testing"

	"github.com/exsample/exsample/internal/track"
)

func det(frame int64, score float64) []track.Detection {
	return []track.Detection{{Frame: frame, Class: "car", Score: score}}
}

func TestCacheGetPut(t *testing.T) {
	c := New(64)
	k := Key{Source: 1, Class: "car", Frame: 42}
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Put(k, det(42, 0.9))
	got, ok := c.Get(k)
	if !ok || len(got) != 1 || got[0].Frame != 42 {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	// Nil detections are a valid memoized result.
	empty := Key{Source: 1, Class: "car", Frame: 43}
	c.Put(empty, nil)
	if got, ok := c.Get(empty); !ok || got != nil {
		t.Fatalf("memoized empty result = %v, %v", got, ok)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheKeysAreDistinct(t *testing.T) {
	c := New(64)
	base := Key{Source: 1, Class: "car", Frame: 7}
	c.Put(base, det(7, 0.5))
	for _, k := range []Key{
		{Source: 2, Class: "car", Frame: 7},
		{Source: 1, Class: "bus", Frame: 7},
		{Source: 1, Class: "car", Frame: 8},
	} {
		if _, ok := c.Get(k); ok {
			t.Errorf("key %+v aliased %+v", k, base)
		}
	}
}

func TestCacheBoundedWithLRUEviction(t *testing.T) {
	// One entry per shard's capacity: total capacity 16 over 16 shards is
	// one entry each, so hammering one class/source overflows shards fast.
	c := New(16)
	for f := int64(0); f < 1000; f++ {
		c.Put(Key{Source: 1, Class: "car", Frame: f}, det(f, 0.5))
	}
	st := c.Stats()
	if st.Entries > 16 {
		t.Fatalf("cache holds %d entries, capacity 16", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded despite overflow")
	}
	// Recency: re-touch a key, overflow its shard, and expect the touched
	// key to survive over the untouched one. Find two keys in one shard.
	c2 := New(numShards) // one slot per shard
	var same []Key
	want := c2.shard(Key{Source: 1, Class: "car", Frame: 0})
	for f := int64(0); len(same) < 2 && f < 10000; f++ {
		k := Key{Source: 1, Class: "car", Frame: f}
		if c2.shard(k) == want {
			same = append(same, k)
		}
	}
	if len(same) < 2 {
		t.Skip("could not find two keys sharing a shard")
	}
	c2.Put(same[0], det(same[0].Frame, 0.1))
	c2.Put(same[1], det(same[1].Frame, 0.2)) // evicts same[0] (cap 1)
	if _, ok := c2.Get(same[0]); ok {
		t.Fatal("evicted key still resident")
	}
	if _, ok := c2.Get(same[1]); !ok {
		t.Fatal("most recent key evicted")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := New(4096) // comfortably holds the 1000-key working set
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				f := int64(i % 500)
				k := Key{Source: uint64(g % 2), Class: "car", Frame: f}
				if dets, ok := c.Get(k); ok {
					if len(dets) != 1 || dets[0].Frame != f {
						panic(fmt.Sprintf("corrupt cached value for frame %d: %v", f, dets))
					}
					continue
				}
				c.Put(k, det(f, 0.5))
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("expected both hits and misses, got %+v", st)
	}
	if st.HitRate() <= 0 || st.HitRate() >= 1 {
		t.Fatalf("hit rate %v out of range", st.HitRate())
	}
}

// TestPutAllocFree: once a shard's slab has grown to capacity, refreshing a
// resident key and inserting a new key that evicts the least recently used
// one both work in place — Put allocates nothing in steady state.
func TestPutAllocFree(t *testing.T) {
	c := New(numShards * 64)
	dets := det(0, 0.5)
	const warm = 4096
	for f := int64(0); f < warm; f++ {
		c.Put(Key{Source: 1, Class: "car", Frame: f}, dets)
	}
	hot := Key{Source: 1, Class: "car", Frame: warm - 1}
	if refresh := testing.AllocsPerRun(500, func() { c.Put(hot, dets) }); refresh != 0 {
		t.Fatalf("refreshing Put allocates %.2f objects, want 0", refresh)
	}
	next := int64(warm)
	evict := testing.AllocsPerRun(500, func() {
		c.Put(Key{Source: 1, Class: "car", Frame: next}, dets)
		next++
	})
	if evict != 0 {
		t.Fatalf("evicting Put allocates %.2f objects, want 0", evict)
	}
	if st := c.Stats(); st.Entries > numShards*64 || st.Evictions == 0 {
		t.Fatalf("stats = %+v, want a full cache that evicted", st)
	}
}
