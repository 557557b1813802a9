package exsample

import (
	"context"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/cachestore"
	"github.com/exsample/exsample/cachestore/httpcache"
)

// Tests for the shared result tier: remote L2 via httpcache, content
// addressing and engine-level singleflight.

// loopbackCache spins up an httpcache server over a Local store and returns
// a connected client plus the backing store.
func loopbackCache(t *testing.T) (*httpcache.Client, *cachestore.Local) {
	t.Helper()
	store := cachestore.NewLocal(1 << 16)
	srv := httptest.NewServer(httpcache.Handler(store))
	t.Cleanup(srv.Close)
	c, err := httpcache.New(httpcache.Config{Endpoint: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	return c, store
}

func TestRemoteTierByteIdenticalResults(t *testing.T) {
	// With the remote tier enabled, a seeded engine query must return
	// byte-identical Results to plain Search — the tier changes charged
	// costs and sharing, never behavior.
	ds := smallDataset(t, WithPerfectDetector())
	q := Query{Class: "car", Limit: 20}
	opts := Options{Seed: 101}

	want, err := ds.Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	remote, _ := loopbackCache(t)
	e := newTestEngine(t, EngineOptions{Workers: 2, RemoteCache: remote})
	h, err := e.Submit(context.Background(), ds, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Results, rep.Results) {
		t.Fatal("remote-tier run diverged from Search's Results")
	}
	if rep.CacheMisses != rep.FramesProcessed || rep.CacheHits != 0 || rep.RemoteCacheHits != 0 {
		t.Fatalf("cold tier run: hits=%d remote=%d misses=%d over %d frames",
			rep.CacheHits, rep.RemoteCacheHits, rep.CacheMisses, rep.FramesProcessed)
	}
	st := e.TierStats()
	if st.Fills != rep.FramesProcessed {
		t.Fatalf("tier filled %d frames for %d processed", st.Fills, rep.FramesProcessed)
	}
	if st.L2RoundTrips == 0 || st.L2RTTSeconds <= 0 {
		t.Fatalf("no remote traffic recorded: %+v", st)
	}
}

func TestSecondUserServedFromRemoteTier(t *testing.T) {
	// The headline path: one process pays for a query's inference, a second
	// process — fresh dataset object, fresh engine, same video content,
	// same shared cache server — runs the same query without a single
	// detector-charged frame, byte-identically.
	spec := SynthSpec{
		NumFrames:    200_000,
		NumInstances: 300,
		Class:        "car",
		MeanDuration: 150,
		SkewFraction: 1.0 / 16,
		ChunkFrames:  4000,
		Seed:         21,
	}
	q := Query{Class: "car", Limit: 20}
	opts := Options{Seed: 77}
	remote, _ := loopbackCache(t)

	ds1, err := Synthesize(spec, WithPerfectDetector())
	if err != nil {
		t.Fatal(err)
	}
	e1 := newTestEngine(t, EngineOptions{Workers: 2, RemoteCache: remote})
	h1, err := e1.Submit(context.Background(), ds1, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := h1.Wait()
	if err != nil {
		t.Fatal(err)
	}

	// Second user: everything process-local is rebuilt from scratch.
	ds2, err := Synthesize(spec, WithPerfectDetector())
	if err != nil {
		t.Fatal(err)
	}
	e2 := newTestEngine(t, EngineOptions{Workers: 2, RemoteCache: remote})
	h2, err := e2.Submit(context.Background(), ds2, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := h2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep1.Results, rep2.Results) {
		t.Fatal("second user's Results diverged from the first's")
	}
	if rep2.CacheMisses != 0 {
		t.Fatalf("second user missed %d frames, want 0", rep2.CacheMisses)
	}
	if rep2.RemoteCacheHits != rep2.FramesProcessed {
		t.Fatalf("second user: %d remote hits over %d frames, want all remote",
			rep2.RemoteCacheHits, rep2.FramesProcessed)
	}
	if rep2.DetectSeconds != 0 {
		t.Fatalf("second user charged %v detector seconds", rep2.DetectSeconds)
	}
	if st := e2.TierStats(); st.Fills != 0 {
		t.Fatalf("second user paid %d detector fills", st.Fills)
	}
}

func TestContentIDStableAcrossReopens(t *testing.T) {
	spec := SynthSpec{
		NumFrames:    50_000,
		NumInstances: 50,
		Class:        "car",
		MeanDuration: 100,
		ChunkFrames:  2000,
		Seed:         9,
	}
	a, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.qs.contentID != b.qs.contentID {
		t.Fatal("re-opening the same spec changed the content id")
	}
	if a.qs.id == b.qs.id {
		t.Fatal("two opens share a process-local source id")
	}
	spec.Seed = 10
	c, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	if c.qs.contentID == a.qs.contentID {
		t.Fatal("different generation seeds share a content id")
	}
	// A noise-model option changes detector output, so it must change the
	// content id too.
	d, err := Synthesize(SynthSpec{
		NumFrames:    50_000,
		NumInstances: 50,
		Class:        "car",
		MeanDuration: 100,
		ChunkFrames:  2000,
		Seed:         9,
	}, WithPerfectDetector())
	if err != nil {
		t.Fatal(err)
	}
	if d.qs.contentID == a.qs.contentID {
		t.Fatal("different noise models share a content id")
	}
	// Sharded composition is content-addressed from its members and name.
	mk := func() *ShardedSource {
		shards := shardDatasets(t, 2, 20_000)
		ss, err := NewShardedSource("fleet", shards...)
		if err != nil {
			t.Fatal(err)
		}
		return ss
	}
	if mk().qs.contentID != mk().qs.contentID {
		t.Fatal("identical sharded compositions differ in content id")
	}
}

// heldBackend serves from inner, counting frames, and runs hold inside its
// first call only.
type heldBackend struct {
	inner         backend.Backend
	hold          func(calls *atomic.Int64)
	calls, frames atomic.Int64
}

func (b *heldBackend) DetectBatch(ctx context.Context, class string, frames []int64) ([][]backend.Detection, error) {
	if b.calls.Add(1) == 1 {
		b.hold(&b.calls)
	}
	b.frames.Add(int64(len(frames)))
	return b.inner.DetectBatch(ctx, class, frames)
}

func (b *heldBackend) Hints() backend.Hints { return b.inner.Hints() }

func TestEngineSingleflightSharedFrames(t *testing.T) {
	// Two identical concurrent queries on a cold cache must cost exactly
	// one detector call per distinct frame, whether the cache is the memo
	// cache alone or fronts a shared remote tier, and whether the source is
	// one dataset or a sharded fleet: whichever query reaches a frame second
	// either merges into the first's in-flight fill (singleflight) or hits
	// the L1 write-through — never the backend.
	for _, tc := range []struct {
		name            string
		remote, sharded bool
	}{{"memo", false, false}, {"remote", true, false}, {"remote_sharded", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			eo := EngineOptions{Workers: 4, CacheEntries: 1 << 16}
			if tc.remote {
				eo.RemoteCache, _ = loopbackCache(t)
			}
			e := newTestEngine(t, eo)
			inner := smallDataset(t, WithPerfectDetector()).Backend()

			// A one-frame blocker holds the scheduler's first round until both
			// queries are registered, so from the second round on they pick
			// the same frame in the same round. It is its own source with its
			// own content, so its one cached frame never collides with theirs.
			blocking, release := make(chan struct{}), make(chan struct{})
			blocker := smallDataset(t, WithPerfectDetector(), WithBackend(&heldBackend{
				inner: inner,
				hold:  func(*atomic.Int64) { close(blocking); <-release },
			}))
			// On one dataset the first cached detector call is then held
			// until the other query has missed the same frame in the memo
			// cache (a leader's own lookups count two misses, on top of the
			// blocker's) or called the backend itself. A sharded fleet counts
			// what its shards served.
			var blockerMisses int64
			var src Source
			var served func() int64
			var ss *ShardedSource
			if tc.sharded {
				var err error
				ss, err = NewShardedSource("fleet", shardDatasets(t, 2, 20_000, WithPerfectDetector())...)
				if err != nil {
					t.Fatal(err)
				}
				src, served = ss, func() int64 {
					var n int64
					for _, st := range ss.ShardStats() {
						n += st.DetectCalls
					}
					return n
				}
			} else {
				held := &heldBackend{inner: inner, hold: func(calls *atomic.Int64) {
					for e.memo.Stats().Misses < blockerMisses+3 && calls.Load() < 2 {
						runtime.Gosched()
					}
				}}
				src, served = smallDataset(t, WithBackend(held)), held.frames.Load
			}

			q := Query{Class: "car", Limit: 20}
			opts := Options{Seed: 5}
			hb, err := e.Submit(context.Background(), blocker, Query{Class: "car", Limit: 1}, Options{Seed: 5, MaxFrames: 1})
			if err != nil {
				t.Fatal(err)
			}
			<-blocking
			blockerMisses = e.memo.Stats().Misses
			var handles [2]*QueryHandle
			for i := range handles {
				h, err := e.Submit(context.Background(), src, q, opts)
				if err != nil {
					t.Fatal(err)
				}
				handles[i] = h
			}
			close(release)
			blocked, err := hb.Wait()
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for _, h := range handles {
				wg.Add(1)
				go func(h *QueryHandle) {
					defer wg.Done()
					for range h.Events() {
					}
				}(h)
			}
			reps := make([]*Report, len(handles))
			for i, h := range handles {
				rep, err := h.Wait()
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				if rep.CacheHits+rep.CacheMisses != rep.FramesProcessed {
					t.Fatalf("query %d: %d hits + %d misses over %d frames",
						i, rep.CacheHits, rep.CacheMisses, rep.FramesProcessed)
				}
				reps[i] = rep
			}
			wg.Wait()
			if !reflect.DeepEqual(reps[0].Results, reps[1].Results) {
				t.Fatal("identical concurrent queries diverged")
			}
			// Same seed → same distinct frame set; the backends must have
			// served it exactly once.
			if n := served(); n != reps[0].FramesProcessed {
				t.Fatalf("backends served %d frames for %d distinct sampled frames (duplicate inference under concurrency)",
					n, reps[0].FramesProcessed)
			}
			if ss != nil {
				for _, st := range ss.ShardStats() {
					if st.DetectCalls == 0 {
						t.Fatalf("shard %d served no frames; the query did not fan out", st.Shard)
					}
				}
			}
			if st, want := e.TierStats(), reps[0].FramesProcessed+blocked.FramesProcessed; tc.remote && st.Fills != want {
				t.Fatalf("tier filled %d frames, want %d", st.Fills, want)
			}
		})
	}
}

// TestMemoCacheMatchesSearch: the memo cache changes charged costs, never
// picks. A hundred seeded queries share one engine's cache, so later ones
// run over frames earlier ones (or concurrent ones) already paid for; each
// must still return exactly Search's Results, at one worker and at four.
func TestMemoCacheMatchesSearch(t *testing.T) {
	ds := smallDataset(t)
	q := Query{Class: "car", Limit: 20}
	const seeds = 100
	want := make([][]Result, seeds)
	for i := range want {
		rep, err := ds.Search(q, Options{Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep.Results
	}
	for _, workers := range []int{1, 4} {
		e := newTestEngine(t, EngineOptions{Workers: workers, CacheEntries: 1 << 16})
		handles := make([]*QueryHandle, seeds)
		for i := range handles {
			h, err := e.Submit(context.Background(), ds, q, Options{Seed: uint64(i + 1)})
			if err != nil {
				t.Fatal(err)
			}
			handles[i] = h
		}
		for i, h := range handles {
			rep, err := h.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want[i], rep.Results) {
				t.Errorf("Workers %d, seed %d: cached engine diverged from Search", workers, i+1)
			}
		}
		if e.CacheStats().Hits == 0 {
			t.Fatalf("Workers %d: no query hit the memo cache; the test shares nothing", workers)
		}
	}
}
