package exsample

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"github.com/exsample/exsample/cachestore"
	"github.com/exsample/exsample/internal/core"
	"github.com/exsample/exsample/internal/track"
)

// sameDets compares detection slices element for element, nil and empty
// alike.
func sameDets(a, b []track.Detection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// storeSpy keeps every detection slice its track run stores, as the run
// handed it over, so the test can read them again after the run.
type storeSpy struct {
	*trackRun
	kept map[int64][]track.Detection
}

func (s *storeSpy) step(p core.Pick, fr frameResult) error {
	err := s.trackRun.step(p, fr)
	if dets, ok := s.trackRun.stored(p.Frame); ok {
		s.kept[p.Frame] = dets
	}
	return err
}

// stored returns the detections the run keeps for a processed frame its
// assemble has not released yet; ok is false for any other frame.
func (r *trackRun) stored(frame int64) (dets []track.Detection, ok bool) {
	for _, w := range r.window {
		if w.frame == frame {
			return w.dets, true
		}
	}
	if frame%r.stride == 0 && frame/r.stride < int64(len(r.grid)) {
		g := r.grid[frame/r.stride]
		return g.dets, g.present
	}
	return nil, false
}

// TestDetectionsOutliveRounds: the detect scratch's output buffer and frame
// buffer are reused by every later batch, yet the detection slices they
// carried are kept across rounds by the engine's L1 and by a track run's
// detection store. After many rounds, every slice either kept must still
// read exactly what a fresh simulated detector reports for its frame.
func TestDetectionsOutliveRounds(t *testing.T) {
	t.Run("L1", func(t *testing.T) {
		// Four shards on their default backends: each frame is detected by
		// its shard's simulator, then remapped into global space in the
		// sharded detector's slab for its batch.
		const framesEach = 4000
		shards := make([]*Dataset, 4)
		for i := range shards {
			shards[i] = elasticShard(t, framesEach, 501+uint64(i))
		}
		src, err := NewShardedSource("outlive", shards...)
		if err != nil {
			t.Fatal(err)
		}
		e := newTestEngine(t, EngineOptions{Workers: 2, FramesPerRound: 8, CacheEntries: 1 << 15})
		var handles []*QueryHandle
		for i := 0; i < 3; i++ {
			h, err := e.Submit(context.Background(), src, Query{Class: "car", Limit: 1 << 20}, Options{Seed: 40 + uint64(i), MaxFrames: 600})
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		for _, h := range handles {
			if _, err := h.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		m := src.topo.Load().snap.Map
		keys := make([]cachestore.Key, 0, 4*framesEach)
		for f := int64(0); f < 4*framesEach; f++ {
			keys = append(keys, cachestore.Key{Content: src.qs.id, Class: "car", Frame: f})
		}
		entries, err := e.memo.GetBatch(context.Background(), keys)
		if err != nil {
			t.Fatal(err)
		}
		checked, withDets := 0, 0
		for i, en := range entries {
			if !en.Found {
				continue
			}
			sh, local := m.Locate(keys[i].Frame)
			sim, err := (&simBackend{d: shards[sh]}).detector("car")
			if err != nil {
				t.Fatal(err)
			}
			want := sim.Detect(local)
			for j := range want {
				want[j].Frame = keys[i].Frame
				want[j].TruthID = m.GlobalTruthID(sh, want[j].TruthID)
			}
			if !sameDets(en.Dets, want) {
				t.Fatalf("L1 entry for frame %d = %+v, a fresh detector says %+v", keys[i].Frame, en.Dets, want)
			}
			checked++
			if len(want) > 0 {
				withDets++
			}
		}
		if checked < 1000 || withDets < checked/4 {
			t.Fatalf("checked %d L1 entries, %d with detections: too few to exercise the reuse", checked, withDets)
		}
	})

	t.Run("track store", func(t *testing.T) {
		ds := trackScene(t)
		run, err := newTrackRun(ds, trackPred(), TrackOptions{Seed: 3}, cacheConfig{})
		if err != nil {
			t.Fatal(err)
		}
		spy := &storeSpy{trackRun: run, kept: make(map[int64][]track.Detection)}
		if err := runInline(spy, run.src, 16); err != nil {
			t.Fatal(err)
		}
		if len(run.rep.Results) == 0 {
			t.Fatal("the track query matched nothing")
		}
		sim, err := (&simBackend{d: ds}).detector("car")
		if err != nil {
			t.Fatal(err)
		}
		withDets := 0
		for f, dets := range spy.kept {
			if want := sim.Detect(f); !sameDets(dets, want) {
				t.Fatalf("stored detections of frame %d = %+v, a fresh detector says %+v", f, dets, want)
			}
			if len(dets) > 0 {
				withDets++
			}
		}
		if withDets < 100 {
			t.Fatalf("only %d stored frames carried detections: too few to exercise the reuse", withDets)
		}
	})
}

// TestL1RetainedHeapPerEntry: an L1 entry keeps alive at most the
// detections of the batch its frame was detected in, never a buffer the
// detect stack reuses or fills across batches, so the L1's entry cap also
// bounds its bytes. The worst case is an LRU whose survivors are scattered
// one to a batch (hits refreshing old frames here and there while the rest
// of their batches are evicted); the test keeps every sixteenth entry of a
// churned engine's L1 the way such survivors would be kept, drops
// everything else, and measures the heap those slices alone retain.
func TestL1RetainedHeapPerEntry(t *testing.T) {
	const framesEach, framesPerRound, stride = 4000, 8, 16
	shards := make([]*Dataset, 4)
	for i := range shards {
		shards[i] = elasticShard(t, framesEach, 601+uint64(i))
	}
	src, err := NewShardedSource("retained", shards...)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(EngineOptions{Workers: 2, FramesPerRound: framesPerRound, CacheEntries: 4000})
	if err != nil {
		t.Fatal(err)
	}
	// Twelve queries over four seeds: each seed's later runs hit and
	// refresh its earlier frames while the others' fills evict.
	for i := 0; i < 12; i++ {
		h, err := e.Submit(context.Background(), src, Query{Class: "car", Limit: 1 << 20}, Options{Seed: 70 + uint64(i%4), MaxFrames: 1500})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]cachestore.Key, 0, 4*framesEach)
	for f := int64(0); f < 4*framesEach; f++ {
		keys = append(keys, cachestore.Key{Content: src.qs.id, Class: "car", Frame: f})
	}
	entries, err := e.memo.GetBatch(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	var all, sparse [][]track.Detection
	allDets, sparseDets := 0, 0
	for _, en := range entries {
		if !en.Found || len(en.Dets) == 0 {
			continue
		}
		all = append(all, en.Dets)
		allDets += len(en.Dets)
		if len(all)%stride == 0 {
			sparse = append(sparse, en.Dets)
			sparseDets += len(en.Dets)
		}
	}
	if len(all) < 500 {
		t.Fatalf("only %d L1 entries carry detections: too few to measure", len(all))
	}
	e.Close()
	e, entries = nil, nil
	// drop releases kept's slices and returns the heap that freed.
	drop := func(kept [][]track.Detection) float64 {
		heap := func() uint64 {
			var ms runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc
		}
		with := heap()
		for i := range kept {
			kept[i] = nil
		}
		return float64(with) - float64(heap())
	}
	// all first: sparse still holds its slices, so the second drop
	// measures what the scattered survivors alone retain.
	rest := drop(all)
	perSparse := drop(sparse) / float64(len(sparse))
	perAll := (rest + perSparse*float64(len(sparse))) / float64(len(all))
	size := float64(unsafe.Sizeof(track.Detection{}))
	meanAll := size * float64(allDets) / float64(len(all))
	meanSparse := size * float64(sparseDets) / float64(len(sparse))
	t.Logf("retained per entry: %.0f B over all %d entries (their own detections %.0f B), %.0f B over every %dth (%.0f B)",
		perAll, len(all), meanAll, perSparse, stride, meanSparse)
	// Every entry kept: the slabs are shared, so the L1 retains about its
	// detections' own bytes.
	if perAll > 2*meanAll+64 {
		t.Errorf("the whole L1 retains %.0f B per entry, want at most %.0f (twice its detections)", perAll, 2*meanAll+64)
	}
	// Scattered survivors: each retains at most its batch's slab.
	if limit := framesPerRound * meanAll; perSparse > limit {
		t.Errorf("a scattered L1 entry retains %.0f B, want at most %.0f (one %d-frame batch of detections)", perSparse, limit, framesPerRound)
	}
}
