package exsample

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"github.com/exsample/exsample/backend"
)

// sharedSliceBackend answers every call for a frame with the same inner
// slice — the shape of a replaying or caching backend. Each slice is
// recorded next to a private copy taken before anyone else saw it.
type sharedSliceBackend struct {
	inner backend.Backend

	mu     sync.Mutex
	shared map[int64][]backend.Detection
	golden map[int64][]backend.Detection
}

func (b *sharedSliceBackend) DetectBatch(ctx context.Context, class string, frames []int64) ([][]backend.Detection, error) {
	out := make([][]backend.Detection, len(frames))
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, f := range frames {
		dets, ok := b.shared[f]
		if !ok {
			res, err := b.inner.DetectBatch(ctx, class, []int64{f})
			if err != nil {
				return nil, err
			}
			dets = res[0]
			b.shared[f] = dets
			b.golden[f] = append([]backend.Detection(nil), dets...)
		}
		out[i] = dets
	}
	return out, nil
}

func (b *sharedSliceBackend) Hints() backend.Hints { return b.inner.Hints() }

// TestSharedDetectionSlicesAreNeverWritten: detection slices are shared, not
// copied, between the backend, the memo cache and every query that reads
// them, so nothing may write through one. Two concurrent cached engine
// queries over a backend that hands out the same slices on every call must
// be race-clean, match an uncached Search, and leave the backend's slices
// exactly as they were.
func TestSharedDetectionSlicesAreNeverWritten(t *testing.T) {
	be := &sharedSliceBackend{
		inner:  truthTwin(t).Backend(),
		shared: make(map[int64][]backend.Detection),
		golden: make(map[int64][]backend.Detection),
	}
	ds := smallDataset(t, WithBackend(be))
	q := Query{Class: "car", Limit: 25}
	opts := Options{Seed: 73}

	want, err := ds.Search(q, Options{BatchSize: 8, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, EngineOptions{Workers: 4, FramesPerRound: 8, CacheEntries: 1 << 12})
	var handles [2]*QueryHandle
	for i := range handles {
		if handles[i], err = e.Submit(context.Background(), ds, q, opts); err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range handles {
		got, err := h.Wait()
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !reflect.DeepEqual(got.Results, want.Results) || got.FramesProcessed != want.FramesProcessed {
			t.Fatalf("query %d diverged from the uncached Search: frames=%d results=%d, want frames=%d results=%d",
				i, got.FramesProcessed, len(got.Results), want.FramesProcessed, len(want.Results))
		}
	}
	be.mu.Lock()
	defer be.mu.Unlock()
	if !reflect.DeepEqual(be.shared, be.golden) {
		t.Fatal("a detection slice the backend shares was written through")
	}
}

// wrongFrameBackend echoes every detection under a frame nobody asked for.
type wrongFrameBackend struct{ inner backend.Backend }

func (b wrongFrameBackend) DetectBatch(ctx context.Context, class string, frames []int64) ([][]backend.Detection, error) {
	out, err := b.inner.DetectBatch(ctx, class, frames)
	for _, dets := range out {
		for i := range dets {
			dets[i].Frame += 1_000_000
		}
	}
	return out, err
}

func (b wrongFrameBackend) Hints() backend.Hints { return b.inner.Hints() }

// TestConfusedBackendCannotMisrouteDetections: results are aligned with the
// request by position, so a backend that echoes the wrong Frame still yields
// the report of one that echoes the right one — every Result.Frame is the
// frame that was asked about.
func TestConfusedBackendCannotMisrouteDetections(t *testing.T) {
	q := Query{Class: "car", Limit: 20}
	opts := Options{Seed: 99}
	want, err := smallDataset(t).Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	confused := smallDataset(t, WithBackend(wrongFrameBackend{truthTwin(t).Backend()}))
	got, err := confused.Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) == 0 || !reflect.DeepEqual(want, got) {
		t.Fatalf("wrong echoed frames leaked into the report:\nwant %+v\ngot  %+v", want.Results, got.Results)
	}
}
