package exsample

import (
	"context"
	"testing"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/cachestore"
	"github.com/exsample/exsample/internal/cache"
)

// TestDetectBatchMemoHitAllocFree: once every frame of a batch is resident
// in the cross-query memo cache (the L1 of the run's tier), detectBatchInto
// through a warm scratch resolves the whole batch locally — the tier's
// FetchBatch included — without a single allocation: the steady state of
// overlapping engine queries sharing a cache.
func TestDetectBatchMemoHitAllocFree(t *testing.T) {
	ds := smallDataset(t, WithPerfectDetector())
	memo := cache.New(1 << 12)
	run, err := newQueryRun(ds, Query{Class: "car", Limit: 10}, Options{Seed: 3}, cacheConfig{tier: cachestore.NewTiered(cachestore.WrapCache(memo), nil)}, false)
	if err != nil {
		t.Fatal(err)
	}
	frames := []int64{10, 2000, 40_000, 90_000, 150_000, 199_999}
	var scr detectScratch
	ctx := context.Background()
	// First pass misses and fills the cache (and sizes the scratch).
	if _, err := run.detectBatchInto(ctx, frames, &scr); err != nil {
		t.Fatal(err)
	}
	res, err := run.detectBatchInto(ctx, frames, &scr)
	if err != nil {
		t.Fatal(err)
	}
	for i, fr := range res {
		if !fr.cached {
			t.Fatalf("frame %d not cached on the second pass", frames[i])
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := run.detectBatchInto(ctx, frames, &scr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("all-hit detectBatch allocates %.2f objects/batch, want 0", allocs)
	}
}

// TestDetectOneScratchReuse: the sequential step loop's detectOne path
// reuses the per-run scratch, so repeated single-frame batches on the
// memo-hit path are allocation-free too.
func TestDetectOneScratchReuse(t *testing.T) {
	ds := smallDataset(t, WithPerfectDetector())
	memo := cache.New(1 << 12)
	run, err := newQueryRun(ds, Query{Class: "car", Limit: 10}, Options{Seed: 3}, cacheConfig{tier: cachestore.NewTiered(cachestore.WrapCache(memo), nil)}, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := run.detectOne(ctx, 12345); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := run.detectOne(ctx, 12345); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("memo-hit detectOne allocates %.2f objects/call, want 0", allocs)
	}
}

// stubBackend answers every frame with the same preallocated slices and
// allocates nothing itself.
type stubBackend struct{ out [][]backend.Detection }

func (b *stubBackend) DetectBatch(_ context.Context, _ string, frames []int64) ([][]backend.Detection, error) {
	return b.out[:len(frames)], nil
}

func (b *stubBackend) Hints() backend.Hints { return backend.Hints{CostSeconds: 0.01} }

// TestBackendAdapterAllocsIndependentOfDetections: the backend adapter hands
// a conforming backend's detection slices to the pipeline as they are, so a
// batch costs the same allocations whether its frames carry no detections or
// eight each.
func TestBackendAdapterAllocsIndependentOfDetections(t *testing.T) {
	frames := []int64{10, 20, 30, 40}
	empty := &stubBackend{out: make([][]backend.Detection, len(frames))}
	full := &stubBackend{out: make([][]backend.Detection, len(frames))}
	for i, f := range frames {
		for k := 0; k < 8; k++ {
			full.out[i] = append(full.out[i], backend.Detection{Frame: f, Class: "car", Score: 0.5, TruthID: k})
		}
	}
	ctx := context.Background()
	measure := func(b backend.Backend) float64 {
		bd := newBackendDetector(b, "car")
		return testing.AllocsPerRun(200, func() {
			if _, err := bd.DetectBatch(ctx, frames); err != nil {
				t.Fatal(err)
			}
		})
	}
	if e, f := measure(empty), measure(full); e != f {
		t.Fatalf("adapter allocates %.2f objects/batch with no detections, %.2f with 8 per frame", e, f)
	}
}
