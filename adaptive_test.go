package exsample

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/cachestore"
	"github.com/exsample/exsample/internal/sizer"
)

// TestAdaptiveRoundsOffByteIdentical: with AdaptiveRounds explicitly off
// the engine stays byte-identical to Dataset.Search with BatchSize =
// FramesPerRound — the §III-F determinism contract the adaptive option
// must not perturb when disabled. Quota counters stay zero and the static
// path reports the static quota.
func TestAdaptiveRoundsOffByteIdentical(t *testing.T) {
	ds := smallDataset(t, WithPerfectDetector())
	q := Query{Class: "car", Limit: 25}

	want, err := ds.Search(q, Options{BatchSize: 8, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, EngineOptions{Workers: 4, FramesPerRound: 8, AdaptiveRounds: false})
	h, err := e.Submit(context.Background(), ds, q, Options{Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("static engine diverged from batched Search (frames %d vs %d)",
			got.FramesProcessed, want.FramesProcessed)
	}
	st := e.Stats()
	if st.QuotaGrows != 0 || st.QuotaShrinks != 0 || st.PeakQuota != 0 || st.CapacityLosses != 0 {
		t.Fatalf("static engine reported adaptive activity: %+v", st)
	}
	if got := h.RoundQuota(); got != 8 {
		t.Fatalf("static RoundQuota = %d, want FramesPerRound 8", got)
	}
}

// TestAdaptiveRoundsGrowsQuotaOnFlatBackend: the in-process simulated
// detector has flat (near-zero) per-frame latency, so the AIMD controller
// must grow the round quota past FramesPerRound, the engine must report
// the growth, and the query must still complete with valid results.
func TestAdaptiveRoundsGrowsQuotaOnFlatBackend(t *testing.T) {
	ds := smallDataset(t, WithPerfectDetector())
	e := newTestEngine(t, EngineOptions{Workers: 2, FramesPerRound: 2, AdaptiveRounds: true})
	h, err := e.Submit(context.Background(), ds, Query{Class: "car", Limit: 40}, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) == 0 {
		t.Fatal("adaptive query found nothing")
	}
	st := e.Stats()
	if st.QuotaGrows == 0 {
		t.Fatalf("flat backend never grew the quota: %+v", st)
	}
	if st.PeakQuota <= 2 {
		t.Fatalf("PeakQuota = %d, want > FramesPerRound 2", st.PeakQuota)
	}
	if got := h.RoundQuota(); got < 2 {
		t.Fatalf("adaptive RoundQuota = %d, below the FramesPerRound floor", got)
	}
	// Fewer, larger batches: the realized frames-per-batch must beat the
	// static quota.
	if st.Batches > 0 && float64(st.DetectCalls)/float64(st.Batches) <= 2 {
		t.Fatalf("realized batch size %.1f did not exceed the static quota (detects %d, batches %d)",
			float64(st.DetectCalls)/float64(st.Batches), st.DetectCalls, st.Batches)
	}
}

// TestAdaptiveQuotaRespectsBackendMaxBatch: the quota ceiling is the
// backend's MaxBatch hint, however flat the latency stays.
func TestAdaptiveQuotaRespectsBackendMaxBatch(t *testing.T) {
	inner := smallDataset(t, WithPerfectDetector())
	capped := &cappedBackend{inner: inner.Backend(), maxBatch: 5}
	ds, err := Synthesize(SynthSpec{
		NumFrames:    200_000,
		NumInstances: 300,
		Class:        "car",
		MeanDuration: 150,
		SkewFraction: 1.0 / 16,
		ChunkFrames:  4000,
		Seed:         21,
	}, WithPerfectDetector(), WithBackend(capped))
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, EngineOptions{Workers: 2, FramesPerRound: 2, AdaptiveRounds: true})
	h, err := e.Submit(context.Background(), ds, Query{Class: "car", Limit: 30}, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.PeakQuota > 5 {
		t.Fatalf("PeakQuota %d exceeds the backend's MaxBatch 5", st.PeakQuota)
	}
}

// cappedBackend wraps a backend with a MaxBatch hint (and optionally a
// breaker-open counter the sizer polls).
type cappedBackend struct {
	inner    backend.Backend
	maxBatch int
	opens    atomic.Int64
	calls    atomic.Int64
	openAt   int64 // bump opens once after this many calls (0 = never)
}

func (b *cappedBackend) DetectBatch(ctx context.Context, class string, frames []int64) ([][]backend.Detection, error) {
	if n := b.calls.Add(1); b.openAt > 0 && n == b.openAt {
		b.opens.Add(1)
	}
	return b.inner.DetectBatch(ctx, class, frames)
}

func (b *cappedBackend) Hints() backend.Hints {
	h := b.inner.Hints()
	h.MaxBatch = b.maxBatch
	return h
}

func (b *cappedBackend) BreakerOpens() int64 { return b.opens.Load() }

// TestAdaptiveCapacityLossShrinksQuota: a breaker-open event reported by
// the source's backend (the router in production; a stub here) must
// register as a capacity loss and shrink the quota multiplicatively.
func TestAdaptiveCapacityLossShrinksQuota(t *testing.T) {
	inner := smallDataset(t, WithPerfectDetector())
	flaky := &cappedBackend{inner: inner.Backend(), maxBatch: 64, openAt: 4}
	ds, err := Synthesize(SynthSpec{
		NumFrames:    200_000,
		NumInstances: 300,
		Class:        "car",
		MeanDuration: 150,
		SkewFraction: 1.0 / 16,
		ChunkFrames:  4000,
		Seed:         21,
	}, WithPerfectDetector(), WithBackend(flaky))
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, EngineOptions{Workers: 2, FramesPerRound: 2, AdaptiveRounds: true})
	h, err := e.Submit(context.Background(), ds, Query{Class: "car", Limit: 40}, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.CapacityLosses == 0 {
		t.Fatalf("breaker-open event never registered as a capacity loss: %+v", st)
	}
}

// TestAdaptiveRoundsSharded: a sharded source runs per-shard groups; the
// fleet keys one controller per shard-affinity group and the min across
// them gates the quota. The query must complete and grow past the floor.
func TestAdaptiveRoundsSharded(t *testing.T) {
	shards := make([]*Dataset, 2)
	for i := range shards {
		ds, err := Synthesize(SynthSpec{
			NumFrames:    50_000,
			NumInstances: 100,
			Class:        "car",
			MeanDuration: 120,
			SkewFraction: 1.0 / 8,
			ChunkFrames:  2000,
			Seed:         uint64(31 + i),
		}, WithPerfectDetector())
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = ds
	}
	src, err := NewShardedSource("adaptive", shards...)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, EngineOptions{Workers: 4, FramesPerRound: 2, AdaptiveRounds: true})
	h, err := e.Submit(context.Background(), src, Query{Class: "car", Limit: 30}, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) == 0 {
		t.Fatal("sharded adaptive query found nothing")
	}
	if st := e.Stats(); st.QuotaGrows == 0 {
		t.Fatalf("sharded adaptive query never grew its quota: %+v", st)
	}
}

// TestAdaptiveObserveSkipsMemoHits: a group resolved from a cache — the
// memo cache or the shared tier, under a distinct-object or a track query —
// reports near-zero wall latency for frames the backend never served;
// those observations must be charged to the backend-served (miss) count
// only — and skipped outright for all-hit groups — or the controller's
// baseline collapses and genuine backend batches read as queueing. Every
// row drives the one sizedQuery through its real DetectBatch.
func TestAdaptiveObserveSkipsMemoHits(t *testing.T) {
	ds := smallDataset(t, WithPerfectDetector())
	caches := map[string]func() cacheConfig{
		"memo": func() cacheConfig {
			return cacheConfig{tier: cachestore.NewTiered(cachestore.NewLocal(1<<12), nil)}
		},
		"tier": func() cacheConfig {
			return cacheConfig{tier: cachestore.NewTiered(cachestore.NewLocal(1<<12), cachestore.NewLocal(1<<12))}
		},
	}
	runs := map[string]func(cacheConfig) (engineRun, error){
		"distinct": func(cc cacheConfig) (engineRun, error) {
			return newQueryRun(ds, Query{Class: "car", Limit: 10}, Options{Seed: 3}, cc, false)
		},
		"track": func(cc cacheConfig) (engineRun, error) {
			return newTrackRun(ds, trackPred(), TrackOptions{Seed: 3}, cc)
		},
	}
	for kind, newRun := range runs {
		for mode, newCache := range caches {
			t.Run(kind+"-"+mode, func(t *testing.T) {
				run, err := newRun(newCache())
				if err != nil {
					t.Fatal(err)
				}
				var counters sizer.Counters
				fleet, err := sizer.NewFleet(sizer.Config{Min: 2, Max: 32}, &counters)
				if err != nil {
					t.Fatal(err)
				}
				sq := newSizedQuery(&engineQuery{run: run, src: ds.querySource(), ctx: context.Background()}, fleet)
				key := sq.AffinityKey(0)
				batch := func(base int64) []int64 {
					return []int64{base, base + 1, base + 2, base + 3}
				}
				// Backend-served groups (every frame new, flat latency) grow
				// the quota normally.
				for i := int64(0); i < 10; i++ {
					frames := batch(1000 * i)
					if _, err := sq.DetectBatch(frames); err != nil {
						t.Fatal(err)
					}
					sq.ObserveBatch(key, len(frames), 0.001*float64(len(frames)))
				}
				grown := fleet.Quota()
				if grown <= 2 {
					t.Fatalf("backend-served groups never grew the quota: %d", grown)
				}
				// All-hit group: wall latency is irrelevant, no observation
				// reaches the controller however extreme it looks per frame.
				frames := batch(0)
				if _, err := sq.DetectBatch(frames); err != nil {
					t.Fatal(err)
				}
				sq.ObserveBatch(key, len(frames), 5.0)
				if got := fleet.Quota(); got != grown {
					t.Fatalf("all-hit group moved the quota from %d to %d", grown, got)
				}
				if counters.Shrinks.Load() != 0 {
					t.Fatalf("all-hit group counted %d shrinks", counters.Shrinks.Load())
				}
				// A group whose ObserveBatch has no recorded backend count
				// (failed call, stale key) is ignored rather than observed
				// at full size.
				sq.ObserveBatch(key+99, 8, 9.0)
				if got := fleet.Quota(); got != grown {
					t.Fatalf("unrecorded group moved the quota from %d to %d", grown, got)
				}
			})
		}
	}
}

// TestAddShardDoesNotFirePhantomCapacityLoss: attaching a shard whose
// router already recorded breaker opens in a previous life must not jump
// the source's capacity signal — the edge detector would read it as a
// fresh breaker opening and halve every adaptive query's quota on an
// event that ADDED capacity.
func TestAddShardDoesNotFirePhantomCapacityLoss(t *testing.T) {
	mk := func(seed uint64, be backend.Backend) *Dataset {
		opts := []DatasetOption{WithPerfectDetector()}
		if be != nil {
			opts = append(opts, WithBackend(be))
		}
		ds, err := Synthesize(SynthSpec{
			NumFrames:    20_000,
			NumInstances: 40,
			Class:        "car",
			MeanDuration: 120,
			ChunkFrames:  2000,
			Seed:         seed,
		}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	src, err := NewShardedSource("phantom", mk(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	qs := src.querySource()
	before := qs.breakerOpens()
	// The new shard's backend carries 3 breaker opens from a previous
	// attachment.
	scarred := &cappedBackend{inner: mk(2, nil).Backend(), maxBatch: 16}
	scarred.opens.Add(3)
	if _, err := src.AddShard(mk(2, scarred)); err != nil {
		t.Fatal(err)
	}
	if after := qs.breakerOpens(); after != before {
		t.Fatalf("AddShard jumped the capacity signal from %d to %d", before, after)
	}
	// A genuinely fresh open after attach still surfaces.
	scarred.opens.Add(1)
	if after := qs.breakerOpens(); after != before+1 {
		t.Fatalf("fresh breaker open not visible: %d, want %d", after, before+1)
	}
}
