package exsample

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/internal/detect"
)

// shardDatasets builds n small datasets with distinct seeds, all carrying
// the class "car".
func shardDatasets(t *testing.T, n int, framesEach int64, opts ...DatasetOption) []*Dataset {
	t.Helper()
	out := make([]*Dataset, n)
	for i := range out {
		ds, err := Synthesize(SynthSpec{
			NumFrames:    framesEach,
			NumInstances: 40,
			Class:        "car",
			MeanDuration: 100,
			SkewFraction: 1.0 / 8,
			ChunkFrames:  framesEach / 8,
			Seed:         uint64(100 + i),
		}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ds
	}
	return out
}

func TestShardedSingleShardMatchesSearch(t *testing.T) {
	// The acceptance bar: a seeded query against a 1-shard ShardedSource
	// is byte-identical to Dataset.Search on the underlying dataset — the
	// remapping is the identity and the pipeline is shared.
	ds := smallDataset(t, WithPerfectDetector())
	ss, err := NewShardedSource("one", ds)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Class: "car", Limit: 25}
	for name, opts := range map[string]Options{
		"exsample": {Seed: 73},
		"batched":  {Seed: 73, BatchSize: 8},
		"random":   {Strategy: StrategyRandom, Seed: 73},
		"proxy":    {Strategy: StrategyProxy, Seed: 73},
	} {
		want, err := ds.Search(q, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := SearchSource(ss, q, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: 1-shard source diverged from Dataset.Search (frames %d vs %d, results %d vs %d, seconds %v vs %v)",
				name, got.FramesProcessed, want.FramesProcessed,
				len(got.Results), len(want.Results), got.TotalSeconds(), want.TotalSeconds())
		}
	}
}

func TestShardedSourceBasics(t *testing.T) {
	shards := shardDatasets(t, 3, 20_000)
	ss, err := NewShardedSource("fleet", shards...)
	if err != nil {
		t.Fatal(err)
	}
	if ss.NumShards() != 3 {
		t.Fatalf("NumShards = %d", ss.NumShards())
	}
	if ss.NumFrames() != 60_000 {
		t.Fatalf("NumFrames = %d", ss.NumFrames())
	}
	wantChunks := 0
	for _, d := range shards {
		wantChunks += d.NumChunks()
	}
	if ss.NumChunks() != wantChunks {
		t.Fatalf("NumChunks = %d, want %d", ss.NumChunks(), wantChunks)
	}
	n, err := ss.GroundTruthCount("car")
	if err != nil {
		t.Fatal(err)
	}
	if n != 120 {
		t.Fatalf("GroundTruthCount = %d, want 120 (40 per shard)", n)
	}
	if _, err := ss.GroundTruthCount("dragon"); err == nil {
		t.Fatal("unknown class accepted")
	}
	if got := ss.Classes(); len(got) != 1 || got[0] != "car" {
		t.Fatalf("Classes = %v", got)
	}
	if _, err := NewShardedSource("empty"); err == nil {
		t.Fatal("empty shard list accepted")
	}
}

func TestShardedDistinctCountingAcrossShards(t *testing.T) {
	// Two shards built from the SAME seed carry instances with identical
	// local truth ids; the global remap must keep them distinct, so an
	// exhaustive query reaches full recall over the doubled population.
	ds1, err := Synthesize(SynthSpec{
		NumFrames: 10_000, NumInstances: 12, Class: "car",
		MeanDuration: 80, ChunkFrames: 1000, Seed: 5,
	}, WithPerfectDetector())
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := Synthesize(SynthSpec{
		NumFrames: 10_000, NumInstances: 12, Class: "car",
		MeanDuration: 80, ChunkFrames: 1000, Seed: 5,
	}, WithPerfectDetector())
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewShardedSource("twins", ds1, ds2)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := ss.GroundTruthCount("car"); n != 24 {
		t.Fatalf("population = %d, want 24", n)
	}
	rep, err := SearchSource(ss, Query{Class: "car", RecallTarget: 1}, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recall < 1 {
		t.Fatalf("exhaustive sharded query reached recall %v over the doubled population (found %d)",
			rep.Recall, len(rep.Results))
	}
}

func TestShardedEngineMatchesShardedSearch(t *testing.T) {
	// Engine ≡ Search must hold over a 4-shard source too: scheduling and
	// shard-affinity grouping add no behavior.
	shards := shardDatasets(t, 4, 20_000, WithPerfectDetector())
	ss, err := NewShardedSource("fleet", shards...)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Class: "car", Limit: 30}
	opts := Options{Seed: 17}
	want, err := SearchSource(ss, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		e := newTestEngine(t, EngineOptions{Workers: workers, FramesPerRound: 1})
		h, err := e.Submit(context.Background(), ss, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: sharded engine query diverged from SearchSource (frames %d vs %d, results %d vs %d)",
				workers, got.FramesProcessed, want.FramesProcessed, len(got.Results), len(want.Results))
		}
	}
}

func TestShardedEngineDeterministicAcrossRuns(t *testing.T) {
	// Same seed, two independent engines under concurrent load: identical
	// reports.
	shards := shardDatasets(t, 4, 20_000, WithPerfectDetector())
	run := func() *Report {
		ss, err := NewShardedSource("fleet", shards...)
		if err != nil {
			t.Fatal(err)
		}
		e := newTestEngine(t, EngineOptions{Workers: 4, FramesPerRound: 4, CacheEntries: 1 << 14})
		var others []*QueryHandle
		for i := 0; i < 3; i++ {
			h, err := e.Submit(context.Background(), ss, Query{Class: "car", Limit: 15},
				Options{Seed: uint64(200 + i)})
			if err != nil {
				t.Fatal(err)
			}
			others = append(others, h)
		}
		h, err := e.Submit(context.Background(), ss, Query{Class: "car", Limit: 30}, Options{Seed: 55})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range others {
			if _, err := o.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		return rep
	}
	a, b := run(), run()
	// Cache hit/miss split depends on concurrent interleaving; everything
	// else — results, frames, curve — must be identical.
	a.CacheHits, a.CacheMisses = 0, 0
	b.CacheHits, b.CacheMisses = 0, 0
	if !reflect.DeepEqual(a.Results, b.Results) || a.FramesProcessed != b.FramesProcessed {
		t.Fatalf("sharded engine runs diverged: frames %d vs %d, results %d vs %d",
			a.FramesProcessed, b.FramesProcessed, len(a.Results), len(b.Results))
	}
}

func TestShardedEngineCancellation(t *testing.T) {
	shards := shardDatasets(t, 4, 20_000, WithPerfectDetector())
	ss, err := NewShardedSource("fleet", shards...)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, EngineOptions{Workers: 4, FramesPerRound: 2, CacheEntries: 1 << 12})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := e.Submit(ctx, ss, Query{Class: "car", Limit: 1 << 30}, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for range h.Events() {
		seen++
		if seen == 10 {
			cancel()
		}
	}
	rep, err := h.Wait()
	if err == nil {
		t.Fatal("cancelled sharded query returned nil error")
	}
	if rep.FramesProcessed < 10 || rep.FramesProcessed >= ss.NumFrames() {
		t.Fatalf("partial report has %d frames", rep.FramesProcessed)
	}
}

func TestShardAffinityDoesNotStarveSmallShards(t *testing.T) {
	// One shard is 16x smaller than the others. Affinity grouping only
	// reorders within a round, so the sampler must still reach the small
	// shard's chunks and the query must still find its objects.
	big := shardDatasets(t, 3, 32_000, WithPerfectDetector())
	tiny, err := Synthesize(SynthSpec{
		NumFrames:    2_000,
		NumInstances: 10,
		Class:        "car",
		MeanDuration: 60,
		ChunkFrames:  500,
		Seed:         77,
	}, WithPerfectDetector())
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewShardedSource("lopsided", big[0], tiny, big[1], big[2])
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, EngineOptions{Workers: 4, FramesPerRound: 8})
	// Two concurrent queries so rounds carry multi-query batches.
	h1, err := e.Submit(context.Background(), ss, Query{Class: "car", Limit: 60}, Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := e.Submit(context.Background(), ss, Query{Class: "car", Limit: 60}, Options{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h1.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Wait(); err != nil {
		t.Fatal(err)
	}
	stats := ss.ShardStats()
	for _, st := range stats {
		if st.DetectCalls == 0 {
			t.Errorf("shard %d (%s, %d frames) received no detector calls — starved",
				st.Shard, st.Name, st.NumFrames)
		}
	}
	var total int64
	for _, st := range stats {
		total += st.DetectCalls
	}
	// The tiny shard holds ~2% of frames; require it saw a nontrivial
	// share of traffic rather than a stray call.
	if frac := float64(stats[1].DetectCalls) / float64(total); frac < 0.005 {
		t.Errorf("tiny shard received %.3f%% of detector traffic", frac*100)
	}
}

func TestShardedFailureInjectionStillTerminates(t *testing.T) {
	// One shard's detector goes blank mid-query: queries keep terminating
	// on their budget.
	spec := SynthSpec{
		NumFrames: 10_000, NumInstances: 20, Class: "car",
		MeanDuration: 80, ChunkFrames: 1000, Seed: 31,
	}
	healthy, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Synthesize(spec, WithBackend(&degradedBackend{inner: healthy.Backend(), limit: 40}))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := Synthesize(SynthSpec{
		NumFrames: 10_000, NumInstances: 20, Class: "car",
		MeanDuration: 80, ChunkFrames: 1000, Seed: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewShardedSource("degraded", bad, ok)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, EngineOptions{Workers: 2, CacheEntries: 1 << 10})
	h, err := e.Submit(context.Background(), ss, Query{Class: "car", Limit: 1 << 30},
		Options{Seed: 7, MaxFrames: 500})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FramesProcessed != 500 {
		t.Fatalf("degraded query processed %d frames, want its 500-frame budget", rep.FramesProcessed)
	}
}

func TestShardLackingQueryClassDetectsNothing(t *testing.T) {
	// Shards with disjoint classes: a "car" query over a car shard and a
	// person shard must run to completion on both entry points, and the
	// person shard must be sampled and charged like any other — a shard
	// that lacks the query's class detects nothing rather than failing
	// the query.
	mk := func(class string, seed uint64) *Dataset {
		spec := shardSpec(8000, seed)
		spec.Class = class
		ds, err := Synthesize(spec)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	q := Query{Class: "car", Limit: 1 << 30}
	opts := Options{Seed: 17, MaxFrames: 400}
	personCalls := func(t *testing.T, ss *ShardedSource, rep *Report) {
		t.Helper()
		if rep.FramesProcessed != opts.MaxFrames {
			t.Fatalf("processed %d frames, want the %d-frame budget", rep.FramesProcessed, opts.MaxFrames)
		}
		if len(rep.Results) == 0 {
			t.Fatal("found no cars on the car shard")
		}
		if calls := ss.ShardStats()[1].DetectCalls; calls == 0 {
			t.Fatal("the person shard was never charged a frame")
		}
	}
	t.Run("search", func(t *testing.T) {
		ss, err := NewShardedSource("disjoint", mk("car", 41), mk("person", 42))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := SearchSource(ss, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		personCalls(t, ss, rep)
	})
	t.Run("engine", func(t *testing.T) {
		ss, err := NewShardedSource("disjoint", mk("car", 41), mk("person", 42))
		if err != nil {
			t.Fatal(err)
		}
		e := newTestEngine(t, EngineOptions{Workers: 2, FramesPerRound: 8})
		h, err := e.Submit(context.Background(), ss, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		personCalls(t, ss, rep)
	})
}

func TestShardedDetectorInterleavedBatch(t *testing.T) {
	// A batch interleaving shards 0, 1, 0 goes out as one inner call per
	// same-shard run, and comes back aligned with the input, every
	// detection carrying its global frame and truth id.
	const framesEach = 4000
	var twins, shards []*Dataset
	var counters []*cappedBackend
	for i := uint64(0); i < 2; i++ {
		twin := elasticShard(t, framesEach, 351+i, WithPerfectDetector())
		counter := &cappedBackend{inner: twin.Backend()}
		twins = append(twins, twin)
		counters = append(counters, counter)
		shards = append(shards, elasticShard(t, framesEach, 351+i, WithPerfectDetector(), WithBackend(counter)))
	}
	ss, err := NewShardedSource("interleaved", shards...)
	if err != nil {
		t.Fatal(err)
	}
	m := ss.topo.Load().snap.Map
	if m.GlobalTruthID(1, 0) == 0 {
		t.Fatal("shard 1's truth ids are not offset: the remap check would be vacuous")
	}
	lo, hi := framesWithCars(t, twins[0], 2), framesWithCars(t, twins[1], 1)
	global := []int64{lo[0], framesEach + hi[0], lo[1]}
	owner := []int{0, 1, 0}
	outs, err := ss.qs.newDetector("car").DetectBatch(context.Background(), global, nil, new(detect.Scratch))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(global) {
		t.Fatalf("got %d outputs for %d frames", len(outs), len(global))
	}
	if c0, c1 := counters[0].calls.Load(), counters[1].calls.Load(); c0 != 2 || c1 != 1 {
		t.Fatalf("inner calls = (%d, %d), want one per run: (2, 1)", c0, c1)
	}
	for i, fo := range outs {
		sh := owner[i]
		want, err := twins[sh].Backend().DetectBatch(context.Background(), "car", []int64{global[i] - m.Offset(sh)})
		if err != nil {
			t.Fatal(err)
		}
		if len(fo.Dets) == 0 || len(fo.Dets) != len(want[0]) {
			t.Fatalf("frame %d: %d detections, shard %d's own detector sees %d", global[i], len(fo.Dets), sh, len(want[0]))
		}
		for j, d := range fo.Dets {
			w := want[0][j]
			if d.Frame != global[i] || d.TruthID != m.GlobalTruthID(sh, w.TruthID) || d.Box != w.Box {
				t.Fatalf("frame %d detection %d = %+v, want %+v remapped to global", global[i], j, d, w)
			}
		}
	}
}

func TestShardedDetectorAllocs(t *testing.T) {
	// A single-shard batch through a ShardedSource's detector, into a warm
	// output buffer and scratch, allocates nothing of its own but the one
	// slab its remapped detections go into, and a batch without detections
	// not even that: the local frames come from the scratch's frame buffer
	// and the outputs are appended in place.
	const framesEach = 4000
	local := []int64{10, 20, 30, 40}
	global := make([]int64, len(local))
	empty := &stubBackend{out: make([][]backend.Detection, len(local))}
	full := &stubBackend{out: make([][]backend.Detection, len(local))}
	for i, f := range local {
		global[i] = framesEach + f
		if i%2 == 0 {
			full.out[i] = []backend.Detection{{Frame: f, Class: "car", Score: 0.5}, {Frame: f, Class: "car", Score: 0.7}}
		}
	}
	// Count every allocation of the whole loop: AllocsPerRun rounds its
	// per-run average down, so it would read 0.99 allocations per batch as 0.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const batches = 1000
	measure := func(b backend.Backend) float64 {
		ss, err := NewShardedSource("canned",
			elasticShard(t, framesEach, 361, WithBackend(b)), elasticShard(t, framesEach, 362, WithBackend(b)))
		if err != nil {
			t.Fatal(err)
		}
		det := ss.qs.newDetector("car")
		ctx := context.Background()
		var scr detect.Scratch
		var dst []detect.FrameOutput
		run := func() {
			if dst, err = det.DetectBatch(ctx, global, dst[:0], &scr); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the output buffer and the scratch
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < batches; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / batches
	}
	e, f := measure(empty), measure(full)
	t.Logf("allocs per batch: %.3f empty, %.3f full", e, f)
	if e > 0.01 {
		t.Fatalf("warm single-shard batch without detections allocates %.3f objects, want 0", e)
	}
	if f > 1.01 {
		t.Fatalf("warm single-shard batch with 2 detection-carrying frames allocates %.3f objects, want 1 (the remap slab)", f)
	}
}
