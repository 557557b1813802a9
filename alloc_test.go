package exsample

import (
	"context"
	"runtime"
	"testing"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/cachestore"
	"github.com/exsample/exsample/internal/core"
	"github.com/exsample/exsample/internal/detect"
	"github.com/exsample/exsample/internal/geom"
	"github.com/exsample/exsample/internal/track"
)

// TestDetectBatchMemoHitAllocFree: once every frame of a batch is resident
// in the cross-query memo cache (the L1 of the run's tier), detectBatchInto
// through a warm scratch resolves the whole batch locally — the tier's
// FetchBatch included — without a single allocation: the steady state of
// overlapping engine queries sharing a cache, and of Session.Step's
// one-frame batches.
func TestDetectBatchMemoHitAllocFree(t *testing.T) {
	ds := smallDataset(t, WithPerfectDetector())
	run, err := newQueryRun(ds, Query{Class: "car", Limit: 10}, Options{Seed: 3}, cacheConfig{tier: cachestore.NewTiered(cachestore.NewLocal(1<<12), nil)}, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, frames := range [][]int64{{10, 2000, 40_000, 90_000, 150_000, 199_999}, {12345}} {
		var scr detectScratch
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
			t.Fatalf("all-hit %d-frame detectBatch allocates %.2f objects/batch, want 0", len(frames), allocs)
		}
	}
}

// stubRun is an engineRun that draws frames forever and detects and applies
// nothing, without allocating, so the allocations measured around a round
// are the adapter's own.
type stubRun struct{ frame int64 }

func (r *stubRun) next() (core.Pick, bool) {
	r.frame++
	return core.Pick{Frame: r.frame, Chunk: -1}, true
}

func (r *stubRun) detectBatchInto(_ context.Context, frames []int64, scr *detectScratch) ([]frameResult, error) {
	return scr.results(len(frames)), nil
}

func (r *stubRun) step(core.Pick, frameResult) error { return nil }
func (r *stubRun) done() bool                        { return false }
func (r *stubRun) failure() error                    { return nil }
func (r *stubRun) marginalValue() float64            { return 0 }

// TestEngineQueryRoundAllocFree: the query adapter's side of a steady-state
// round — Propose, one DetectBatch, an Apply per proposed frame — allocates
// nothing once its buffers are warm. Apply consumes the proposed picks by
// index, so their buffer keeps its capacity from round to round; the
// scheduler's own guards run stub queries and cannot see this.
func TestEngineQueryRoundAllocFree(t *testing.T) {
	eq := &engineQuery{run: &stubRun{}, ctx: context.Background()}
	round := func() {
		frames := eq.Propose(8)
		dets, err := eq.DetectBatch(frames)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range frames {
			if _, err := eq.Apply(f, dets[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	round() // size every buffer
	if allocs := testing.AllocsPerRun(100, round); allocs > 0 {
		t.Fatalf("engineQuery round allocates %.2f objects, want 0", allocs)
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
// a conforming backend's detection slices to the pipeline as they are and
// appends its outputs to the caller's buffer, so a batch into a warm buffer
// allocates nothing, whether its frames carry no detections or eight each.
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
		var scr detect.Scratch
		dst := make([]detect.FrameOutput, 0, len(frames))
		return testing.AllocsPerRun(200, func() {
			if _, err := bd.DetectBatch(ctx, frames, dst[:0], &scr); err != nil {
				t.Fatal(err)
			}
		})
	}
	if e, f := measure(empty), measure(full); e != 0 || f != 0 {
		t.Fatalf("adapter allocates %.2f objects/batch with no detections, %.2f with 8 per frame; want 0 into a warm buffer", e, f)
	}
}

// TestStepResultsAliasReport: StepInfo.New and QueryEvent.New are windows
// of the report's Results rather than copies. Every window kept across the
// run — through many reallocations of Results — must still read exactly
// the results it announced, their concatenation must be Report.Results
// element for element with contiguous object ids, and appending to a
// window must never reach the report.
func TestStepResultsAliasReport(t *testing.T) {
	ds := smallDataset(t, WithPerfectDetector())
	q := Query{Class: "car", Limit: 200}
	opts := Options{Seed: 17}
	check := func(t *testing.T, windows [][]Result, results []Result) {
		t.Helper()
		if len(results) < 100 {
			t.Fatalf("only %d results; the check needs Results to reallocate many times", len(results))
		}
		want := append([]Result(nil), results...)
		for _, w := range windows {
			_ = append(w, Result{ObjectID: -1, Class: "clobber"})
		}
		var got []Result
		for _, w := range windows {
			got = append(got, w...)
		}
		if len(got) != len(want) {
			t.Fatalf("windows hold %d results, report %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] || results[i] != want[i] {
				t.Fatalf("result %d: window %+v, report %+v (before appends %+v)", i, got[i], results[i], want[i])
			}
			if want[i].ObjectID != i {
				t.Fatalf("result %d has ObjectID %d", i, want[i].ObjectID)
			}
		}
	}

	t.Run("session", func(t *testing.T) {
		sess, err := NewSession(ds, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		var windows [][]Result
		for !sess.Done() {
			info, ok, err := sess.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if len(info.New) > 0 {
				windows = append(windows, info.New)
			}
		}
		check(t, windows, sess.Results())
	})

	t.Run("engine", func(t *testing.T) {
		e := newTestEngine(t, EngineOptions{Workers: 2, FramesPerRound: 8, EventBuffer: 1 << 16})
		h, err := e.Submit(context.Background(), ds, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if d := h.Dropped(); d != 0 {
			t.Fatalf("%d events dropped", d)
		}
		var windows [][]Result
		for ev := range h.Events() {
			if len(ev.New) > 0 {
				windows = append(windows, ev.New)
			}
		}
		check(t, windows, rep.Results)
	})
}

// TestShardedSessionStepAllocs: a seeded 4-shard Session steps one frame at
// a time through the whole detect stack — the sharded detector, each
// shard's backend adapter and its simulated detector — and the sharded
// detector and the adapter append into the session's one detect scratch.
// Counted from fresh sessions, warm-up included, the way the benchmark's
// session.allocs_per_frame is. When every layer allocated its own output
// this read 7.09; what remains is the simulated backend's public
// DetectBatch (its outer slice and one exact slice per frame with
// detections), the remap slab, the sampler's chunk opens, the
// discriminator's new objects and the report's growth.
func TestShardedSessionStepAllocs(t *testing.T) {
	shards := make([]*Dataset, 4)
	for i := range shards {
		shards[i] = elasticShard(t, 4000, 401+uint64(i))
	}
	src, err := NewShardedSource("session-guard", shards...)
	if err != nil {
		t.Fatal(err)
	}
	// Count every allocation of the whole sequence: AllocsPerRun rounds its
	// per-run average down to an integer.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const sessions, steps = 16, 64
	var mallocs uint64
	found := 0
	for i := 0; i < sessions; i++ {
		sess, err := NewSession(src, Query{Class: "car"}, Options{Seed: 900 + uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for n := 0; n < steps; n++ {
			if _, ok, err := sess.Step(); err != nil || !ok {
				t.Fatalf("session %d step %d: ok=%v err=%v", i, n, ok, err)
			}
		}
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		found += len(sess.Results())
	}
	perFrame := float64(mallocs) / (sessions * steps)
	t.Logf("%.2f allocs/frame over %d sessions of %d steps, %d results", perFrame, sessions, steps, found)
	if found == 0 {
		t.Fatal("no session found anything: the guard would not exercise the detection path")
	}
	if perFrame > 4.5 {
		t.Fatalf("stepping a 4-shard session allocates %.2f objects/frame, want <= 4.5", perFrame)
	}
}

// TestTrackStepAllocFree: once the refine window has grown, a track run's
// next and step on a refine frame that completes no interval allocate
// nothing: the frame's detections go to the end of the window, the plan
// flips a bit and counts. Coarse hits at frames 10000 and 30000 on a
// 1000-frame stride make the intervals [9000, 11000] and [29000, 31000];
// the first one grows the window and is assembled, and the measured steps
// fall inside the second.
func TestTrackStepAllocFree(t *testing.T) {
	r, err := newTrackRun(trackScene(t), trackPred(), TrackOptions{Stride: 1000}, cacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hit := []track.Detection{{Class: "car", Box: geom.Rect(100, 100, 20, 20)}}
	step := func() core.Pick {
		p, ok := r.next()
		if !ok {
			t.Fatal("the track run stopped issuing frames")
		}
		var fr frameResult
		if p.Frame == 10000 || p.Frame == 30000 {
			fr.dets = hit
		}
		if err := r.step(p, fr); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for p := step(); p.Chunk >= 0 || p.Frame < 29000; p = step() {
	}
	if r.rep.Intervals != 2 || len(r.window) != 1 || cap(r.window) < 1000 {
		t.Fatalf("%d intervals, window len %d cap %d: the first interval did not grow and release the window", r.rep.Intervals, len(r.window), cap(r.window))
	}
	allocs := testing.AllocsPerRun(500, func() {
		if p := step(); p.Chunk >= 0 || p.Frame > 31000 {
			t.Fatalf("frame %d (chunk %d) is not a refine frame of the second interval", p.Frame, p.Chunk)
		}
	})
	if allocs != 0 {
		t.Fatalf("a refine step allocates %v, want 0", allocs)
	}
}
