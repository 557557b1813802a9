package exsample

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/exsample/exsample/internal/core"
	"github.com/exsample/exsample/internal/track"
	"github.com/exsample/exsample/internal/trackquery"
)

// trackScene builds a sparse moving-object scene: 8 cars over 40k frames,
// each travelling 300 px rightward over its lifetime, so speed and
// direction clauses have signal and a dense scan is ~8x the accelerated
// cost.
func trackScene(t *testing.T, opts ...DatasetOption) *Dataset {
	t.Helper()
	ds, err := Synthesize(SynthSpec{
		NumFrames:    40_000,
		NumInstances: 8,
		Class:        "car",
		MeanDuration: 300,
		ChunkFrames:  1000,
		Seed:         7,
		TravelX:      300,
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// trackPred is the baseline predicate most tests run: cars visible for at
// least 50 frames (deriving a coarse stride of 25).
func trackPred() TrackPredicate {
	return TrackPredicate{Class: "car", MinDuration: 50}
}

// normTracks strips emission numbering and orders results by position so
// two runs with different interval groupings can be compared as sets.
func normTracks(rs []TrackResult) []TrackResult {
	out := append([]TrackResult(nil), rs...)
	for i := range out {
		out[i].TrackID = 0
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		return out[i].StartBox.Y1 < out[j].StartBox.Y1
	})
	return out
}

func TestTrackSearchFindsTracks(t *testing.T) {
	ds := trackScene(t, WithPerfectDetector())
	rep, err := ds.TrackSearch(trackPred(), TrackOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) == 0 {
		t.Fatal("no tracks matched")
	}
	if rep.CoarseFrames+rep.RefineFrames != rep.FramesProcessed {
		t.Errorf("phase split %d+%d != total %d", rep.CoarseFrames, rep.RefineFrames, rep.FramesProcessed)
	}
	if rep.Intervals == 0 || rep.IntervalFrames == 0 {
		t.Errorf("no candidate intervals recorded: %d intervals, %d frames", rep.Intervals, rep.IntervalFrames)
	}
	if rep.DenseFrames != 40_000 {
		t.Errorf("DenseFrames = %d, want 40000", rep.DenseFrames)
	}
	if rep.Speedup() < 3 {
		t.Errorf("speedup %.2f < 3 (processed %d of %d dense frames)", rep.Speedup(), rep.FramesProcessed, rep.DenseFrames)
	}
	for i, r := range rep.Results {
		if r.TrackID != i {
			t.Errorf("result %d has TrackID %d", i, r.TrackID)
		}
		if r.Class != "car" {
			t.Errorf("result %d class %q", i, r.Class)
		}
		if span := r.End - r.Start + 1; span < 50 {
			t.Errorf("result %d span %d below MinDuration", i, span)
		}
		if r.Hits < 2 {
			t.Errorf("result %d has %d hits", i, r.Hits)
		}
		if r.AvgSpeed <= 0 {
			t.Errorf("result %d has non-positive speed %v", i, r.AvgSpeed)
		}
	}
}

func TestTrackSearchDeterministicRepeat(t *testing.T) {
	// Same source, predicate and options: the full report — results,
	// frame counts and charged seconds — must be byte-identical run over
	// run.
	ds := trackScene(t, WithPerfectDetector())
	want, err := ds.TrackSearch(trackPred(), TrackOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := ds.TrackSearch(trackPred(), TrackOptions{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("run %d diverged: %+v vs %+v", i, got, want)
		}
	}
}

func TestTrackSearchSeedIndependentResults(t *testing.T) {
	// The coarse phase is a fixed walk of the grid, so Seed reaches
	// nothing: the full report — results, every counter and the charged
	// seconds — is bit-identical across seeds, and the engine (eight-frame
	// rounds on four workers) reproduces TrackSearch's report bit for bit.
	digest := func(src Source, seed uint64) string {
		rep, err := TrackSearch(src, trackPred(), TrackOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return trackReportDigest(rep)
	}
	pair := digestTrackPair(t)
	for _, src := range []Source{trackScene(t, WithPerfectDetector()), pair} {
		want := digest(src, 1)
		for seed := uint64(2); seed <= 8; seed++ {
			if got := digest(src, seed); got != want {
				t.Errorf("%s: seed %d digest %s, seed 1 %s", src.Name(), seed, got, want)
			}
		}
	}
	e := newTestEngine(t, EngineOptions{Workers: 4, FramesPerRound: 8})
	h, err := e.SubmitTrack(context.Background(), pair, trackPred(), TrackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := trackReportDigest(rep), digest(pair, 1); got != want {
		t.Errorf("engine digest %s, TrackSearch %s", got, want)
	}
}

func TestTrackEngineMatchesTrackSearch(t *testing.T) {
	// The engine adds scheduling, never behavior: at FramesPerRound 1 the
	// pick/apply sequence is exactly the sequential driver's, so the full
	// report is byte-identical.
	ds := trackScene(t, WithPerfectDetector())
	want, err := TrackSearch(ds, trackPred(), TrackOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, EngineOptions{Workers: 1, FramesPerRound: 1})
	h, err := e.SubmitTrack(context.Background(), ds, trackPred(), TrackOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("engine diverged from TrackSearch:\nsearch: %+v\nengine: %+v", want, got)
	}
}

func TestTrackEngineRoundSizeInvariance(t *testing.T) {
	// Round size and worker count reorder coarse picks but cannot change
	// what the grid discovers: results and frame counters are invariant.
	ds := trackScene(t, WithPerfectDetector())
	want, err := TrackSearch(ds, trackPred(), TrackOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []EngineOptions{
		{Workers: 1, FramesPerRound: 16},
		{Workers: 8, FramesPerRound: 16},
		{Workers: 8, FramesPerRound: 64},
	} {
		e := newTestEngine(t, cfg)
		h, err := e.SubmitTrack(context.Background(), ds, trackPred(), TrackOptions{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Results, got.Results) {
			t.Errorf("workers=%d round=%d changed results (%d vs %d)",
				cfg.Workers, cfg.FramesPerRound, len(got.Results), len(want.Results))
		}
		if got.FramesProcessed != want.FramesProcessed || got.CoarseFrames != want.CoarseFrames ||
			got.RefineFrames != want.RefineFrames || got.Intervals != want.Intervals {
			t.Errorf("workers=%d round=%d changed coverage: %+v vs %+v", cfg.Workers, cfg.FramesPerRound, got, want)
		}
	}
}

func TestTrackSingleShardMatchesDataset(t *testing.T) {
	// A 1-shard ShardedSource is the identity remapping: the track report
	// must be byte-identical to querying the dataset directly.
	ds := trackScene(t, WithPerfectDetector())
	ss, err := NewShardedSource("one", ds)
	if err != nil {
		t.Fatal(err)
	}
	want, err := TrackSearch(ds, trackPred(), TrackOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	got, err := TrackSearch(ss, trackPred(), TrackOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("1-shard source diverged from Dataset:\ndataset: %+v\nsharded: %+v", want, got)
	}
}

func TestTrackTwoShardsSpanningBoundary(t *testing.T) {
	// Across a 2-shard layout the query sees one global frame space:
	// candidate intervals may pad across the shard boundary, refine
	// batches split per shard via affinity, and the report stays
	// deterministic — sequential and engine agree byte for byte.
	mk := func(seed uint64) *Dataset {
		ds, err := Synthesize(SynthSpec{
			NumFrames:    20_000,
			NumInstances: 6,
			Class:        "car",
			MeanDuration: 300,
			ChunkFrames:  1000,
			Seed:         seed,
			TravelX:      300,
		}, WithPerfectDetector())
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	ss, err := NewShardedSource("pair", mk(7), mk(8))
	if err != nil {
		t.Fatal(err)
	}
	want, err := TrackSearch(ss, trackPred(), TrackOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi bool
	for _, r := range want.Results {
		if r.Start < 20_000 {
			lo = true
		} else {
			hi = true
		}
	}
	if !lo || !hi {
		t.Fatalf("expected matches in both shards, got lo=%v hi=%v over %d results", lo, hi, len(want.Results))
	}
	e := newTestEngine(t, EngineOptions{Workers: 8, FramesPerRound: 1})
	h, err := e.SubmitTrack(context.Background(), ss, trackPred(), TrackOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("engine diverged from sequential on 2 shards:\nseq: %+v\nengine: %+v", want, got)
	}
}

func TestTrackAccelerateBeatsDenseScan(t *testing.T) {
	// The acceptance bar: the accelerate/refine loop must find the same
	// tracks as a dense scan (stride 1) while charging at least 3x fewer
	// detector frames.
	ds := trackScene(t, WithPerfectDetector())
	accel, err := ds.TrackSearch(trackPred(), TrackOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := ds.TrackSearch(trackPred(), TrackOptions{Seed: 3, Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dense.FramesProcessed != 40_000 {
		t.Fatalf("dense scan processed %d frames, want all 40000", dense.FramesProcessed)
	}
	if !reflect.DeepEqual(normTracks(accel.Results), normTracks(dense.Results)) {
		t.Fatalf("accelerated results diverge from dense scan:\naccel: %+v\ndense: %+v",
			normTracks(accel.Results), normTracks(dense.Results))
	}
	if ratio := float64(dense.FramesProcessed) / float64(accel.FramesProcessed); ratio < 3 {
		t.Errorf("accelerate charged %d frames vs dense %d — only %.2fx savings, need >= 3x",
			accel.FramesProcessed, dense.FramesProcessed, ratio)
	}
}

func TestTrackPredicateClauses(t *testing.T) {
	// Kinematic and spatial clauses over the same scene: every object
	// travels +300 px in x, so rightward direction keeps everything,
	// leftward and implausible speeds keep nothing, and a region drawn
	// around one track's start pins that track.
	ds := trackScene(t, WithPerfectDetector())
	base, err := ds.TrackSearch(trackPred(), TrackOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Results) == 0 {
		t.Fatal("baseline found nothing")
	}

	right := trackPred()
	right.Direction = &DirectionRange{MinDeg: 315, MaxDeg: 45} // wraps through 0
	if rep, err := ds.TrackSearch(right, TrackOptions{Seed: 3}); err != nil {
		t.Fatal(err)
	} else if len(rep.Results) != len(base.Results) {
		t.Errorf("rightward arc kept %d of %d tracks", len(rep.Results), len(base.Results))
	}

	left := trackPred()
	left.Direction = &DirectionRange{MinDeg: 135, MaxDeg: 225}
	if rep, err := ds.TrackSearch(left, TrackOptions{Seed: 3}); err != nil {
		t.Fatal(err)
	} else if len(rep.Results) != 0 {
		t.Errorf("leftward arc matched %d tracks moving right", len(rep.Results))
	}

	fast := trackPred()
	fast.MinSpeed = 1000
	if rep, err := ds.TrackSearch(fast, TrackOptions{Seed: 3}); err != nil {
		t.Fatal(err)
	} else if len(rep.Results) != 0 {
		t.Errorf("MinSpeed 1000 matched %d tracks", len(rep.Results))
	}

	r0 := base.Results[0]
	cx := (r0.StartBox.X1 + r0.StartBox.X2) / 2
	cy := (r0.StartBox.Y1 + r0.StartBox.Y2) / 2
	from := trackPred()
	from.From = Region{
		{X: cx - 10, Y: cy - 10}, {X: cx + 10, Y: cy - 10},
		{X: cx + 10, Y: cy + 10}, {X: cx - 10, Y: cy + 10},
	}
	rep, err := ds.TrackSearch(from, TrackOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rep.Results {
		if r.Start == r0.Start && r.End == r0.End {
			found = true
		}
	}
	if !found {
		t.Errorf("From region around track 0's start did not recover it (%d results)", len(rep.Results))
	}
}

func TestTrackLimitStopsEarly(t *testing.T) {
	ds := trackScene(t, WithPerfectDetector())
	full, err := ds.TrackSearch(trackPred(), TrackOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ds.TrackSearch(trackPred(), TrackOptions{Seed: 3, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("Limit 1 returned %d results", len(rep.Results))
	}
	if rep.FramesProcessed >= full.FramesProcessed {
		t.Errorf("Limit 1 charged %d frames, full run %d — no early stop", rep.FramesProcessed, full.FramesProcessed)
	}
}

func TestTrackMaxFramesBudget(t *testing.T) {
	ds := trackScene(t, WithPerfectDetector())
	rep, err := ds.TrackSearch(trackPred(), TrackOptions{Seed: 3, MaxFrames: 100})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FramesProcessed != 100 {
		t.Errorf("MaxFrames 100 charged %d frames", rep.FramesProcessed)
	}
}

// TestTrackHugeStrideClamped: a stride at or past the repository's length
// lays out the one-point grid {0} padded over the whole repository, so a
// stride of the length, of 1<<40 and of MaxInt64 run the same query. The
// grid and pad arithmetic must not overflow into an empty grid.
func TestTrackHugeStrideClamped(t *testing.T) {
	const numFrames = 4000
	ds, err := Synthesize(SynthSpec{
		NumFrames:    numFrames,
		NumInstances: 3,
		Class:        "car",
		MeanDuration: 300,
		ChunkFrames:  1000,
		Seed:         7,
		TravelX:      300,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, stride := range []int64{numFrames, 1 << 40, math.MaxInt64} {
		rep, err := ds.TrackSearch(trackPred(), TrackOptions{Stride: stride})
		if err != nil {
			t.Fatalf("stride %d: %v", stride, err)
		}
		if rep.CoarseFrames != 1 {
			t.Fatalf("stride %d: %d coarse frames, want 1 (the grid {0})", stride, rep.CoarseFrames)
		}
		got := trackReportDigest(rep)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("stride %d: report digest %s, stride %d gave %s", stride, got, int64(numFrames), want)
		}
	}
}

// TestTrackStoreMergesInFrameOrder: a track run hands the tracker an
// interval's processed frames in frame order, coarse grid points merged
// with the refine window — a grid point refined because its arm stayed
// fenced included, a processed frame without detections included, a frame
// never processed left out — and releasing the interval drops exactly its
// frames.
func TestTrackStoreMergesInFrameOrder(t *testing.T) {
	r, err := newTrackRun(trackScene(t), trackPred(), TrackOptions{Stride: 10}, cacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	det := func(f int64) []track.Detection { return []track.Detection{{Frame: f, Class: "car"}} }
	for _, s := range []struct {
		frame int64
		chunk int
		dets  []track.Detection
	}{
		{90, 0, det(90)}, {100, 0, det(100)}, {120, 0, nil}, {130, 0, det(130)},
		{101, -1, det(101)}, {105, -1, nil}, {110, -1, det(110)}, {125, -1, det(125)}, {131, -1, det(131)},
	} {
		if err := r.keep(core.Pick{Frame: s.frame, Chunk: s.chunk}, s.dets); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.keep(core.Pick{Frame: 128, Chunk: -1}, nil); err == nil {
		t.Fatal("a refine frame below the window's last was accepted")
	}
	iv := trackquery.Interval{Start: 100, End: 129}
	var got []int64
	err = r.eachStored(iv, func(f int64, dets []track.Detection) error {
		if len(dets) > 0 && dets[0].Frame != f {
			t.Errorf("frame %d got the detections of frame %d", f, dets[0].Frame)
		}
		got = append(got, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{100, 101, 105, 110, 120, 125}; !reflect.DeepEqual(got, want) {
		t.Fatalf("interval %+v fed frames %v, want %v", iv, got, want)
	}
	r.release(iv)
	for f, want := range map[int64]bool{90: true, 100: false, 110: false, 120: false, 125: false, 130: true, 131: true} {
		if _, ok := r.stored(f); ok != want {
			t.Errorf("after release, frame %d stored = %v, want %v", f, ok, want)
		}
	}
}

func TestTrackEngineEventsCarryTracks(t *testing.T) {
	// Every matched track arrives exactly once through the event stream,
	// attached to the interval-completion event that emitted it.
	ds := trackScene(t, WithPerfectDetector())
	e := newTestEngine(t, EngineOptions{Workers: 2, FramesPerRound: 8})
	h, err := e.SubmitTrack(context.Background(), ds, trackPred(), TrackOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var streamed []TrackResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range h.Events() {
			if len(ev.Tracks) == 0 {
				// Track queries only emit on interval completion
				// with matches.
				streamed = append(streamed, TrackResult{TrackID: -1})
				continue
			}
			streamed = append(streamed, ev.Tracks...)
		}
	}()
	rep, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if h.Dropped() != 0 {
		t.Fatalf("%d events dropped; raise EventBuffer for this test", h.Dropped())
	}
	if !reflect.DeepEqual(streamed, rep.Results) {
		t.Errorf("event stream carried %d tracks, report has %d", len(streamed), len(rep.Results))
	}
}

func TestTrackQueriesShareMemoCache(t *testing.T) {
	// Track queries ride the same cross-query memo cache as
	// distinct-object queries: a repeat query is served mostly from
	// cache, with identical results.
	ds := trackScene(t, WithPerfectDetector())
	e := newTestEngine(t, EngineOptions{Workers: 2, FramesPerRound: 8, CacheEntries: 1 << 16})
	run := func() *TrackReport {
		h, err := e.SubmitTrack(context.Background(), ds, trackPred(), TrackOptions{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	first := run()
	second := run()
	if second.CacheHits == 0 {
		t.Error("repeat query hit the cache 0 times")
	}
	if !reflect.DeepEqual(first.Results, second.Results) {
		t.Error("cached run changed the results")
	}
	if second.DetectSeconds >= first.DetectSeconds {
		t.Errorf("cached run charged %.3fs detect vs %.3fs uncached", second.DetectSeconds, first.DetectSeconds)
	}
}

func TestTrackPredicateValidation(t *testing.T) {
	// A rejected predicate reports every bad field at once, each
	// matching the sentinel and carrying its field name.
	bad := TrackPredicate{
		From:        Region{{X: 0, Y: 0}, {X: 1, Y: 1}},
		Visits:      Region{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 2}}, // collinear: zero area
		Crosses:     &Segment{A: Point{X: 5, Y: 5}, B: Point{X: 5, Y: 5}},
		Direction:   &DirectionRange{MinDeg: 400, MaxDeg: 45},
		MinDuration: 10,
		MaxDuration: 5,
		MinSpeed:    -1,
	}
	err := bad.Validate()
	if err == nil {
		t.Fatal("invalid predicate accepted")
	}
	if !errors.Is(err, ErrInvalidPredicate) {
		t.Errorf("error does not match ErrInvalidPredicate: %v", err)
	}
	var fe *PredicateError
	if !errors.As(err, &fe) {
		t.Fatalf("error does not unwrap to *PredicateError: %v", err)
	}
	for _, field := range []string{"Class", "From", "Visits", "Crosses", "Direction", "MinDuration", "MinSpeed"} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("bundle does not report field %s: %v", field, err)
		}
	}

	if err := trackPred().Validate(); err != nil {
		t.Errorf("valid predicate rejected: %v", err)
	}

	ds := trackScene(t)
	if _, err := ds.TrackSearch(TrackPredicate{}, TrackOptions{}); !errors.Is(err, ErrInvalidPredicate) {
		t.Errorf("TrackSearch accepted an empty predicate: %v", err)
	}
	e := newTestEngine(t, EngineOptions{Workers: 1, FramesPerRound: 1})
	if _, err := e.SubmitTrack(context.Background(), ds, TrackPredicate{}, TrackOptions{}); !errors.Is(err, ErrInvalidPredicate) {
		t.Errorf("SubmitTrack accepted an empty predicate: %v", err)
	}
}

func TestTrackOptionsValidation(t *testing.T) {
	ds := trackScene(t)
	for name, o := range map[string]TrackOptions{
		"stride":  {Stride: -1},
		"limit":   {Limit: -1},
		"frames":  {MaxFrames: -1},
		"seconds": {MaxSeconds: -1},
	} {
		if _, err := ds.TrackSearch(trackPred(), o); err == nil {
			t.Errorf("%s: invalid options accepted", name)
		}
	}
	if _, err := TrackSearch(nil, trackPred(), TrackOptions{}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := ds.TrackSearch(TrackPredicate{Class: "submarine", MinDuration: 50}, TrackOptions{}); err == nil {
		t.Error("unknown class accepted")
	}
}
