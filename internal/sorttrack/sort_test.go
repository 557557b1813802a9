package sorttrack

import (
	"runtime"
	"slices"
	"testing"

	"github.com/exsample/exsample/internal/detect"
	"github.com/exsample/exsample/internal/geom"
	"github.com/exsample/exsample/internal/synth"
	"github.com/exsample/exsample/internal/track"
)

func det(frame int64, class string, box geom.Box) track.Detection {
	return track.Detection{Frame: frame, Class: class, Box: box, Score: 0.9}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{IoUThreshold: 0, MaxAge: 3, MinHits: 2},
		{IoUThreshold: 1.5, MaxAge: 3, MinHits: 2},
		{IoUThreshold: 0.3, MaxAge: 0, MinHits: 2},
		{IoUThreshold: 0.3, MaxAge: 3, MinHits: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(Config{}); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

func TestSingleObjectSingleTrack(t *testing.T) {
	tr, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// One object drifting right for 20 frames.
	for f := int64(0); f < 20; f++ {
		b := geom.Rect(100+float64(f)*4, 50, 60, 80)
		if err := tr.Observe(f, []track.Detection{det(f, "car", b)}); err != nil {
			t.Fatal(err)
		}
	}
	tracks := tr.Flush()
	if len(tracks) != 1 {
		t.Fatalf("got %d tracks, want 1", len(tracks))
	}
	got := tracks[0]
	if got.Start != 0 || got.End != 19 || got.Hits != 20 || got.Class != "car" {
		t.Fatalf("track = %+v", got)
	}
}

func TestTwoSeparatedObjects(t *testing.T) {
	tr, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for f := int64(0); f < 15; f++ {
		dets := []track.Detection{
			det(f, "car", geom.Rect(0+float64(f)*2, 0, 50, 50)),
			det(f, "car", geom.Rect(500, 500, 50, 50)),
		}
		if err := tr.Observe(f, dets); err != nil {
			t.Fatal(err)
		}
	}
	if tracks := tr.Flush(); len(tracks) != 2 {
		t.Fatalf("got %d tracks, want 2", len(tracks))
	}
}

func TestClassSeparation(t *testing.T) {
	tr, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Same box, alternating class labels: must become two tracks, not one.
	for f := int64(0); f < 10; f++ {
		dets := []track.Detection{
			det(f, "car", geom.Rect(100, 100, 50, 50)),
			det(f, "bus", geom.Rect(100, 100, 50, 50)),
		}
		if err := tr.Observe(f, dets); err != nil {
			t.Fatal(err)
		}
	}
	tracks := tr.Flush()
	if len(tracks) != 2 {
		t.Fatalf("got %d tracks, want 2 (one per class)", len(tracks))
	}
}

func TestOcclusionGapWithinMaxAge(t *testing.T) {
	tr, err := New(Config{IoUThreshold: 0.3, MaxAge: 5, MinHits: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Frames 0-9 visible, 10-12 occluded, 13-19 visible again: one track.
	for f := int64(0); f < 20; f++ {
		var dets []track.Detection
		if f < 10 || f >= 13 {
			dets = []track.Detection{det(f, "car", geom.Rect(200, 200, 60, 60))}
		}
		if err := tr.Observe(f, dets); err != nil {
			t.Fatal(err)
		}
	}
	tracks := tr.Flush()
	if len(tracks) != 1 {
		t.Fatalf("got %d tracks across a short occlusion, want 1", len(tracks))
	}
	if tracks[0].End != 19 {
		t.Fatalf("track end = %d", tracks[0].End)
	}
}

func TestLongGapSplitsTrack(t *testing.T) {
	tr, err := New(Config{IoUThreshold: 0.3, MaxAge: 3, MinHits: 2})
	if err != nil {
		t.Fatal(err)
	}
	for f := int64(0); f < 30; f++ {
		var dets []track.Detection
		if f < 10 || f >= 20 {
			dets = []track.Detection{det(f, "car", geom.Rect(200, 200, 60, 60))}
		}
		if err := tr.Observe(f, dets); err != nil {
			t.Fatal(err)
		}
	}
	tracks := tr.Flush()
	if len(tracks) != 2 {
		t.Fatalf("got %d tracks across a 10-frame gap with MaxAge=3, want 2", len(tracks))
	}
}

func TestMinHitsSuppressesOneFrameFalsePositives(t *testing.T) {
	tr, err := New(Config{IoUThreshold: 0.3, MaxAge: 3, MinHits: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A single spurious detection among empty frames.
	tr.Observe(0, []track.Detection{det(0, "car", geom.Rect(900, 900, 30, 30))})
	for f := int64(1); f < 10; f++ {
		tr.Observe(f, nil)
	}
	if tracks := tr.Flush(); len(tracks) != 0 {
		t.Fatalf("one-frame FP produced %d tracks", len(tracks))
	}
}

func TestCrossingObjectsKeepIdentity(t *testing.T) {
	// Two objects pass each other moving in opposite directions; with
	// Kalman velocity the tracker should keep two tracks (not fragment).
	tr, err := New(Config{IoUThreshold: 0.2, MaxAge: 3, MinHits: 2})
	if err != nil {
		t.Fatal(err)
	}
	for f := int64(0); f < 40; f++ {
		a := geom.Rect(float64(f)*10, 100, 40, 40)     // left -> right
		b := geom.Rect(400-float64(f)*10, 100, 40, 40) // right -> left
		if err := tr.Observe(f, []track.Detection{det(f, "car", a), det(f, "car", b)}); err != nil {
			t.Fatal(err)
		}
	}
	tracks := tr.Flush()
	if len(tracks) != 2 {
		t.Fatalf("crossing objects produced %d tracks, want 2", len(tracks))
	}
	for _, tk := range tracks {
		if tk.Duration() < 35 {
			t.Fatalf("track fragmented: %+v", tk)
		}
	}
}

func TestObserveOutOfOrder(t *testing.T) {
	tr, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr.Observe(5, nil)
	if err := tr.Observe(5, nil); err == nil {
		t.Error("same frame twice accepted")
	}
	if err := tr.Observe(3, nil); err == nil {
		t.Error("earlier frame accepted")
	}
}

func TestGroundTruthPipelineRecoversPopulation(t *testing.T) {
	// Generate truth, run the §V-A pipeline (perfect detector, stride 1),
	// and check the recovered population matches.
	const numFrames = 40_000
	instances, err := synth.Generate(synth.GridSpec{
		NumInstances: 60,
		NumFrames:    numFrames,
		MeanDuration: 400,
		SkewFraction: 0.5,
		Class:        "car",
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := track.NewIndex(instances, numFrames, 0)
	if err != nil {
		t.Fatal(err)
	}
	detector, err := detect.Perfect(idx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BuildGroundTruth(detector, numFrames, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesScanned != numFrames {
		t.Fatalf("scanned %d frames", res.FramesScanned)
	}
	cmp := CompareToTruth(res.Instances, instances)["car"]
	if cmp.CountRatio < 0.9 || cmp.CountRatio > 1.15 {
		t.Fatalf("recovered %d of %d instances (ratio %v)", cmp.RecoveredCount, cmp.TrueCount, cmp.CountRatio)
	}
}

func TestGroundTruthPipelineWithNoiseAndStride(t *testing.T) {
	// Noisy detector + stride 5: recovery degrades gracefully, not
	// catastrophically (the paper's fine-tuning discussion).
	const numFrames = 40_000
	instances, err := synth.Generate(synth.GridSpec{
		NumInstances: 60,
		NumFrames:    numFrames,
		MeanDuration: 400,
		Class:        "car",
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := track.NewIndex(instances, numFrames, 0)
	if err != nil {
		t.Fatal(err)
	}
	detector, err := detect.NewSim(idx, 9, detect.WithNoise(detect.NoiseModel{
		MissProb: 0.1, JitterFrac: 0.02, FalsePositiveRate: 0.01,
		MinScore: 0.5, MaxScore: 0.9,
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := BuildGroundTruth(detector, numFrames, 5, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesScanned != numFrames/5 {
		t.Fatalf("scanned %d frames", res.FramesScanned)
	}
	cmp := CompareToTruth(res.Instances, instances)["car"]
	if cmp.CountRatio < 0.6 || cmp.CountRatio > 2.0 {
		t.Fatalf("recovered ratio %v (got %d of %d)", cmp.CountRatio, cmp.RecoveredCount, cmp.TrueCount)
	}
}

func TestBuildGroundTruthValidation(t *testing.T) {
	if _, err := BuildGroundTruth(nil, 10, 1, Config{}); err == nil {
		t.Error("nil detector accepted")
	}
	idx, _ := track.NewIndex(nil, 10, 0)
	d, _ := detect.Perfect(idx)
	if _, err := BuildGroundTruth(d, 0, 1, Config{}); err == nil {
		t.Error("zero frames accepted")
	}
}

func TestCompareToTruthUnknownClass(t *testing.T) {
	rec := []track.Instance{{ID: 0, Class: "ghost", Start: 0, End: 1,
		StartBox: geom.Rect(0, 0, 1, 1), EndBox: geom.Rect(0, 0, 1, 1)}}
	cmp := CompareToTruth(rec, nil)
	if cmp["ghost"].RecoveredCount != 1 || cmp["ghost"].TrueCount != 0 {
		t.Fatalf("cmp = %+v", cmp)
	}
}

// TestTrackerObserveAllocs: once its tracks exist, associating a frame's
// detections with them — prediction, cost matrix, assignment, update —
// allocates nothing beyond the growth of each track's path, which is
// reserved here up front. MemStats.Mallocs is process-wide, so one stray
// runtime allocation can land in any window; the steady state is measured
// over three consecutive windows and the quietest must read 0. An
// allocation on every frame shows in all three.
func TestTrackerObserveAllocs(t *testing.T) {
	const objects, warm, windows, window = 6, 10, 3, 100
	const frames = windows * window
	tr, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Six objects drifting right in separate lanes, detected every frame.
	dets := make([][]track.Detection, warm+frames)
	for f := range dets {
		for k := 0; k < objects; k++ {
			b := geom.Rect(100+float64(f)*3, 50+float64(k)*150, 60, 80)
			dets[f] = append(dets[f], det(int64(f), "car", b))
		}
	}
	for f := 0; f < warm; f++ {
		if err := tr.Observe(int64(f), dets[f]); err != nil {
			t.Fatal(err)
		}
	}
	if len(tr.live) != objects {
		t.Fatalf("%d live tracks after warm-up, want %d", len(tr.live), objects)
	}
	for _, lt := range tr.live {
		lt.path = slices.Grow(lt.path, frames)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	counts := make([]uint64, 0, windows)
	for w := 0; w < windows; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for f := warm + w*window; f < warm+(w+1)*window; f++ {
			if err := tr.Observe(int64(f), dets[f]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		counts = append(counts, after.Mallocs-before.Mallocs)
	}
	if slices.Min(counts) != 0 {
		t.Fatalf("every %d-frame steady-state window allocates (%v objects), want one at 0", window, counts)
	}
	if len(tr.live) != objects || tr.nextID != objects {
		t.Fatalf("association broke: %d live tracks, %d created", len(tr.live), tr.nextID)
	}
}
