package discrim

import (
	"runtime"
	"testing"

	"github.com/exsample/exsample/internal/detect"
	"github.com/exsample/exsample/internal/geom"
	"github.com/exsample/exsample/internal/track"
)

func inst(id int, class string, start, end int64) track.Instance {
	return track.Instance{
		ID: id, Class: class, Start: start, End: end,
		StartBox: geom.Rect(100, 100, 50, 80),
		EndBox:   geom.Rect(400, 300, 60, 90),
	}
}

// separated returns instances whose boxes never overlap, so IoU matching is
// unambiguous.
func separated(id int, class string, start, end int64, lane float64) track.Instance {
	return track.Instance{
		ID: id, Class: class, Start: start, End: end,
		StartBox: geom.Rect(100, lane*200, 50, 80),
		EndBox:   geom.Rect(400, lane*200, 60, 90),
	}
}

func setup(t *testing.T, instances []track.Instance, numFrames int64, coverage float64) (*track.Index, *Discriminator, *detect.Sim) {
	t.Helper()
	idx, err := track.NewIndex(instances, numFrames, 0)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := NewTruthExtender(idx, coverage)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(ext, 0)
	if err != nil {
		t.Fatal(err)
	}
	det, err := detect.Perfect(idx)
	if err != nil {
		t.Fatal(err)
	}
	return idx, d, det
}

func TestFirstSightingIsNew(t *testing.T) {
	_, d, det := setup(t, []track.Instance{inst(0, "car", 0, 99)}, 1000, 1.0)
	d0, d1 := d.Observe(50, det.Detect(50))
	if len(d0) != 1 || len(d1) != 0 {
		t.Fatalf("d0=%d d1=%d", len(d0), len(d1))
	}
	if d.NumResults() != 1 {
		t.Fatalf("NumResults = %d", d.NumResults())
	}
}

func TestSecondSightingIsD1ThirdIsNeither(t *testing.T) {
	_, d, det := setup(t, []track.Instance{inst(0, "car", 0, 99)}, 1000, 1.0)
	d.Observe(50, det.Detect(50))

	// Second sighting in a different frame: same object, counts as d1.
	d0, d1 := d.Observe(80, det.Detect(80))
	if len(d0) != 0 || len(d1) != 1 {
		t.Fatalf("second sighting: d0=%d d1=%d", len(d0), len(d1))
	}

	// Third sighting: contributes to neither set.
	d0, d1 = d.Observe(20, det.Detect(20))
	if len(d0) != 0 || len(d1) != 0 {
		t.Fatalf("third sighting: d0=%d d1=%d", len(d0), len(d1))
	}
	if d.NumResults() != 1 {
		t.Fatalf("NumResults = %d", d.NumResults())
	}
}

func TestDistinctObjectsCountSeparately(t *testing.T) {
	instances := []track.Instance{
		separated(0, "car", 0, 99, 0),
		separated(1, "car", 200, 299, 1),
		separated(2, "car", 0, 99, 2),
	}
	_, d, det := setup(t, instances, 1000, 1.0)
	d0, _ := d.Observe(50, det.Detect(50)) // instances 0 and 2 visible
	if len(d0) != 2 {
		t.Fatalf("frame 50: d0=%d", len(d0))
	}
	d0, _ = d.Observe(250, det.Detect(250)) // instance 1
	if len(d0) != 1 {
		t.Fatalf("frame 250: d0=%d", len(d0))
	}
	if d.NumResults() != 3 {
		t.Fatalf("NumResults = %d", d.NumResults())
	}
}

func TestClassMismatchDoesNotMatch(t *testing.T) {
	// Same spatial track, different classes: two distinct results.
	a := inst(0, "car", 0, 99)
	b := inst(1, "bus", 0, 99)
	idx, err := track.NewIndex([]track.Instance{a, b}, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := NewTruthExtender(idx, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(ext, 0)
	if err != nil {
		t.Fatal(err)
	}
	det, err := detect.Perfect(idx)
	if err != nil {
		t.Fatal(err)
	}
	d0, _ := d.Observe(50, det.Detect(50))
	if len(d0) != 2 {
		t.Fatalf("d0=%d, want both classes new", len(d0))
	}
}

func TestPartialCoverageSplitsLongTracks(t *testing.T) {
	// With coverage 0.2, a detection at frame 500 of a [0,999] instance
	// yields a predicted track of ~[400,600]; a detection at frame 0 is far
	// outside and registers as a second "distinct" object (tracker lost it).
	_, d, det := setup(t, []track.Instance{inst(0, "car", 0, 999)}, 1000, 0.2)
	d.Observe(500, det.Detect(500))
	d0, _ := d.Observe(0, det.Detect(0))
	if len(d0) != 1 {
		t.Fatalf("far detection: d0=%d, want new object under partial coverage", len(d0))
	}
	if d.NumResults() != 2 {
		t.Fatalf("NumResults = %d", d.NumResults())
	}
}

func TestFalsePositivesGetSingleFrameTracks(t *testing.T) {
	idx, err := track.NewIndex(nil, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := NewTruthExtender(idx, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	tr := ext.Extend(track.Detection{Frame: 77, Class: "car", Box: geom.Rect(0, 0, 10, 10), TruthID: -1})
	if tr.Start != 77 || tr.End != 77 {
		t.Fatalf("FP track = [%d, %d]", tr.Start, tr.End)
	}
}

func TestGetMatchesDoesNotMutate(t *testing.T) {
	_, d, det := setup(t, []track.Instance{inst(0, "car", 0, 99)}, 1000, 1.0)
	dets := det.Detect(50)
	d0, _ := d.GetMatches(50, dets)
	if len(d0) != 1 {
		t.Fatalf("d0=%d", len(d0))
	}
	if d.NumResults() != 0 {
		t.Fatal("GetMatches mutated state")
	}
	// Repeated classification gives the same answer until Add.
	d0, _ = d.GetMatches(50, dets)
	if len(d0) != 1 {
		t.Fatalf("repeat d0=%d", len(d0))
	}
	d.Add(50, dets)
	if d.NumResults() != 1 {
		t.Fatalf("NumResults after Add = %d", d.NumResults())
	}
	d0, d1 := d.GetMatches(80, det.Detect(80))
	if len(d0) != 0 || len(d1) != 1 {
		t.Fatalf("after Add: d0=%d d1=%d", len(d0), len(d1))
	}
}

func TestAddReturnsCreatedObjects(t *testing.T) {
	_, d, det := setup(t, []track.Instance{inst(0, "car", 0, 99)}, 1000, 1.0)
	created := d.Add(50, det.Detect(50))
	if len(created) != 1 || created[0].ID != 0 || created[0].Sightings != 1 {
		t.Fatalf("created = %+v", created)
	}
	created = d.Add(80, det.Detect(80))
	if len(created) != 0 {
		t.Fatalf("second Add created %d objects", len(created))
	}
	if d.Objects()[0].Sightings != 2 {
		t.Fatalf("Sightings = %d", d.Objects()[0].Sightings)
	}
}

func TestDuplicateDetectionsWithinFrame(t *testing.T) {
	// Two identical detections of a new object in one frame: only one new
	// object is registered by Observe, the second becomes d1.
	_, d, _ := setup(t, []track.Instance{inst(0, "car", 0, 99)}, 1000, 1.0)
	det1 := track.Detection{Frame: 50, Class: "car", Box: inst(0, "car", 0, 99).BoxAt(50), TruthID: 0}
	d0, d1 := d.Observe(50, []track.Detection{det1, det1})
	if len(d0) != 1 || len(d1) != 1 {
		t.Fatalf("d0=%d d1=%d", len(d0), len(d1))
	}
	if d.NumResults() != 1 {
		t.Fatalf("NumResults = %d", d.NumResults())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 0.5); err == nil {
		t.Error("nil extender accepted")
	}
	if _, err := New(FrameExtender{}, 1.5); err == nil {
		t.Error("IoU threshold > 1 accepted")
	}
}

func TestNewTruthExtenderValidation(t *testing.T) {
	idx, err := track.NewIndex(nil, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, cov := range []float64{0, -0.5, 1.5} {
		if _, err := NewTruthExtender(idx, cov); err == nil {
			t.Errorf("coverage %v accepted", cov)
		}
	}
}

func TestFrameExtender(t *testing.T) {
	det1 := track.Detection{Frame: 5, Class: "car", Box: geom.Rect(0, 0, 10, 10)}
	tr := FrameExtender{}.Extend(det1)
	if tr.Start != 5 || tr.End != 5 || tr.StartBox != det1.Box {
		t.Fatalf("track = %+v", tr)
	}
}

func TestPredictedTrackBoxAtClamps(t *testing.T) {
	p := PredictedTrack{Start: 10, End: 20, StartBox: geom.Rect(0, 0, 10, 10), EndBox: geom.Rect(100, 0, 10, 10)}
	if b := p.BoxAt(5); b != p.StartBox {
		t.Errorf("BoxAt(before) = %+v", b)
	}
	if b := p.BoxAt(25); b != p.EndBox {
		t.Errorf("BoxAt(after) = %+v", b)
	}
	mid := p.BoxAt(15)
	if mid.X1 != 50 {
		t.Errorf("BoxAt(mid) = %+v", mid)
	}
	// Degenerate single-frame track.
	q := PredictedTrack{Start: 3, End: 3, StartBox: geom.Rect(1, 1, 2, 2), EndBox: geom.Rect(9, 9, 2, 2)}
	if b := q.BoxAt(3); b != q.StartBox {
		t.Errorf("degenerate BoxAt = %+v", b)
	}
}

// N1 bookkeeping invariant: after any detection sequence,
// sum(d0) - sum(d1) equals the number of objects seen exactly once.
func TestN1Invariant(t *testing.T) {
	instances := []track.Instance{
		separated(0, "car", 0, 500, 0),
		separated(1, "car", 100, 700, 1),
		separated(2, "car", 300, 900, 2),
		separated(3, "car", 50, 60, 3),
	}
	idx, err := track.NewIndex(instances, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := NewTruthExtender(idx, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(ext, 0)
	if err != nil {
		t.Fatal(err)
	}
	detector, err := detect.Perfect(idx)
	if err != nil {
		t.Fatal(err)
	}
	n1 := 0
	for _, frame := range []int64{55, 350, 350, 120, 650, 820, 55, 10, 10} {
		d0, d1 := d.Observe(frame, detector.Detect(frame))
		n1 += len(d0) - len(d1)
		// Recompute from object sightings.
		want := 0
		for _, obj := range d.Objects() {
			if obj.Sightings == 1 {
				want++
			}
		}
		if n1 != want {
			t.Fatalf("after frame %d: N1 accumulator=%d, objects-seen-once=%d", frame, n1, want)
		}
	}
}

// TestDiscriminatorObserveAllocs: a frame whose detections all match known
// objects allocates nothing, one detection or many, and registering new
// objects costs at most one allocation per eight objects amortised (object
// slab, object list, bucket links and bucket map together).
func TestDiscriminatorObserveAllocs(t *testing.T) {
	// Objects start every 25 frames and live 200, so about eight overlap
	// at any frame; eight lanes keep overlapping objects apart, and each
	// lane's next object starts after its previous one ended.
	const n = 4096
	instances := make([]track.Instance, n)
	for i := range instances {
		start := int64(i) * 25
		instances[i] = separated(i, "car", start, start+199, float64(i%8))
	}
	idx, err := track.NewIndex(instances, n*25+200, 0)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := NewTruthExtender(idx, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(ext, 0)
	if err != nil {
		t.Fatal(err)
	}
	sighting := func(i int, frame int64) []track.Detection {
		in := instances[i]
		return []track.Detection{{Frame: frame, Class: in.Class, Box: in.BoxAt(frame), Score: 0.9, TruthID: in.ID}}
	}
	first := make([][]track.Detection, n)
	later := make([][]track.Detection, n)
	for i, in := range instances {
		first[i] = sighting(i, in.Start)
		later[i] = sighting(i, in.Start+100)
	}

	// Count every allocation of a whole sequence: AllocsPerRun rounds its
	// per-run average down to an integer.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mallocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}

	created := mallocs(func() {
		for i := range first {
			if newObjs, _ := d.ObserveObjects(first[i][0].Frame, first[i]); len(newObjs) != 1 {
				t.Fatalf("object %d: %d new objects, want 1", i, len(newObjs))
			}
		}
	})
	if d.NumResults() != n {
		t.Fatalf("%d objects registered, want %d", d.NumResults(), n)
	}
	if perNew := float64(created) / n; perNew > 1.0/8 {
		t.Fatalf("registering %d new objects allocates %d objects (%.4f each), want at most 1/8 each", n, created, perNew)
	}

	// The first re-sighting sizes the second-sighting buffer.
	d.ObserveObjects(later[0][0].Frame, later[0])
	known := mallocs(func() {
		for i := 1; i < n; i++ {
			newObjs, second := d.ObserveObjects(later[i][0].Frame, later[i])
			if len(newObjs) != 0 || len(second) != 1 || second[0].ID != i {
				t.Fatalf("object %d: re-sighting gave %d new, %d second", i, len(newObjs), len(second))
			}
		}
	})
	if known != 0 {
		t.Fatalf("%d frames matching only known objects allocate %d objects, want 0", n-1, known)
	}

	// Frames of several detections, every one of a known object: all the
	// objects visible at a frame, whose candidates fit ObserveObjects'
	// stack buffer, and a dense frame whose candidates spill past it. A
	// first pass sizes the buffers; after it no frame allocates.
	var frames []int64
	var multi [][]track.Detection
	for f := int64(100); f < n*25; f += 997 {
		var dets []track.Detection
		for i, in := range instances {
			if in.Start <= f && f <= in.End {
				dets = append(dets, sighting(i, f)...)
			}
		}
		frames, multi = append(frames, f), append(multi, dets)
	}
	observeAll := func() {
		for i, f := range frames {
			if newObjs, _ := d.ObserveObjects(f, multi[i]); len(newObjs) != 0 {
				t.Fatalf("frame %d: %d new objects among %d known", f, len(newObjs), len(multi[i]))
			}
		}
	}
	observeAll()
	if multiAllocs := mallocs(observeAll); multiAllocs != 0 {
		t.Fatalf("%d frames of about 8 known objects allocate %d objects, want 0", len(frames), multiAllocs)
	}
	dense, frame, dets, cands := denseFrame(t, 300)
	dense.ObserveObjects(frame, dets)
	if denseAllocs := mallocs(func() { dense.ObserveObjects(frame, dets) }); denseAllocs != 0 {
		t.Fatalf("a frame of %d detections over %d covering tracks allocates %d objects, want 0", len(dets), cands, denseAllocs)
	}
	t.Logf("%d allocations for %d new objects", created, n)
}
