package discrim

import (
	"fmt"
	"math"
	"testing"

	"github.com/exsample/exsample/internal/detect"
	"github.com/exsample/exsample/internal/geom"
	"github.com/exsample/exsample/internal/synth"
	"github.com/exsample/exsample/internal/track"
)

// naiveBoxAt is the interpolation with the clamp written out as compares.
func naiveBoxAt(p PredictedTrack, frame int64) geom.Box {
	if p.End <= p.Start {
		return p.StartBox
	}
	t := float64(frame-p.Start) / float64(p.End-p.Start)
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return geom.Lerp(p.StartBox, p.EndBox, t)
}

// naiveMatch is the reference discriminator match: every object in
// discovery order, no buckets and no pre-tests; class, interval, IoU at or
// above the threshold, and the first strict maximum wins.
func naiveMatch(objs []*Object, thresh float64, frame int64, det *track.Detection) *Object {
	var best *Object
	bestIoU := 0.0
	for _, obj := range objs {
		if obj.Class != det.Class || !obj.Track.Covers(frame) {
			continue
		}
		iou := geom.IoU(naiveBoxAt(obj.Track, frame), det.Box)
		if iou >= thresh && iou > bestIoU {
			best = obj
			bestIoU = iou
		}
	}
	return best
}

// idExtender returns the track scripted for the detection's TruthID, so
// each detection of a frame gets its own.
type idExtender struct{ tracks []PredictedTrack }

func (e *idExtender) Extend(det track.Detection) PredictedTrack { return e.tracks[det.TruthID] }

// script returns the detection with the TruthID under which the extender
// hands out tr.
func (e *idExtender) script(det track.Detection, tr PredictedTrack) track.Detection {
	det.TruthID = len(e.tracks)
	e.tracks = append(e.tracks, tr)
	return det
}

// fuzzThresholds are the IoU thresholds a fuzz input picks from: each is a
// ratio of small integers, so grid boxes land exactly on it.
var fuzzThresholds = []float64{0.5, 1.0 / 3, 0.25, 1, 0.6, 2.0 / 3}

// fuzzStep is the number of input bytes one detection consumes.
const fuzzStep = 8

// fuzzBox decodes two bytes into a box on a 16-point integer grid. Unless
// keepInverted is set the corners are ordered, so most boxes are proper and
// some are inverted; equal corners give zero-area boxes.
func fuzzBox(a, b byte, keepInverted bool) geom.Box {
	x1, x2 := float64(a&15), float64(a>>4)
	y1, y2 := float64(b&15), float64(b>>4)
	if !keepInverted {
		x1, x2 = min(x1, x2), max(x1, x2)
		y1, y2 = min(y1, y2), max(y1, y2)
	}
	return geom.Box{X1: x1, Y1: y1, X2: x2, Y2: y2}
}

// FuzzMatchAgainstNaive runs a scripted sequence of frames through a
// discriminator and checks it against a sequential reference: naiveMatch
// over a plain object list, with each unmatched detection registered before
// the next detection is matched. For every frame it checks
//
//   - that match, on the frame's candidates, returns naiveMatch's object for
//     every detection against the objects known when the frame begins;
//     scanning every object also checks that the bucket index never hides a
//     covering one;
//   - that ObserveObjects gives every detection the reference's outcome (new
//     object, second sighting or neither): the new objects, with their
//     discovering detections, and the second-sighted objects, in detection order, and every
//     object's sighting count, which a detection matched to the wrong
//     object would change;
//   - geom.Overlap's contract on every covering object: Overlap ⟺ IoU > 0.
//
// The first byte picks the threshold; each following 8-byte step is one
// detection:
//
//	0    frame = 17·b, spanning four 1024-frame buckets
//	1    flags: bit 0 class (car or bus); bit 1 take the detection's box from
//	     an object's predicted box (byte 2 picks it, in discovery order,
//	     objects created earlier in the same frame included) shifted by byte
//	     3's nibbles minus 1; bit 2 stationary track; bit 3 keep inverted
//	     corners; bit 4 join the previous step's frame (byte 0 is then
//	     ignored); bits 5–7 all set put a NaN in the detection box
//	2–3  the detection's box, unless bit 1 is set
//	4–5  the track's end box (its start box is the detection's)
//	6    track start = frame − 8·b
//	7    track length 16·b frames (0 is a one-frame track)
func FuzzMatchAgainstNaive(f *testing.F) {
	// A stationary car, a second one discovered later whose track reaches
	// back over the first's (an equal-IoU tie for a detection copying it),
	// then a bus copying the first car's box, and a touching car.
	f.Add([]byte{0,
		10, 0x04, 0x40, 0x40, 0, 0, 2, 8,
		60, 0x06, 0, 0x11, 0, 0, 110, 8,
		12, 0x02, 0, 0x11, 0, 0, 0, 0,
		12, 0x03, 0, 0x11, 0, 0, 0, 0,
		12, 0x04, 0x84, 0x40, 0, 0, 0, 0,
	})
	// Moving tracks over several buckets, zero-length tracks, inverted and
	// NaN boxes, at a threshold of 1/3.
	f.Add([]byte{1,
		0, 0x00, 0x30, 0x30, 0xc9, 0xc9, 0, 255,
		70, 0x02, 0, 0x11, 0, 0, 0, 0,
		70, 0xe0, 0x30, 0x30, 0, 0, 0, 0,
		130, 0x08, 0x03, 0x52, 0x25, 0x25, 10, 0,
		200, 0x02, 1, 0x12, 0, 0, 0, 40,
		250, 0x01, 0x62, 0x62, 0x73, 0x73, 255, 100,
		255, 0x03, 1, 0x21, 0, 0, 0, 0,
	})
	// Frames of several detections. A new car and its second sighting in
	// one frame. A new car whose track ends before its own frame, so the
	// same box again in that frame is another new car, whose second
	// sighting follows. A new car whose track moves onto the first car's
	// box at this frame, then that box: equal IoUs between an old object
	// and one created earlier in the frame, which the old one wins (its
	// third sighting, where the new one's would be its second).
	f.Add([]byte{0,
		10, 0x04, 0x40, 0x40, 0, 0, 2, 8,
		10, 0x12, 0, 0x11, 0, 0, 0, 0,
		20, 0x04, 0x95, 0x95, 0, 0, 4, 1,
		20, 0x14, 0x95, 0x95, 0, 0, 0, 1,
		20, 0x12, 2, 0x11, 0, 0, 0, 0,
		12, 0x00, 0xc8, 0xc8, 0x40, 0x40, 2, 1,
		12, 0x12, 0, 0x11, 0, 0, 0, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1+fuzzStep {
			t.Skip("need a threshold byte and one step")
		}
		ext := &idExtender{}
		thresh := fuzzThresholds[int(data[0])%len(fuzzThresholds)]
		d, err := New(ext, thresh)
		if err != nil {
			t.Fatal(err)
		}
		// refs are the reference's objects; wantNew and wantSecond its
		// outcomes for the frame's detections so far, as object IDs.
		var (
			refs                []*Object
			frame               int64
			dets                []track.Detection
			wantNew, wantSecond []int
		)
		observe := func() {
			start := d.Objects()
			cands := d.load(frame, nil)
			for i := range dets {
				if got, want := d.match(cands, &dets[i]), naiveMatch(start, thresh, frame, &dets[i]); got != want {
					t.Fatalf("frame %d, detection %d, %s %+v: match = %s, naive = %s", frame, i, dets[i].Class, dets[i].Box, objectName(got), objectName(want))
				}
			}
			newObjs, secondObjs := d.ObserveObjects(frame, dets)
			if got := objectIDs(newObjs); fmt.Sprint(got) != fmt.Sprint(wantNew) {
				t.Fatalf("frame %d: new objects %v, reference %v", frame, got, wantNew)
			}
			if got := objectIDs(secondObjs); fmt.Sprint(got) != fmt.Sprint(wantSecond) {
				t.Fatalf("frame %d: second sightings %v, reference %v", frame, got, wantSecond)
			}
			// A TruthID names the detection and its scripted track.
			for _, obj := range newObjs {
				if got, want := obj.FirstDetection.TruthID, refs[obj.ID].FirstDetection.TruthID; got != want {
					t.Fatalf("frame %d: object %d discovered by detection %d, reference %d", frame, obj.ID, got, want)
				}
			}
			if len(d.Objects()) != len(refs) {
				t.Fatalf("frame %d: %d objects, reference %d", frame, len(d.Objects()), len(refs))
			}
			for i, obj := range d.Objects() {
				if obj.Sightings != refs[i].Sightings {
					t.Fatalf("frame %d: object %d seen %d times, reference %d", frame, i, obj.Sightings, refs[i].Sightings)
				}
			}
			dets, wantNew, wantSecond = dets[:0], wantNew[:0], wantSecond[:0]
		}
		classes := [2]string{"car", "bus"}
		for s := data[1:]; len(s) >= fuzzStep; s = s[fuzzStep:] {
			flags := s[1]
			if flags&16 == 0 && len(dets) > 0 {
				observe()
			}
			if len(dets) == 0 {
				frame = 17 * int64(s[0])
			}
			det := track.Detection{Frame: frame, Class: classes[flags&1]}
			if flags&2 != 0 && len(refs) > 0 {
				src := &refs[int(s[2])%len(refs)].Track
				det.Box = src.BoxAt(frame).Translate(float64(s[3]&15)-1, float64(s[3]>>4)-1)
			} else {
				det.Box = fuzzBox(s[2], s[3], flags&8 != 0)
			}
			if flags>>5 == 7 {
				det.Box.X1 = math.NaN()
			}
			for _, obj := range refs {
				if !obj.Track.Covers(frame) {
					continue
				}
				box := obj.Track.BoxAt(frame)
				if geom.Overlap(&box, &det.Box) != (geom.IoU(box, det.Box) > 0) {
					t.Fatalf("Overlap(%+v, %+v) = %v, IoU %v", box, det.Box, geom.Overlap(&box, &det.Box), geom.IoU(box, det.Box))
				}
			}
			start := frame - 8*int64(s[6])
			tr := PredictedTrack{Start: start, End: start + 16*int64(s[7]), StartBox: det.Box, EndBox: det.Box}
			if flags&4 == 0 {
				tr.EndBox = fuzzBox(s[4], s[5], flags&8 != 0)
			}
			det = ext.script(det, tr)
			dets = append(dets, det)
			switch obj := naiveMatch(refs, thresh, frame, &det); {
			case obj == nil:
				wantNew = append(wantNew, len(refs))
				refs = append(refs, &Object{ID: len(refs), Class: det.Class, Track: tr, Sightings: 1, FirstDetection: det})
			case obj.Sightings == 1:
				wantSecond = append(wantSecond, obj.ID)
				obj.Sightings++
			default:
				obj.Sightings++
			}
		}
		if len(dets) > 0 {
			observe()
		}
	})
}

func objectIDs(objs []*Object) []int {
	ids := make([]int, len(objs))
	for i, o := range objs {
		ids[i] = o.ID
	}
	return ids
}

func objectName(o *Object) string {
	if o == nil {
		return "none"
	}
	return fmt.Sprintf("object %d", o.ID)
}

// TestMatchBoundaries pins match's answer at the edges the rejection
// pre-tests sit on: touching boxes, an IoU exactly at the threshold, equal
// IoUs, the other class and a NaN box.
func TestMatchBoundaries(t *testing.T) {
	sq := geom.Box{X1: 0, Y1: 0, X2: 2, Y2: 2}
	// The objects live over frames [0, 10] and [5, 20]; both are stationary
	// at sq, both are cars, and the first is discovered first.
	objects := []PredictedTrack{
		{Start: 0, End: 10, StartBox: sq, EndBox: sq},
		{Start: 5, End: 20, StartBox: sq, EndBox: sq},
	}
	cases := []struct {
		name  string
		frame int64
		class string
		box   geom.Box
		want  int // the matched object's ID, or -1 for none
	}{
		{"touching boxes do not match", 2, "car", geom.Box{X1: 2, Y1: 0, X2: 4, Y2: 2}, -1},
		{"touching at a corner does not match", 2, "car", geom.Box{X1: 2, Y1: 2, X2: 3, Y2: 3}, -1},
		{"IoU exactly at the threshold matches", 2, "car", geom.Box{X1: 0, Y1: 0, X2: 2, Y2: 1}, 0},
		{"IoU below the threshold does not match", 2, "car", geom.Box{X1: 0, Y1: 0, X2: 2, Y2: 0.5}, -1},
		{"of two equal IoUs the earlier-discovered wins", 7, "car", sq, 0},
		{"only the covering object matches", 15, "car", sq, 1},
		{"an identical box of the other class does not match", 7, "bus", sq, -1},
		{"a NaN box does not match", 7, "car", geom.Box{X1: math.NaN(), Y1: 0, X2: 2, Y2: 2}, -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ext := &idExtender{}
			d, err := New(ext, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range objects {
				d.newObject(ext.script(track.Detection{Class: "car", Box: sq}, tr))
			}
			det := track.Detection{Frame: c.frame, Class: c.class, Box: c.box}
			var want *Object
			if c.want >= 0 {
				want = d.Objects()[c.want]
			}
			got := d.match(d.load(c.frame, nil), &det)
			if got != want {
				t.Fatalf("match = %s, want %s", objectName(got), objectName(want))
			}
			if naive := naiveMatch(d.Objects(), d.iouThresh, c.frame, &det); naive != want {
				t.Fatalf("naive = %s, want %s", objectName(naive), objectName(want))
			}
			if ov, iou := geom.Overlap(&sq, &det.Box), geom.IoU(sq, det.Box); ov != (iou > 0) {
				t.Fatalf("Overlap = %v with IoU %v", ov, iou)
			}
		})
	}
}

// denseFrame builds a discriminator that knows n cars whose tracks cover
// the returned frame, each box one pixel right of the last so that every one
// overlaps dozens of others, plus n/10 cars in the same bucket whose tracks
// end before the frame. The frame's n detections are 2n/3 sightings of the
// first cars and n/3 buses, two to a box. In even pairs the first bus's
// track covers the frame and the second bus matches it; in odd pairs the
// first bus's track ends before the frame, so the second bus is new too,
// with a covering track. Either way a pair adds one covering object, so
// wantCands, the frame's candidates, is n plus the number of pairs.
func denseFrame(t testing.TB, n int) (d *Discriminator, frame int64, dets []track.Detection, wantCands int) {
	frame = 5000
	ext := &idExtender{}
	d, err := New(ext, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	car := func(i int) geom.Box { return geom.Rect(float64(i), 0, 100, 100) }
	for i := 0; i < n; i++ {
		// The track moves through car(i) at the frame, halfway along.
		tr := PredictedTrack{Start: frame - 100, End: frame + 100, StartBox: car(i).Translate(-10, 0), EndBox: car(i).Translate(10, 0)}
		d.newObject(ext.script(track.Detection{Frame: frame, Class: "car", Box: car(i)}, tr))
	}
	for i := 0; i < n/10; i++ {
		tr := PredictedTrack{Start: frame - 200, End: frame - 150, StartBox: car(i), EndBox: car(i)}
		d.newObject(ext.script(track.Detection{Frame: frame - 200, Class: "car", Box: car(i)}, tr))
	}
	cars, buses := 0, 0
	for i := 0; i < n; i++ {
		if i%3 != 2 {
			dets = append(dets, track.Detection{Frame: frame, Class: "car", Box: car(cars)})
			cars++
			continue
		}
		pair := buses / 2
		box := geom.Rect(float64(1000+200*pair), 0, 50, 50)
		tr := PredictedTrack{Start: frame - 10, End: frame + 10, StartBox: box, EndBox: box}
		if pair%2 == 1 && buses%2 == 0 {
			tr.Start, tr.End = frame-20, frame-10
		}
		dets = append(dets, ext.script(track.Detection{Frame: frame, Class: "bus", Box: box}, tr))
		buses++
	}
	return d, frame, dets, n + buses/2
}

// TestDenseFrameInterpolatesEachTrackOnce holds a frame with 300
// overlapping tracks and 300 detections to the per-frame cost: one box per
// covering track, plus one per covering object the frame's own detections
// create. Interpolating per detection would make about 300 × 300.
func TestDenseFrameInterpolatesEachTrackOnce(t *testing.T) {
	const n = 300
	d, frame, dets, wantCands := denseFrame(t, n)
	before := d.interpolated
	newObjs, secondObjs := d.ObserveObjects(frame, dets)
	if got := d.interpolated - before; got != wantCands {
		t.Fatalf("the frame interpolated %d boxes, want %d: one per covering track", got, wantCands)
	}
	// 200 cars each match their own box; of the 50 bus pairs, 25 are a new
	// bus and its second sighting, and 25 are two new buses.
	if len(newObjs) != 75 || len(secondObjs) != 225 {
		t.Fatalf("%d new objects and %d second sightings, want 75 and 225", len(newObjs), len(secondObjs))
	}
	cars := 0
	for _, obj := range secondObjs {
		if obj.Class == "car" {
			if obj.ID != cars {
				t.Fatalf("car detection %d matched object %d", cars, obj.ID)
			}
			cars++
		}
	}
}

// BenchmarkObserveDenseFrame observes frames of Figure 3's densest cell
// (2 000 instances of mean duration 4 900 frames, 95 % of them centred in
// 1/256 of 2 M frames: about 1 200 visible per frame) through a perfect
// detector, once every object is known. What a frame costs there is the
// detections × covering tracks box compares.
func BenchmarkObserveDenseFrame(b *testing.B) {
	const numFrames = 2_000_000
	instances, err := synth.Generate(synth.GridSpec{NumInstances: 2000, NumFrames: numFrames, SkewFraction: 1.0 / 256, MeanDuration: 4900, Seed: 1647})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := track.NewIndex(instances, numFrames, 0)
	if err != nil {
		b.Fatal(err)
	}
	ext, err := NewTruthExtender(idx, 1)
	if err != nil {
		b.Fatal(err)
	}
	d, err := New(ext, 0)
	if err != nil {
		b.Fatal(err)
	}
	detector, err := detect.Perfect(idx)
	if err != nil {
		b.Fatal(err)
	}
	frames := make([]int64, 32)
	dets := make([][]track.Detection, len(frames))
	total := 0
	for i := range frames {
		frames[i] = numFrames/2 + 97*int64(i)
		dets[i] = append([]track.Detection(nil), detector.Detect(frames[i])...)
		total += len(dets[i])
		d.ObserveObjects(frames[i], dets[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(frames)
		d.ObserveObjects(frames[k], dets[k])
	}
	b.ReportMetric(float64(total)/float64(len(frames)), "dets/frame")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())*float64(len(frames))/float64(b.N)/float64(total), "ns/det")
}
