package discrim

import (
	"fmt"
	"math"
	"testing"

	"github.com/exsample/exsample/internal/geom"
	"github.com/exsample/exsample/internal/track"
)

// scriptExtender returns whatever track the test set last, so a test
// controls every object's interval and boxes independently of its
// discovering detection.
type scriptExtender struct{ next PredictedTrack }

func (e *scriptExtender) Extend(track.Detection) PredictedTrack { return e.next }

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
func naiveMatch(d *Discriminator, frame int64, det *track.Detection) *Object {
	var best *Object
	bestIoU := 0.0
	for _, obj := range d.Objects() {
		if obj.Class != det.Class || !obj.Track.Covers(frame) {
			continue
		}
		iou := geom.IoU(naiveBoxAt(obj.Track, frame), det.Box)
		if iou >= d.iouThresh && iou > bestIoU {
			best = obj
			bestIoU = iou
		}
	}
	return best
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

// FuzzMatchAgainstNaive runs a scripted sequence of detections through a
// discriminator and checks, before each is registered, that match returns
// exactly naiveMatch's object. Scanning every object also checks that the
// bucket index never hides a covering one. Each step also checks geom.Overlap's
// contract on every covering candidate: Overlap ⟺ IoU > 0.
//
// The first byte picks the threshold; each following 8-byte step decodes:
//
//	0    frame = 17·b, spanning four 1024-frame buckets
//	1    flags: bit 0 class (car or bus); bit 1 take the detection's box from
//	     an existing object's predicted box (byte 2 picks it) shifted by
//	     byte 3's nibbles minus 1; bit 2 stationary track; bit 3 keep
//	     inverted corners; bits 5–7 all set put a NaN in the detection box
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
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1+fuzzStep {
			t.Skip("need a threshold byte and one step")
		}
		ext := &scriptExtender{}
		d, err := New(ext, fuzzThresholds[int(data[0])%len(fuzzThresholds)])
		if err != nil {
			t.Fatal(err)
		}
		classes := [2]string{"car", "bus"}
		for s := data[1:]; len(s) >= fuzzStep; s = s[fuzzStep:] {
			frame := 17 * int64(s[0])
			flags := s[1]
			det := track.Detection{Frame: frame, Class: classes[flags&1]}
			if objs := d.Objects(); flags&2 != 0 && len(objs) > 0 {
				src := &objs[int(s[2])%len(objs)].Track
				det.Box = src.BoxAt(frame).Translate(float64(s[3]&15)-1, float64(s[3]>>4)-1)
			} else {
				det.Box = fuzzBox(s[2], s[3], flags&8 != 0)
			}
			if flags>>5 == 7 {
				det.Box.X1 = math.NaN()
			}
			for _, obj := range d.Objects() {
				if !obj.Track.Covers(frame) {
					continue
				}
				box := obj.Track.BoxAt(frame)
				if geom.Overlap(&box, &det.Box) != (geom.IoU(box, det.Box) > 0) {
					t.Fatalf("Overlap(%+v, %+v) = %v, IoU %v", box, det.Box, geom.Overlap(&box, &det.Box), geom.IoU(box, det.Box))
				}
			}
			if got, want := d.match(frame, &det), naiveMatch(d, frame, &det); got != want {
				t.Fatalf("frame %d, %s %+v: match = %s, naive = %s", frame, det.Class, det.Box, objectName(got), objectName(want))
			}
			start := frame - 8*int64(s[6])
			ext.next = PredictedTrack{Start: start, End: start + 16*int64(s[7]), StartBox: det.Box, EndBox: det.Box}
			if flags&4 == 0 {
				ext.next.EndBox = fuzzBox(s[4], s[5], flags&8 != 0)
			}
			d.ObserveObjects(frame, []track.Detection{det})
		}
	})
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
			ext := &scriptExtender{}
			d, err := New(ext, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range objects {
				ext.next = tr
				d.newObject(track.Detection{Class: "car", Box: sq})
			}
			det := track.Detection{Frame: c.frame, Class: c.class, Box: c.box}
			var want *Object
			if c.want >= 0 {
				want = d.Objects()[c.want]
			}
			got := d.match(c.frame, &det)
			if got != want {
				t.Fatalf("match = %s, want %s", objectName(got), objectName(want))
			}
			if naive := naiveMatch(d, c.frame, &det); naive != want {
				t.Fatalf("naive = %s, want %s", objectName(naive), objectName(want))
			}
			if ov, iou := geom.Overlap(&sq, &det.Box), geom.IoU(sq, det.Box); ov != (iou > 0) {
				t.Fatalf("Overlap = %v with IoU %v", ov, iou)
			}
		})
	}
}
