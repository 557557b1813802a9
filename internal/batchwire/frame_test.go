package batchwire

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"github.com/exsample/exsample/backend"
)

// detectionsFrom derives detections from fuzz bytes, 48 bytes apiece: five
// raw float64 bit patterns (NaN and infinities included), then a class
// choice, a frame offset and a truth id.
func detectionsFrom(data []byte, class string, frame int64) []backend.Detection {
	var dets []backend.Detection
	for ; len(data) >= 48; data = data[48:] {
		f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])) }
		d := backend.Detection{
			Frame:   frame + int64(int8(data[41]))*int64(data[42]),
			Class:   class,
			Box:     backend.Box{X1: f(0), Y1: f(1), X2: f(2), Y2: f(3)},
			Score:   f(4),
			TruthID: int(int32(binary.LittleEndian.Uint32(data[44:]))),
		}
		if data[40]&1 == 1 {
			d.Class = string(data[43:44])
		}
		dets = append(dets, d)
	}
	return dets
}

// FuzzFrameRoundTrip pins the frame's two contracts. Encoding detections
// and decoding them back is the identity, floats bit for bit, each entry a
// cap-clipped window of one slab; a NaN or an infinity is refused by the
// encoder. And decoding arbitrary bytes never panics, and never allocates a
// slab beyond what the body's length bounds.
func FuzzFrameRoundTrip(f *testing.F) {
	conforming := make([]byte, 0, 96)
	for _, v := range []float64{1, 2.5, 0.1 + 0.2, 1e-17, 0.93} {
		conforming = binary.LittleEndian.AppendUint64(conforming, math.Float64bits(v))
	}
	conforming = append(conforming, 1, 0xff, 3, 'x', 7, 0, 0, 0)
	conforming = append(conforming, conforming...)
	nonFinite := binary.LittleEndian.AppendUint64(append([]byte(nil), conforming[8:48]...), math.Float64bits(math.Inf(-1)))
	f.Add(conforming, "car", int64(17))
	f.Add(conforming[:48], "", int64(0))
	f.Add(nonFinite, "car", int64(math.MaxInt64))
	f.Add([]byte{Version, 1, 1, 0, 0}, "car", int64(-1))
	f.Add([]byte{Version, 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 0}, "car", int64(3))
	f.Add([]byte{Version, 1, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, "car", int64(3))
	f.Add([]byte{}, "car", int64(0))
	f.Fuzz(func(t *testing.T, data []byte, class string, frame int64) {
		// Arbitrary bytes, read as a frame of detection lists.
		r := NewReader(data)
		r.Slab()
		if len(r.slab)*MinDetectionBytes > len(data) {
			t.Fatalf("a %d-byte body allocated a %d-detection slab", len(data), len(r.slab))
		}
		for r.Err() == nil && len(r.buf) > 0 {
			r.Detections(class, frame)
		}
		_ = r.Done()

		// Detections derived from the bytes, split over two entries.
		dets := detectionsFrom(data, class, frame)
		half := len(dets) / 2
		b := binary.AppendUvarint([]byte{Version}, uint64(len(dets)))
		b, err := AppendDetections(b, dets[:half], class, frame)
		if err == nil {
			b, err = AppendDetections(b, dets[half:], class, frame+1)
		}
		finite := true
		for _, d := range dets {
			for _, v := range [5]float64{d.Box.X1, d.Box.Y1, d.Box.X2, d.Box.Y2, d.Score} {
				finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
			}
		}
		if !finite {
			if !errors.Is(err, errNonFinite) {
				t.Fatalf("encoding a non-finite float: err = %v", err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		r = NewReader(b)
		r.Slab()
		first, second := r.Detections(class, frame), r.Detections(class, frame+1)
		if err := r.Done(); err != nil {
			t.Fatalf("decoding what was encoded: %v", err)
		}
		got := append(append([]backend.Detection(nil), first...), second...)
		if len(got) != len(dets) || cap(first) != len(first) || cap(second) != len(second) {
			t.Fatalf("decoded %d+%d detections (caps %d, %d), encoded %d+%d", len(first), len(second), cap(first), cap(second), half, len(dets)-half)
		}
		for i, d := range dets {
			g := got[i]
			if g.Frame != d.Frame || g.Class != d.Class || g.TruthID != d.TruthID ||
				math.Float64bits(g.Score) != math.Float64bits(d.Score) ||
				math.Float64bits(g.Box.X1) != math.Float64bits(d.Box.X1) || math.Float64bits(g.Box.Y1) != math.Float64bits(d.Box.Y1) ||
				math.Float64bits(g.Box.X2) != math.Float64bits(d.Box.X2) || math.Float64bits(g.Box.Y2) != math.Float64bits(d.Box.Y2) {
				t.Fatalf("detection %d: decoded %+v, encoded %+v", i, g, d)
			}
		}
	})
}
