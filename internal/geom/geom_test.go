package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func box(vals ...float64) Box { return Box{X1: vals[0], Y1: vals[1], X2: vals[2], Y2: vals[3]} }

func TestRect(t *testing.T) {
	b := Rect(10, 20, 30, 40)
	if b.X1 != 10 || b.Y1 != 20 || b.X2 != 40 || b.Y2 != 60 {
		t.Fatalf("Rect = %+v", b)
	}
	if b.Width() != 30 || b.Height() != 40 {
		t.Fatalf("dims = %v x %v", b.Width(), b.Height())
	}
}

func TestAreaAndValidity(t *testing.T) {
	if a := box(0, 0, 2, 3).Area(); a != 6 {
		t.Errorf("area = %v", a)
	}
	if box(2, 0, 0, 3).Valid() {
		t.Error("inverted box reported valid")
	}
	if a := box(2, 0, 0, 3).Area(); a != 0 {
		t.Errorf("invalid box area = %v", a)
	}
	if (Box{X1: math.NaN(), Y1: 0, X2: 1, Y2: 1}).Valid() {
		t.Error("NaN box reported valid")
	}
}

func TestIoUIdentical(t *testing.T) {
	b := box(5, 5, 15, 25)
	if got := IoU(b, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("IoU(b,b) = %v", got)
	}
}

func TestIoUDisjoint(t *testing.T) {
	if got := IoU(box(0, 0, 1, 1), box(2, 2, 3, 3)); got != 0 {
		t.Fatalf("disjoint IoU = %v", got)
	}
	// Touching edges share zero area.
	if got := IoU(box(0, 0, 1, 1), box(1, 0, 2, 1)); got != 0 {
		t.Fatalf("edge-touching IoU = %v", got)
	}
}

func TestIoUHalfOverlap(t *testing.T) {
	// Two unit-height boxes overlapping half their width: inter=0.5, union=1.5.
	got := IoU(box(0, 0, 1, 1), box(0.5, 0, 1.5, 1))
	if math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("IoU = %v, want 1/3", got)
	}
}

func TestIoUZeroAreaBoxes(t *testing.T) {
	if got := IoU(box(1, 1, 1, 1), box(1, 1, 1, 1)); got != 0 {
		t.Fatalf("degenerate IoU = %v", got)
	}
}

func genBox(v [4]float64) Box {
	// Map arbitrary floats into a bounded, valid box.
	norm := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return math.Mod(math.Abs(x), 1000)
	}
	x1, y1 := norm(v[0]), norm(v[1])
	w, h := norm(v[2])+0.001, norm(v[3])+0.001
	return Box{X1: x1, Y1: y1, X2: x1 + w, Y2: y1 + h}
}

func TestIoUProperties(t *testing.T) {
	// Symmetry and range, for arbitrary valid boxes.
	f := func(a, b [4]float64) bool {
		ba, bb := genBox(a), genBox(b)
		ab := IoU(ba, bb)
		ba2 := IoU(bb, ba)
		if math.Abs(ab-ba2) > 1e-12 {
			return false
		}
		return ab >= 0 && ab <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestIntersectionContainedInUnion(t *testing.T) {
	f := func(a, b [4]float64) bool {
		ba, bb := genBox(a), genBox(b)
		inter := ba.Intersect(bb)
		union := ba.Union(bb)
		if inter.Valid() && inter.Area() > 0 {
			// Intersection fits inside both, union contains both.
			if inter.Area() > ba.Area()+1e-9 || inter.Area() > bb.Area()+1e-9 {
				return false
			}
		}
		return union.Area() >= ba.Area()-1e-9 && union.Area() >= bb.Area()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestLerpEndpointsAndMidpoint(t *testing.T) {
	a := box(0, 0, 10, 10)
	b := box(100, 50, 120, 80)
	if got := Lerp(a, b, 0); got != a {
		t.Errorf("Lerp t=0 = %+v", got)
	}
	if got := Lerp(a, b, 1); got != b {
		t.Errorf("Lerp t=1 = %+v", got)
	}
	mid := Lerp(a, b, 0.5)
	want := box(50, 25, 65, 45)
	if mid != want {
		t.Errorf("Lerp t=0.5 = %+v, want %+v", mid, want)
	}
}

func TestLerpPreservesValidity(t *testing.T) {
	f := func(a, b [4]float64, traw uint8) bool {
		tt := float64(traw) / 255.0
		return Lerp(genBox(a), genBox(b), tt).Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestTranslate(t *testing.T) {
	b := box(1, 2, 3, 4).Translate(10, -1)
	if b != box(11, 1, 13, 3) {
		t.Fatalf("Translate = %+v", b)
	}
}

func TestScale(t *testing.T) {
	b := box(0, 0, 10, 10).Scale(2)
	if b != box(-5, -5, 15, 15) {
		t.Fatalf("Scale(2) = %+v", b)
	}
	if got := box(0, 0, 10, 10).Scale(1); got != box(0, 0, 10, 10) {
		t.Fatalf("Scale(1) changed box: %+v", got)
	}
	// Scaling preserves the center.
	s := box(3, 7, 13, 27).Scale(0.3)
	cx, cy := s.Center()
	if math.Abs(cx-8) > 1e-9 || math.Abs(cy-17) > 1e-9 {
		t.Fatalf("center moved: %v,%v", cx, cy)
	}
}

func TestClip(t *testing.T) {
	b := box(-5, -5, 2000, 500).Clip(1920, 1080)
	if b != box(0, 0, 1920, 500) {
		t.Fatalf("Clip = %+v", b)
	}
	if !b.Valid() {
		t.Fatal("clipped box invalid")
	}
}

func TestCenter(t *testing.T) {
	cx, cy := box(0, 0, 4, 10).Center()
	if cx != 2 || cy != 5 {
		t.Fatalf("Center = %v,%v", cx, cy)
	}
}

// TestOverlapIsIoUPositive checks Overlap's contract, IoU > 0 ⟺ Overlap,
// on every pair of boxes with corners on a 4-point grid (inverted and
// zero-area boxes included, touching edges and corners among them), and
// with a NaN in each coordinate.
func TestOverlapIsIoUPositive(t *testing.T) {
	var boxes []Box
	for c := 0; c < 4*4*4*4; c++ {
		boxes = append(boxes, box(float64(c&3), float64(c>>2&3), float64(c>>4&3), float64(c>>6&3)))
	}
	for _, a := range boxes {
		for _, b := range boxes {
			if got, want := Overlap(&a, &b), IoU(a, b) > 0; got != want {
				t.Fatalf("Overlap(%+v, %+v) = %v, IoU %v", a, b, got, IoU(a, b))
			}
		}
	}
	full, n := box(0, 0, 3, 3), math.NaN()
	for _, bad := range []Box{box(n, 0, 3, 3), box(0, n, 3, 3), box(0, 0, n, 3), box(0, 0, 3, n)} {
		if Overlap(&bad, &full) || Overlap(&full, &bad) {
			t.Errorf("Overlap true for %+v", bad)
		}
	}
}
