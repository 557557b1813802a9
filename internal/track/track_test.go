package track

import (
	"testing"
	"testing/quick"

	"github.com/exsample/exsample/internal/geom"
)

func inst(id int, class string, start, end int64) Instance {
	return Instance{
		ID:       id,
		Class:    class,
		Start:    start,
		End:      end,
		StartBox: geom.Rect(0, 0, 10, 10),
		EndBox:   geom.Rect(100, 100, 10, 10),
	}
}

func TestDuration(t *testing.T) {
	if d := inst(1, "car", 5, 5).Duration(); d != 1 {
		t.Errorf("single-frame duration = %d", d)
	}
	if d := inst(1, "car", 5, 14).Duration(); d != 10 {
		t.Errorf("duration = %d", d)
	}
	if d := (Instance{Start: 10, End: 5}).Duration(); d != 0 {
		t.Errorf("inverted duration = %d", d)
	}
}

func TestVisibleAt(t *testing.T) {
	in := inst(1, "car", 10, 20)
	for _, c := range []struct {
		f    int64
		want bool
	}{{9, false}, {10, true}, {15, true}, {20, true}, {21, false}} {
		if got := in.VisibleAt(c.f); got != c.want {
			t.Errorf("VisibleAt(%d) = %v", c.f, got)
		}
	}
}

func TestBoxAtInterpolation(t *testing.T) {
	in := inst(1, "car", 0, 10)
	if b := in.BoxAt(0); b != in.StartBox {
		t.Errorf("BoxAt(start) = %+v", b)
	}
	if b := in.BoxAt(10); b != in.EndBox {
		t.Errorf("BoxAt(end) = %+v", b)
	}
	mid := in.BoxAt(5)
	if mid.X1 != 50 || mid.Y1 != 50 {
		t.Errorf("BoxAt(mid) = %+v", mid)
	}
	// Clamped outside the interval.
	if b := in.BoxAt(-5); b != in.StartBox {
		t.Errorf("BoxAt(before) = %+v", b)
	}
	if b := in.BoxAt(99); b != in.EndBox {
		t.Errorf("BoxAt(after) = %+v", b)
	}
}

func TestBoxAtSingleFrame(t *testing.T) {
	in := inst(1, "car", 7, 7)
	if b := in.BoxAt(7); b != in.StartBox {
		t.Errorf("single-frame BoxAt = %+v", b)
	}
}

func TestValidate(t *testing.T) {
	good := inst(1, "car", 0, 10)
	if err := good.Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	bad := []Instance{
		{ID: 1, Class: "car", Start: 10, End: 5, StartBox: geom.Rect(0, 0, 1, 1), EndBox: geom.Rect(0, 0, 1, 1)},
		{ID: 2, Class: "car", Start: -1, End: 5, StartBox: geom.Rect(0, 0, 1, 1), EndBox: geom.Rect(0, 0, 1, 1)},
		{ID: 3, Class: "", Start: 0, End: 5, StartBox: geom.Rect(0, 0, 1, 1), EndBox: geom.Rect(0, 0, 1, 1)},
		{ID: 4, Class: "car", Start: 0, End: 5, StartBox: geom.Box{X1: 5, X2: 0}, EndBox: geom.Rect(0, 0, 1, 1)},
	}
	for _, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("instance %d accepted, want error", in.ID)
		}
	}
}

func TestIndexBasicLookup(t *testing.T) {
	instances := []Instance{
		inst(0, "car", 0, 99),
		inst(1, "car", 50, 149),
		inst(2, "bus", 60, 60),
		inst(3, "car", 5000, 6000),
	}
	idx, err := NewIndex(instances, 10000, 64)
	if err != nil {
		t.Fatal(err)
	}
	got := idx.At(60, nil)
	if len(got) != 3 {
		t.Fatalf("At(60) returned %d instances", len(got))
	}
	got = idx.AtClass(60, "car", nil)
	if len(got) != 2 {
		t.Fatalf("AtClass(60, car) returned %d instances", len(got))
	}
	if got := idx.At(200, nil); len(got) != 0 {
		t.Fatalf("At(200) returned %d instances", len(got))
	}
	if got := idx.At(5500, nil); len(got) != 1 || got[0].ID != 3 {
		t.Fatalf("At(5500) = %+v", got)
	}
}

func TestIndexOutOfRange(t *testing.T) {
	idx, err := NewIndex([]Instance{inst(0, "car", 0, 10)}, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.At(-1, nil); len(got) != 0 {
		t.Errorf("At(-1) = %v", got)
	}
	if got := idx.At(100, nil); len(got) != 0 {
		t.Errorf("At(numFrames) = %v", got)
	}
}

func TestIndexClipsToRepository(t *testing.T) {
	// Instance extends past the end of the repository; lookups inside work.
	idx, err := NewIndex([]Instance{inst(0, "car", 90, 500)}, 100, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.At(95, nil); len(got) != 1 {
		t.Fatalf("At(95) = %v", got)
	}
}

func TestIndexRejectsBadInput(t *testing.T) {
	if _, err := NewIndex(nil, 0, 0); err == nil {
		t.Error("NewIndex with 0 frames accepted")
	}
	if _, err := NewIndex([]Instance{{ID: 1, Start: 5, End: 1}}, 100, 0); err == nil {
		t.Error("NewIndex with invalid instance accepted")
	}
}

func TestIndexMatchesBruteForce(t *testing.T) {
	// Property: index lookups agree with a brute-force scan for arbitrary
	// intervals.
	f := func(raws [8][2]uint16, probe uint16) bool {
		const numFrames = 4096
		var instances []Instance
		for i, r := range raws {
			a := int64(r[0]) % numFrames
			b := int64(r[1]) % numFrames
			if a > b {
				a, b = b, a
			}
			instances = append(instances, inst(i, "car", a, b))
		}
		idx, err := NewIndex(instances, numFrames, 32)
		if err != nil {
			return false
		}
		frame := int64(probe) % numFrames
		got := idx.At(frame, nil)
		want := 0
		for _, in := range instances {
			if in.VisibleAt(frame) {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCountByClass(t *testing.T) {
	counts := CountByClass([]Instance{
		inst(0, "car", 0, 1), inst(1, "car", 2, 3), inst(2, "bus", 4, 5),
	})
	if counts["car"] != 2 || counts["bus"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestFilterClass(t *testing.T) {
	in := []Instance{inst(0, "car", 0, 1), inst(1, "bus", 2, 3), inst(2, "car", 4, 5)}
	cars := FilterClass(in, "car")
	if len(cars) != 2 || cars[0].ID != 0 || cars[1].ID != 2 {
		t.Fatalf("FilterClass = %+v", cars)
	}
	if got := FilterClass(in, "dog"); got != nil {
		t.Fatalf("FilterClass(dog) = %+v", got)
	}
}

func TestAtReusesBuffer(t *testing.T) {
	idx, err := NewIndex([]Instance{inst(0, "car", 0, 10)}, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]*Instance, 0, 8)
	got := idx.At(5, buf)
	if len(got) != 1 {
		t.Fatalf("got %d", len(got))
	}
	if got[0] != &idx.Instances()[0] {
		t.Fatal("At copied the instance instead of pointing into the index")
	}
	got2 := idx.At(5, got[:0])
	if len(got2) != 1 || &got2[0] != &got[0] {
		t.Fatal("buffer was not reused")
	}
}
