package baseline

import (
	"testing"

	"github.com/exsample/exsample/internal/geom"
	"github.com/exsample/exsample/internal/track"
)

func mkIndex(t *testing.T, numFrames int64, intervals ...[2]int64) *track.Index {
	t.Helper()
	var instances []track.Instance
	for i, iv := range intervals {
		instances = append(instances, track.Instance{
			ID: i, Class: "car", Start: iv[0], End: iv[1],
			StartBox: geom.Rect(0, float64(i)*200, 50, 50),
			EndBox:   geom.Rect(100, float64(i)*200, 50, 50),
		})
	}
	idx, err := track.NewIndex(instances, numFrames, 0)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestPerfectProxyRanksPositivesFirst(t *testing.T) {
	// Frames 100..199 contain the object out of 1000 frames total.
	idx := mkIndex(t, 1000, [2]int64{100, 199})
	order, err := NewProxyOrder(NewProxyScorer(idx, "car", 7).Score, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if order.ScannedFrames != 1000 {
		t.Fatalf("ScannedFrames = %d", order.ScannedFrames)
	}
	// The first 100 emitted frames must all be positives.
	for i := 0; i < 100; i++ {
		f, ok := order.Next()
		if !ok {
			t.Fatal("order exhausted early")
		}
		if f < 100 || f > 199 {
			t.Fatalf("emission %d = frame %d, want a positive frame", i, f)
		}
	}
	// The 101st cannot be a positive (only 100 exist).
	f, ok := order.Next()
	if !ok || (f >= 100 && f <= 199) {
		t.Fatalf("emission 100 = %d", f)
	}
}

func TestProxyOrderIsPermutation(t *testing.T) {
	idx := mkIndex(t, 500, [2]int64{50, 80})
	order, err := NewProxyOrder(NewProxyScorer(idx, "car", 9).Score, 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	for {
		f, ok := order.Next()
		if !ok {
			break
		}
		if f < 0 || f >= 500 || seen[f] {
			t.Fatalf("bad emission %d", f)
		}
		seen[f] = true
	}
	if len(seen) != 500 {
		t.Fatalf("emitted %d frames", len(seen))
	}
	if order.Remaining() != 0 {
		t.Fatalf("Remaining = %d", order.Remaining())
	}
}

func TestProxyOrderValidation(t *testing.T) {
	idx := mkIndex(t, 100)
	if _, err := NewProxyOrder(nil, 0, 100); err == nil {
		t.Error("nil scorer accepted")
	}
	if _, err := NewProxyOrder(NewProxyScorer(idx, "car", 1).Score, 50, 50); err == nil {
		t.Error("empty range accepted")
	}
}

func TestScoreClassFiltering(t *testing.T) {
	instances := []track.Instance{
		{ID: 0, Class: "car", Start: 0, End: 49, StartBox: geom.Rect(0, 0, 1, 1), EndBox: geom.Rect(0, 0, 1, 1)},
		{ID: 1, Class: "bus", Start: 50, End: 99, StartBox: geom.Rect(0, 0, 1, 1), EndBox: geom.Rect(0, 0, 1, 1)},
	}
	idx, err := track.NewIndex(instances, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	scorer := NewProxyScorer(idx, "bus", 2)
	if s := scorer.Score(25); s >= 1 {
		t.Fatalf("car-only frame scored %v for bus query", s)
	}
	if s := scorer.Score(75); s < 1 {
		t.Fatalf("bus frame scored %v", s)
	}
}
