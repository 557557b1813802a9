package metrics

import (
	"math"
	"testing"

	"github.com/exsample/exsample/internal/geom"
	"github.com/exsample/exsample/internal/track"
	"github.com/exsample/exsample/internal/video"
)

func TestRecallCurveBasics(t *testing.T) {
	rc, err := NewRecallCurve(4)
	if err != nil {
		t.Fatal(err)
	}
	rc.Observe([]int{0})
	rc.Observe([]int{0})    // repeat: no growth
	rc.Observe([]int{-1})   // false positive: ignored
	rc.Observe([]int{1, 2}) // two at once
	if rc.DistinctFound() != 3 {
		t.Fatalf("DistinctFound = %d", rc.DistinctFound())
	}
	if got := rc.Recall(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("Recall = %v", got)
	}
}

func TestNewRecallCurveValidation(t *testing.T) {
	if _, err := NewRecallCurve(-1); err == nil {
		t.Error("negative instances accepted")
	}
	// Zero is legal: a standing query can start before its class has any
	// population; recall reads 0 until SetTotal grows the denominator.
	rc, err := NewRecallCurve(0)
	if err != nil {
		t.Fatalf("zero instances rejected: %v", err)
	}
	if got := rc.Recall(); got != 0 {
		t.Errorf("empty-population recall = %v, want 0", got)
	}
	rc.Observe([]int{0})
	rc.SetTotal(2)
	if got := rc.Recall(); got != 0.5 {
		t.Errorf("recall after SetTotal = %v, want 0.5", got)
	}
}

func TestSavings(t *testing.T) {
	s, err := Savings(60, 10)
	if err != nil || s != 6 {
		t.Fatalf("Savings = %v, %v", s, err)
	}
	if _, err := Savings(0, 1); err == nil {
		t.Error("zero baseline accepted")
	}
	if _, err := Savings(1, 0); err == nil {
		t.Error("zero exsample accepted")
	}
}

func TestNewBand(t *testing.T) {
	b, err := NewBand([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if b.Median != 3 || b.P25 != 2 || b.P75 != 4 {
		t.Fatalf("band = %+v", b)
	}
	if _, err := NewBand(nil); err == nil {
		t.Error("empty band accepted")
	}
}

func mkInst(id int, start, end int64) track.Instance {
	return track.Instance{ID: id, Class: "c", Start: start, End: end,
		StartBox: geom.Rect(0, 0, 1, 1), EndBox: geom.Rect(0, 0, 1, 1)}
}

func TestChunkHistogram(t *testing.T) {
	chunks, err := video.SplitRange(0, 100, 4) // 25 frames each
	if err != nil {
		t.Fatal(err)
	}
	instances := []track.Instance{
		mkInst(0, 0, 10),  // chunk 0
		mkInst(1, 20, 30), // chunks 0 and 1
		mkInst(2, 80, 99), // chunk 3
	}
	h := ChunkHistogram(instances, chunks)
	want := []int{2, 1, 0, 1}
	for j := range want {
		if h[j] != want[j] {
			t.Fatalf("histogram = %v, want %v", h, want)
		}
	}
}

func TestSkewMetricUniform(t *testing.T) {
	// 8 chunks, equal counts: half the mass needs 4 chunks -> S = 1.
	s, err := SkewMetric([]int{5, 5, 5, 5, 5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Fatalf("uniform S = %v", s)
	}
}

func TestSkewMetricConcentrated(t *testing.T) {
	// 8 chunks, everything in one chunk: k = 1 -> S = 4.
	s, err := SkewMetric([]int{40, 0, 0, 0, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if s != 4 {
		t.Fatalf("concentrated S = %v", s)
	}
	k, err := MinChunksForHalf([]int{40, 0, 0, 0, 0, 0, 0, 0})
	if err != nil || k != 1 {
		t.Fatalf("k = %d, %v", k, err)
	}
}

func TestSkewMetricErrors(t *testing.T) {
	if _, err := SkewMetric(nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := SkewMetric([]int{0, 0}); err == nil {
		t.Error("all-zero accepted")
	}
	if _, err := SkewMetric([]int{-1, 2}); err == nil {
		t.Error("negative accepted")
	}
}
