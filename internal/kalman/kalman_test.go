package kalman

import (
	"math"
	"testing"

	"github.com/exsample/exsample/internal/geom"
	"github.com/exsample/exsample/internal/xrand"
)

func TestNewFilter1DValidation(t *testing.T) {
	if _, err := NewFilter1D(0, 0, 1); err == nil {
		t.Error("q=0 accepted")
	}
	if _, err := NewFilter1D(0, 1, -1); err == nil {
		t.Error("negative r accepted")
	}
}

func TestFilter1DConvergesToConstant(t *testing.T) {
	f, err := NewFilter1D(0, 0.01, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		f.Predict(1)
		f.Update(50)
	}
	if math.Abs(f.X-50) > 0.5 {
		t.Fatalf("X = %v, want ~50", f.X)
	}
	if math.Abs(f.V) > 0.2 {
		t.Fatalf("V = %v, want ~0", f.V)
	}
}

func TestFilter1DTracksRamp(t *testing.T) {
	// Measurements move at 3 units/frame; velocity estimate must converge.
	f, err := NewFilter1D(0, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 300; i++ {
		f.Predict(1)
		f.Update(float64(i) * 3)
	}
	if math.Abs(f.V-3) > 0.3 {
		t.Fatalf("V = %v, want ~3", f.V)
	}
	if math.Abs(f.X-900) > 5 {
		t.Fatalf("X = %v, want ~900", f.X)
	}
}

func TestFilter1DSmoothsNoise(t *testing.T) {
	rng := xrand.New(7)
	f, err := NewFilter1D(100, 0.05, 25)
	if err != nil {
		t.Fatal(err)
	}
	var errSum float64
	const n = 500
	for i := 0; i < n; i++ {
		f.Predict(1)
		f.Update(100 + rng.Normal(0, 5))
		if i > 50 {
			errSum += math.Abs(f.X - 100)
		}
	}
	meanErr := errSum / (n - 51)
	// Raw measurements have mean abs error ~4; the filter should do much
	// better.
	if meanErr > 2 {
		t.Fatalf("mean filtered error = %v", meanErr)
	}
}

func TestFilter1DPredictGrowsUncertainty(t *testing.T) {
	f, err := NewFilter1D(0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := f.Pxx
	f.Predict(5)
	if f.Pxx <= before {
		t.Fatalf("Pxx did not grow on predict: %v -> %v", before, f.Pxx)
	}
	pre := f.Pxx
	f.Update(0)
	if f.Pxx >= pre {
		t.Fatalf("Pxx did not shrink on update: %v -> %v", pre, f.Pxx)
	}
}

func TestBoxFilterValidation(t *testing.T) {
	if _, err := NewBoxFilter(geom.Box{X1: 5, X2: 0}, 0, 0); err == nil {
		t.Error("invalid box accepted")
	}
}

func TestBoxFilterTracksMovingBox(t *testing.T) {
	bf, err := NewBoxFilter(geom.Rect(0, 0, 40, 60), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The box moves right 5 px/frame.
	for i := 1; i <= 100; i++ {
		bf.Predict(1)
		bf.Update(geom.Rect(float64(i)*5, 0, 40, 60))
	}
	// Prediction 10 frames ahead should land near x = 110*5 = 550.
	pred := bf.Predict(10)
	cx, _ := pred.Center()
	wantCX := 110*5 + 20.0
	if math.Abs(cx-wantCX) > 15 {
		t.Fatalf("predicted cx = %v, want ~%v", cx, wantCX)
	}
	vx, vy := bf.cx.V, bf.cy.V
	if math.Abs(vx-5) > 0.5 || math.Abs(vy) > 0.5 {
		t.Fatalf("velocity = (%v, %v), want (~5, ~0)", vx, vy)
	}
}

func TestBoxFilterStaysValid(t *testing.T) {
	bf, err := NewBoxFilter(geom.Rect(10, 10, 5, 5), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Feed shrinking measurements; the estimate must remain a valid box.
	for i := 0; i < 50; i++ {
		bf.Predict(1)
		bf.Update(geom.Rect(10, 10, 0.5, 0.5))
		if !bf.Box().Valid() {
			t.Fatalf("box became invalid at step %d: %+v", i, bf.Box())
		}
	}
}

func TestBoxFilterIoUWithTruthHigh(t *testing.T) {
	// Jittered measurements of a drifting box: filtered IoU with the true
	// box should stay high.
	rng := xrand.New(11)
	truth := func(i int) geom.Box { return geom.Rect(100+2*float64(i), 50+float64(i), 80, 120) }
	bf, err := NewBoxFilter(truth(0), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64 = 1
	for i := 1; i <= 200; i++ {
		bf.Predict(1)
		tb := truth(i)
		noisy := tb.Translate(rng.Normal(0, 3), rng.Normal(0, 3))
		bf.Update(noisy)
		if i > 20 {
			if iou := geom.IoU(bf.Box(), tb); iou < worst {
				worst = iou
			}
		}
	}
	if worst < 0.75 {
		t.Fatalf("worst filtered IoU = %v", worst)
	}
}
