package sim

import (
	"math"
	"testing"

	"github.com/exsample/exsample/internal/xrand"
)

func TestGeometricMean(t *testing.T) {
	rng := xrand.New(1)
	for _, p := range []float64{0.5, 0.1, 0.01} {
		var sum float64
		const n = 50000
		for i := 0; i < n; i++ {
			sum += float64(geometric(p, rng))
		}
		mean := sum / n
		want := 1 / p
		if math.Abs(mean-want)/want > 0.05 {
			t.Errorf("geometric(%v) mean = %v, want %v", p, mean, want)
		}
	}
}

func TestGeometricSupport(t *testing.T) {
	rng := xrand.New(2)
	for i := 0; i < 10000; i++ {
		if g := geometric(0.9, rng); g < 1 {
			t.Fatalf("geometric < 1: %d", g)
		}
	}
}

func TestSimulateAppearancesOrdering(t *testing.T) {
	pis := []float64{0.5, 0.01, 0.001}
	app, err := SimulateAppearances(pis, 1_000_000, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range pis {
		if app.T1[i] < 1 {
			t.Fatalf("T1[%d] = %d < 1", i, app.T1[i])
		}
		if app.T2[i] <= app.T1[i] {
			t.Fatalf("T2[%d]=%d <= T1[%d]=%d", i, app.T2[i], i, app.T1[i])
		}
	}
}

func TestSimulateAppearancesHorizon(t *testing.T) {
	// A very rare instance with a tiny horizon should usually be "never".
	pis := []float64{1e-9}
	app, err := SimulateAppearances(pis, 10, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if app.T1[0] != never {
		t.Fatalf("T1 = %d, want never", app.T1[0])
	}
	if app.T2[0] != never {
		t.Fatalf("T2 = %d, want never", app.T2[0])
	}
}

func TestSimulateAppearancesValidation(t *testing.T) {
	if _, err := SimulateAppearances(nil, 10, xrand.New(1)); err == nil {
		t.Error("no instances accepted")
	}
	if _, err := SimulateAppearances([]float64{0.5}, 0, xrand.New(1)); err == nil {
		t.Error("zero horizon accepted")
	}
	for _, p := range []float64{0, 1, -0.5, 1.5} {
		if _, err := SimulateAppearances([]float64{p}, 10, xrand.New(1)); err == nil {
			t.Errorf("p=%v accepted", p)
		}
	}
}

func TestN1AndSeenAndRNext(t *testing.T) {
	pis := []float64{0.1, 0.2, 0.3}
	app := Appearances{
		T1: []int64{5, 10, never},
		T2: []int64{8, never, never},
	}
	// After 6 samples: instance 0 seen once (T1=5<=6<T2=8).
	if got := app.N1(6); got != 1 {
		t.Errorf("N1(6) = %d", got)
	}
	// After 9: instance 0 seen twice, instance 1 not yet.
	if got := app.N1(9); got != 0 {
		t.Errorf("N1(9) = %d", got)
	}
	// After 12: instance 1 seen once.
	if got := app.N1(12); got != 1 {
		t.Errorf("N1(12) = %d", got)
	}
	// R(7): unseen = instances 1 and 2 -> 0.2 + 0.3.
	if got := app.RNext(pis, 6); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("RNext(6) = %v", got)
	}
	// R after everything findable is found.
	if got := app.RNext(pis, 20); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("RNext(20) = %v", got)
	}
}

// The core estimator property (Eq. III.1 / Theorem "Bias of R̂"): averaged
// over runs, N1(n)/n is close to (and not below) E[R(n+1)], with positive
// bias bounded by max p_i relative to the estimate.
func TestEstimatorBiasBound(t *testing.T) {
	pis := []float64{0.02, 0.005, 0.01, 0.001, 0.003, 0.03, 0.0005, 0.008, 0.015, 0.002}
	maxP := 0.03
	const runs = 4000
	const n = 200
	var sumEst, sumR float64
	for r := 0; r < runs; r++ {
		app, err := SimulateAppearances(pis, n+1, xrand.NewFrom(77, uint64(r)))
		if err != nil {
			t.Fatal(err)
		}
		sumEst += float64(app.N1(n)) / float64(n)
		sumR += app.RNext(pis, n)
	}
	est := sumEst / runs
	r := sumR / runs
	bias := (est - r) / est
	// Left inequality: bias >= 0 (allow Monte Carlo slack).
	if bias < -0.05 {
		t.Errorf("bias = %v, want non-negative (est=%v, R=%v)", bias, est, r)
	}
	// Right inequality: bias <= max p (with Monte Carlo slack).
	if bias > maxP+0.05 {
		t.Errorf("bias = %v exceeds max p bound %v", bias, maxP)
	}
}

// Variance bound (Eq. III.3): Var[N1/n] <= E[N1/n]/n.
func TestEstimatorVarianceBound(t *testing.T) {
	pis := []float64{0.02, 0.005, 0.01, 0.001, 0.003, 0.03, 0.0005, 0.008, 0.015, 0.002}
	const runs = 4000
	const n = 300
	var sum, sumsq float64
	for r := 0; r < runs; r++ {
		app, err := SimulateAppearances(pis, n, xrand.NewFrom(99, uint64(r)))
		if err != nil {
			t.Fatal(err)
		}
		est := float64(app.N1(n)) / float64(n)
		sum += est
		sumsq += est * est
	}
	mean := sum / runs
	variance := sumsq/runs - mean*mean
	bound := mean / float64(n)
	if variance > bound*1.15 { // slack for Monte Carlo error
		t.Errorf("variance %v exceeds bound %v", variance, bound)
	}
}

func TestCollectBeliefSamples(t *testing.T) {
	pis := []float64{0.05, 0.01, 0.002}
	samples, err := CollectBeliefSamples(pis, []int64{10, 100}, 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 100 {
		t.Fatalf("got %d samples", len(samples))
	}
	for _, s := range samples {
		if s.N != 10 && s.N != 100 {
			t.Fatalf("unexpected probe %d", s.N)
		}
		if s.N1 < 0 || s.N1 > 3 {
			t.Fatalf("N1 = %d out of range", s.N1)
		}
		if s.R < 0 || s.R > 0.062+1e-12 {
			t.Fatalf("R = %v out of range", s.R)
		}
	}
}

func TestCollectBeliefSamplesValidation(t *testing.T) {
	pis := []float64{0.5}
	if _, err := CollectBeliefSamples(pis, []int64{10}, 0, 1); err == nil {
		t.Error("zero runs accepted")
	}
	if _, err := CollectBeliefSamples(pis, nil, 1, 1); err == nil {
		t.Error("no probes accepted")
	}
	if _, err := CollectBeliefSamples(pis, []int64{0}, 1, 1); err == nil {
		t.Error("zero probe accepted")
	}
}
