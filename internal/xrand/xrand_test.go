package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestNewFromStreamsIndependent(t *testing.T) {
	a := NewFrom(7, 0)
	b := NewFrom(7, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams from same seed produced %d/100 identical draws", same)
	}
}

// moments estimates sample mean and variance of n draws.
func moments(n int, draw func() float64) (mean, variance float64) {
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := draw()
		sum += x
		sumsq += x * x
	}
	mean = sum / float64(n)
	variance = sumsq/float64(n) - mean*mean
	return mean, variance
}

func TestGammaMoments(t *testing.T) {
	cases := []struct{ alpha, beta float64 }{
		{0.1, 1}, {0.5, 2}, {1, 1}, {2, 0.5}, {5, 3}, {100, 10},
	}
	g := New(123)
	for _, c := range cases {
		wantMean := c.alpha / c.beta
		wantVar := c.alpha / (c.beta * c.beta)
		mean, variance := moments(200000, func() float64 { return g.Gamma(c.alpha, c.beta) })
		if relErr(mean, wantMean) > 0.03 {
			t.Errorf("Gamma(%v,%v) mean = %v, want ~%v", c.alpha, c.beta, mean, wantMean)
		}
		if relErr(variance, wantVar) > 0.10 {
			t.Errorf("Gamma(%v,%v) variance = %v, want ~%v", c.alpha, c.beta, variance, wantVar)
		}
	}
}

func TestGammaPositive(t *testing.T) {
	g := New(5)
	for i := 0; i < 10000; i++ {
		if x := g.Gamma(0.1, 1); x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("Gamma(0.1,1) produced %v", x)
		}
	}
}

func TestGammaPanicsOnBadParams(t *testing.T) {
	g := New(1)
	for _, c := range []struct{ a, b float64 }{{0, 1}, {1, 0}, {-1, 1}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Gamma(%v,%v) did not panic", c.a, c.b)
				}
			}()
			g.Gamma(c.a, c.b)
		}()
	}
}

func TestLogNormalMeanCV(t *testing.T) {
	g := New(99)
	for _, c := range []struct{ mean, cv float64 }{{700, 1.5}, {14, 1}, {4900, 2}} {
		mu, sigma := LogNormalMeanCV(c.mean, c.cv)
		m, v := moments(400000, func() float64 { return g.LogNormal(mu, sigma) })
		if relErr(m, c.mean) > 0.05 {
			t.Errorf("LogNormal(mean=%v,cv=%v): sample mean %v", c.mean, c.cv, m)
		}
		wantSD := c.cv * c.mean
		if relErr(math.Sqrt(v), wantSD) > 0.20 {
			t.Errorf("LogNormal(mean=%v,cv=%v): sample sd %v want ~%v", c.mean, c.cv, math.Sqrt(v), wantSD)
		}
	}
}

func TestLogNormalMeanCVPanics(t *testing.T) {
	for _, c := range []struct{ mean, cv float64 }{{0, 1}, {-1, 1}, {1, 0}, {1, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LogNormalMeanCV(%v,%v) did not panic", c.mean, c.cv)
				}
			}()
			LogNormalMeanCV(c.mean, c.cv)
		}()
	}
}

func TestPoissonMoments(t *testing.T) {
	g := New(77)
	for _, lambda := range []float64{0.5, 3, 10, 29, 35, 100, 1000} {
		mean, variance := moments(100000, func() float64 { return float64(g.Poisson(lambda)) })
		if math.Abs(mean-lambda) > 4*math.Sqrt(lambda/100000)+0.05*lambda/10 {
			if relErr(mean, lambda) > 0.02 {
				t.Errorf("Poisson(%v) mean = %v", lambda, mean)
			}
		}
		if relErr(variance, lambda) > 0.08 {
			t.Errorf("Poisson(%v) variance = %v", lambda, variance)
		}
	}
}

func TestPoissonZero(t *testing.T) {
	g := New(3)
	if got := g.Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d", got)
	}
}

func TestPoissonNonNegativeProperty(t *testing.T) {
	g := New(8)
	f := func(raw uint16) bool {
		lambda := float64(raw) / 100.0 // 0 .. ~655
		k := g.Poisson(lambda)
		return k >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestWeightedIndexProportions(t *testing.T) {
	g := New(21)
	weights := []float64{1, 2, 0, 7}
	counts := make([]int, len(weights))
	const n = 100000
	for i := 0; i < n; i++ {
		counts[g.WeightedIndex(weights)]++
	}
	if counts[2] != 0 {
		t.Errorf("zero-weight index sampled %d times", counts[2])
	}
	total := 10.0
	for i, w := range weights {
		want := float64(n) * w / total
		if w > 0 && math.Abs(float64(counts[i])-want) > 5*math.Sqrt(want) {
			t.Errorf("index %d drawn %d times, want ~%v", i, counts[i], want)
		}
	}
}

func TestWeightedIndexPanics(t *testing.T) {
	g := New(1)
	for _, weights := range [][]float64{{}, {0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WeightedIndex(%v) did not panic", weights)
				}
			}()
			g.WeightedIndex(weights)
		}()
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	g := New(31)
	f := func(raw uint8) bool {
		n := int(raw%64) + 1
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		g.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalMoments(t *testing.T) {
	g := New(61)
	mean, variance := moments(200000, func() float64 { return g.Normal(5, 2) })
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("Normal(5,2) mean = %v", mean)
	}
	if relErr(variance, 4) > 0.05 {
		t.Errorf("Normal(5,2) variance = %v", variance)
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}
