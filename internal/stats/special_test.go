package stats

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/exsample/exsample/internal/xrand"
)

func TestGammaPKnownValues(t *testing.T) {
	// P(1, x) = 1 - e^{-x} (exponential CDF).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		want := 1 - math.Exp(-x)
		if got := GammaP(1, x); math.Abs(got-want) > 1e-10 {
			t.Errorf("GammaP(1, %v) = %v, want %v", x, got, want)
		}
	}
	// P(a, 0) = 0.
	if got := GammaP(3, 0); got != 0 {
		t.Errorf("GammaP(3, 0) = %v", got)
	}
	// P(0.5, x) = erf(sqrt(x)).
	for _, x := range []float64{0.25, 1, 4} {
		want := math.Erf(math.Sqrt(x))
		if got := GammaP(0.5, x); math.Abs(got-want) > 1e-10 {
			t.Errorf("GammaP(0.5, %v) = %v, want %v", x, got, want)
		}
	}
}

func TestGammaPMonotonic(t *testing.T) {
	f := func(rawA, rawX1, rawX2 uint16) bool {
		a := float64(rawA%1000)/100 + 0.01
		x1 := float64(rawX1) / 100
		x2 := float64(rawX2) / 100
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		p1, p2 := GammaP(a, x1), GammaP(a, x2)
		return p1 <= p2+1e-12 && p1 >= 0 && p2 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestGammaPQComplementary(t *testing.T) {
	for _, c := range []struct{ a, x float64 }{{0.1, 0.5}, {2, 3}, {50, 40}, {50, 60}} {
		if got := GammaP(c.a, c.x) + GammaQ(c.a, c.x); math.Abs(got-1) > 1e-10 {
			t.Errorf("P+Q at (%v,%v) = %v", c.a, c.x, got)
		}
	}
}

func TestGammaPPanics(t *testing.T) {
	for _, c := range []struct{ a, x float64 }{{0, 1}, {-1, 1}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("GammaP(%v,%v) did not panic", c.a, c.x)
				}
			}()
			GammaP(c.a, c.x)
		}()
	}
}

func TestGammaQuantileRoundTrip(t *testing.T) {
	for _, c := range []struct{ alpha, beta float64 }{{0.1, 1}, {1, 1}, {5, 2}, {100, 50}} {
		for _, p := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
			x, err := GammaQuantile(p, c.alpha, c.beta)
			if err != nil {
				t.Fatalf("GammaQuantile(%v, %v, %v): %v", p, c.alpha, c.beta, err)
			}
			got := GammaP(c.alpha, c.beta*x)
			if math.Abs(got-p) > 1e-8 {
				t.Errorf("round trip (%v,%v) p=%v: CDF(quantile) = %v", c.alpha, c.beta, p, got)
			}
		}
	}
}

func TestGammaQuantileMatchesSampling(t *testing.T) {
	// The 0.9 quantile should exceed ~90% of random draws.
	g := xrand.New(5)
	alpha, beta := 2.5, 3.0
	q, err := GammaQuantile(0.9, alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	below := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if g.Gamma(alpha, beta) <= q {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.9) > 0.01 {
		t.Fatalf("fraction below 0.9-quantile = %v", frac)
	}
}

func TestGammaQuantileErrors(t *testing.T) {
	for _, c := range []struct{ p, a, b float64 }{{0, 1, 1}, {1, 1, 1}, {0.5, 0, 1}, {0.5, 1, 0}} {
		if _, err := GammaQuantile(c.p, c.a, c.b); err == nil {
			t.Errorf("GammaQuantile(%v,%v,%v) accepted", c.p, c.a, c.b)
		}
	}
}

// TestGammaQInvRoundTrip: Q(a, GammaQInv(a, q)) returns q to 1e-10
// relative error across the shapes the sampler meets (α0 = 0.1 up to tens
// of results) and tails from the far upper end to the bulk.
func TestGammaQInvRoundTrip(t *testing.T) {
	alphas := []float64{0.05, 0.1, 0.3, 0.5, 0.9, 1, 1.1, 2.1, 5, 10.1, 30, 64}
	qs := []float64{1e-15, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999}
	for _, a := range alphas {
		for _, q := range qs {
			x, err := GammaQInv(a, q)
			if err != nil {
				t.Fatalf("GammaQInv(%v, %v): %v", a, q, err)
			}
			if got := GammaQ(a, x); math.Abs(got-q) > 1e-10*q {
				t.Errorf("GammaQ(%v, GammaQInv(%v, %v) = %v) = %v, relative error %.3g", a, a, q, x, got, math.Abs(got-q)/q)
			}
		}
	}
}

// TestGammaQInvDeepTail: in log space the inverse stays exact far below the
// rounding unit of 1 - P.
func TestGammaQInvDeepTail(t *testing.T) {
	for _, a := range []float64{0.1, 1, 20} {
		for _, q := range []float64{1e-30, 1e-100, 1e-300} {
			x, err := GammaQInv(a, q)
			if err != nil {
				t.Fatalf("GammaQInv(%v, %v): %v", a, q, err)
			}
			lg, _ := math.Lgamma(a)
			if got := logGammaQ(a, x, lg); math.Abs(got-math.Log(q)) > 1e-10*math.Abs(math.Log(q)) {
				t.Errorf("log Q(%v, %v) = %v, want %v", a, x, got, math.Log(q))
			}
		}
	}
}

// TestGammaQInvTinyShape: shapes far below the sampler's prior still give
// a finite, non-negative inverse, even where the root underflows to 0, and
// an exact one where the asymptotic starting guess (tail -log q - log Γ(a)
// just above 2.5) would step below zero.
func TestGammaQInvTinyShape(t *testing.T) {
	for _, a := range []float64{1e-3, 1e-2} {
		for _, q := range []float64{1e-12, 1e-6, 0.01, 0.5, 0.999} {
			x, err := GammaQInv(a, q)
			if err != nil || !(x >= 0) || math.IsInf(x, 0) {
				t.Errorf("GammaQInv(%v, %v) = %v, %v", a, q, x, err)
			}
		}
		lg, _ := math.Lgamma(a)
		q := math.Exp(-lg - 2.51)
		x, err := GammaQInv(a, q)
		if err != nil {
			t.Fatal(err)
		}
		if got := GammaQ(a, x); math.Abs(got-q) > 1e-10*q {
			t.Errorf("GammaQ(%v, GammaQInv(%v, %v) = %v) = %v", a, a, q, x, got)
		}
	}
}

// TestGammaQInvMatchesQuantile: the upper-tail inverse and the bisection
// quantile agree on the same point of the distribution.
func TestGammaQInvMatchesQuantile(t *testing.T) {
	for _, a := range []float64{0.1, 1, 5} {
		for _, p := range []float64{0.1, 0.5, 0.9} {
			want, err := GammaQuantile(p, a, 1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := GammaQInv(a, 1-p)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-9*want {
				t.Errorf("GammaQInv(%v, %v) = %v, GammaQuantile = %v", a, 1-p, got, want)
			}
		}
	}
}

func TestGammaQInvErrors(t *testing.T) {
	for _, c := range []struct{ a, q float64 }{
		{0, 0.5}, {-1, 0.5}, {math.Inf(1), 0.5}, {math.NaN(), 0.5},
		{1, 0}, {1, 1}, {1, -0.1}, {1, 1.5}, {1, math.NaN()},
	} {
		if _, err := GammaQInv(c.a, c.q); err == nil {
			t.Errorf("GammaQInv(%v, %v) accepted", c.a, c.q)
		}
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{3, 1, 2, 5, 4}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}} {
		got, err := Percentile(vals, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Input must not be reordered.
	if vals[0] != 3 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	got, err := Percentile([]float64{0, 10}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2.5 {
		t.Errorf("interpolated percentile = %v", got)
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 0.5); err == nil {
		t.Error("empty slice accepted")
	}
	if _, err := Percentile([]float64{1}, -0.1); err == nil {
		t.Error("negative level accepted")
	}
	if _, err := Percentile([]float64{1}, 1.1); err == nil {
		t.Error("level > 1 accepted")
	}
}

func TestMedianSingleValue(t *testing.T) {
	got, err := Median([]float64{7})
	if err != nil || got != 7 {
		t.Fatalf("Median([7]) = %v, %v", got, err)
	}
}

func TestGeoMean(t *testing.T) {
	got, err := GeoMean([]float64{1, 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("GeoMean(1,100) = %v", got)
	}
	if _, err := GeoMean([]float64{1, 0}); err == nil {
		t.Error("zero value accepted")
	}
	if _, err := GeoMean(nil); err == nil {
		t.Error("empty slice accepted")
	}
}

func TestMean(t *testing.T) {
	m, err := Mean([]float64{2, 4, 6})
	if err != nil || m != 4 {
		t.Fatalf("Mean = %v, %v", m, err)
	}
	if _, err := Mean(nil); err == nil {
		t.Error("Mean(nil) accepted")
	}
}

// logGammaPShapes are the shapes the LogGammaP tests sweep: from far below
// the sampler's prior α0 = 0.1 to a chunk with a thousand results.
var logGammaPShapes = []float64{1e-3, 0.1, 0.5, 1, 10, 1e3}

// TestLogGammaPAgrees: LogGammaP is log(GammaP) on the series side and
// log1p(-GammaQ) on the continued-fraction side, from x = 1e-300 to a+60
// and on both sides of the x = a+1 boundary. Where P underflows it
// follows the series' leading terms, log P = a log x - x - log Γ(a+1)
// + log1p(x/(a+1)) to second order in x.
func TestLogGammaPAgrees(t *testing.T) {
	for _, a := range logGammaPShapes {
		var xs []float64
		for e := -300.0; e <= 0; e += 10 {
			xs = append(xs, math.Pow(10, e))
		}
		for x := 0.25; x < a+60; x *= 1.5 {
			xs = append(xs, x)
		}
		xs = append(xs, math.Nextafter(a+1, 0), a+1, math.Nextafter(a+1, math.Inf(1)), a+1-1e-9, a+1+1e-9, a+60)
		for _, x := range xs {
			got := LogGammaP(a, x)
			if !(got <= 0) || math.IsInf(got, 0) {
				t.Fatalf("LogGammaP(%v, %v) = %v, want finite and <= 0", a, x, got)
			}
			var want float64
			switch {
			case x >= a+1:
				want = math.Log1p(-GammaQ(a, x))
			case x <= 1e-10:
				lg1, _ := math.Lgamma(a + 1)
				want = a*math.Log(x) - x - lg1 + math.Log1p(x/(a+1))
			default:
				want = math.Log(GammaP(a, x))
			}
			if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
				t.Errorf("LogGammaP(%v, %v) = %v, want %v", a, x, got, want)
			}
		}
	}
}

func TestLogGammaPAtZero(t *testing.T) {
	for _, a := range logGammaPShapes {
		if got := LogGammaP(a, 0); !math.IsInf(got, -1) {
			t.Errorf("LogGammaP(%v, 0) = %v, want -Inf", a, got)
		}
	}
	for _, c := range []struct{ a, x float64 }{{0, 1}, {-1, 1}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LogGammaP(%v,%v) did not panic", c.a, c.x)
				}
			}()
			LogGammaP(c.a, c.x)
		}()
	}
}

// TestLogGammaPDecidesLikeInversion: the maximum of k Gamma(a, 1) draws
// taken at uniform U, GammaQInv(a, 1 - U^(1/k)), exceeds b exactly when
// k·LogGammaP(a, b) < log U. The two decisions agree wherever the maximum
// and b differ by more than 1e-9 relative; b is put at relative distances
// from 1e-6 to e^3 of the maximum, so many cases sit near the boundary.
func TestLogGammaPDecidesLikeInversion(t *testing.T) {
	g := xrand.New(17)
	compared, above := 0, 0
	for i := 0; i < 20000; i++ {
		a := math.Pow(10, -3+5*g.Float64())
		k := 1 + g.IntN(2000)
		u := g.Float64()
		if u == 0 {
			continue
		}
		lu := math.Log(u)
		x, err := GammaQInv(a, -math.Expm1(lu/float64(k)))
		if err != nil {
			t.Fatal(err)
		}
		b := x * math.Exp(g.Normal(0, math.Pow(10, -6+6*g.Float64())))
		if math.Abs(x-b) <= 1e-9*math.Max(x, b) {
			continue
		}
		compared++
		want := x > b
		if want {
			above++
		}
		if got := float64(k)*LogGammaP(a, b) < lu; got != want {
			t.Errorf("a=%v k=%d U=%v: maximum %v > b=%v is %v, probability space says %v", a, k, u, x, b, want, got)
		}
	}
	if compared < 15000 || above < compared/4 || above > 3*compared/4 {
		t.Fatalf("%d decisions compared, %d above: the sweep does not straddle the boundary", compared, above)
	}
}

// FuzzLogGammaP compares LogGammaP with log(GammaP) and log1p(-GammaQ)
// on arbitrary shapes in (0, 1e4] and arguments in [0, 1e4].
func FuzzLogGammaP(f *testing.F) {
	f.Add(0.1, 0.5)
	f.Add(1e-3, 1e-300)
	f.Add(10.0, 11.0)
	f.Add(1e3, 1060.0)
	f.Fuzz(func(t *testing.T, a, x float64) {
		a, x = math.Abs(a), math.Abs(x)
		if !(a > 0 && a <= 1e4 && x <= 1e4) {
			return
		}
		got := LogGammaP(a, x)
		if x == 0 {
			if !math.IsInf(got, -1) {
				t.Fatalf("LogGammaP(%v, 0) = %v, want -Inf", a, got)
			}
			return
		}
		if !(got <= 0) || math.IsInf(got, 0) {
			t.Fatalf("LogGammaP(%v, %v) = %v, want finite and <= 0", a, x, got)
		}
		want := math.Log1p(-GammaQ(a, x))
		if p := GammaP(a, x); x < a+1 {
			if p < 1e-280 {
				return // underflowed: only the log-space result is exact
			}
			want = math.Log(p)
		}
		if math.Abs(got-want) > 1e-10*math.Max(1, math.Abs(want)) {
			t.Fatalf("LogGammaP(%v, %v) = %v, want %v", a, x, got, want)
		}
	})
}
