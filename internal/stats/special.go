// Package stats provides the special functions and summary statistics the
// reproduction needs: the regularized incomplete gamma function (for
// Gamma-distribution CDFs and quantiles used by the Bayes-UCB policy,
// §III-C), and percentile / geometric-mean helpers used by the evaluation
// (§V reports medians, 25–75% bands and geometric-mean savings).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// GammaP returns the regularized lower incomplete gamma function P(a, x) =
// γ(a, x) / Γ(a), the CDF of a Gamma(a, 1) random variable evaluated at x.
// It uses the series expansion for x < a+1 and the continued fraction
// otherwise (Numerical Recipes §6.2).
func GammaP(a, x float64) float64 {
	if a <= 0 {
		panic("stats: GammaP requires a > 0")
	}
	if x < 0 {
		panic("stats: GammaP requires x >= 0")
	}
	if x == 0 {
		return 0
	}
	lg, _ := math.Lgamma(a)
	if x < a+1 {
		return gammaSeries(a, x) * math.Exp(-x+a*math.Log(x)-lg)
	}
	return 1 - math.Exp(-x+a*math.Log(x)-lg)*gammaContinuedFraction(a, x)
}

// LogGammaP returns log P(a, x), the log of GammaP, and -Inf at x = 0. The
// series side works in log space, so it stays finite where P underflows;
// the continued-fraction side returns log1p(-Q), so it keeps its precision
// as P approaches 1.
func LogGammaP(a, x float64) float64 {
	if a <= 0 {
		panic("stats: LogGammaP requires a > 0")
	}
	if x < 0 {
		panic("stats: LogGammaP requires x >= 0")
	}
	if x == 0 {
		return math.Inf(-1)
	}
	lg, _ := math.Lgamma(a)
	if x < a+1 {
		return math.Log(gammaSeries(a, x)) - x + a*math.Log(x) - lg
	}
	return math.Log1p(-math.Exp(-x+a*math.Log(x)-lg) * gammaContinuedFraction(a, x))
}

// GammaQ returns the regularized upper incomplete gamma function
// Q(a, x) = 1 - P(a, x). Where the continued fraction applies it returns
// that tail directly, so Q keeps its relative precision when it is far
// below the rounding unit of 1 - P.
func GammaQ(a, x float64) float64 {
	if x >= a+1 && a > 0 {
		lg, _ := math.Lgamma(a)
		return math.Exp(-x+a*math.Log(x)-lg) * gammaContinuedFraction(a, x)
	}
	return 1 - GammaP(a, x)
}

// logGammaQ returns log Q(a, x) for x > 0, given lg = log Γ(a), without
// leaving log space on the continued-fraction side.
func logGammaQ(a, x, lg float64) float64 {
	if x < a+1 {
		return math.Log1p(-gammaSeries(a, x) * math.Exp(-x+a*math.Log(x)-lg))
	}
	return -x + a*math.Log(x) - lg + math.Log(gammaContinuedFraction(a, x))
}

const (
	gammaIterMax = 500
	gammaEps     = 3e-14
)

// gammaSeries returns the sum of the series for P(a, x), which is P divided
// by the prefactor x^a e^-x / Γ(a).
func gammaSeries(a, x float64) float64 {
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < gammaIterMax; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			break
		}
	}
	return sum
}

// gammaContinuedFraction returns the Lentz evaluation of the continued
// fraction for Q(a, x), which is Q divided by the prefactor x^a e^-x / Γ(a).
func gammaContinuedFraction(a, x float64) float64 {
	const fpmin = 1e-300
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i <= gammaIterMax; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			break
		}
	}
	return h
}

// GammaQInv returns x such that Q(a, x) = q: the upper-tail inverse of the
// regularized incomplete gamma function, which is the (1-q) quantile of a
// Gamma(a, 1) variable. It runs Halley's method on log Q(a, x) - log q in
// log x, inside a bracket that falls back to bisection in log x whenever a
// step would leave it. Working in logs keeps tails as small as q = 1e-300
// at full relative precision, where 1 - P has long since rounded to zero.
// a must be positive and finite and q must lie in (0, 1).
func GammaQInv(a, q float64) (float64, error) {
	if !(a > 0) || math.IsInf(a, 1) {
		return 0, fmt.Errorf("stats: GammaQInv requires a finite a > 0 (a=%v)", a)
	}
	if !(q > 0 && q < 1) {
		return 0, fmt.Errorf("stats: GammaQInv tail %v outside (0,1)", q)
	}
	lq := math.Log(q)
	lg, _ := math.Lgamma(a)
	x := gammaQInvGuess(a, q, lq, lg)
	lo, hi := 0.0, math.Inf(1)
	for i := 0; i < 100; i++ {
		lQ := logGammaQ(a, x, lg)
		f := lQ - lq
		if f == 0 {
			break
		}
		if f > 0 {
			lo = x // Q is decreasing: the tail is still too heavy here
		} else {
			hi = x
		}
		// In u = log x: f' = -x^a e^-x / (Γ(a) Q) and f'' = f'(a - x - f'),
		// so a Halley step costs no more evaluations than a Newton one.
		d1 := -math.Exp(a*math.Log(x) - x - lg - lQ)
		d2 := d1 * (a - x - d1)
		step := -f / d1
		if h := 1 + step*d2/(2*d1); h > 0.5 {
			step /= h // Halley; near the root h → 1
		}
		step = math.Max(-8, math.Min(8, step))
		next := x * math.Exp(step)
		// Convergence is cubic, so a step this small leaves an error far
		// below the evaluation's own rounding.
		if math.Abs(step) <= 1e-5 {
			return next, nil
		}
		if !(next > lo && next < hi) {
			// A step leaves the bracket only toward a finite positive end.
			next = math.Sqrt(lo * hi)
		}
		x = next
	}
	return x, nil
}

// gammaQInvGuess is the starting point of GammaQInv: for a < 1.5 and a
// tail that puts x well above 1, a few fixed-point steps on the asymptotic
// Q(a, x) ≈ x^(a-1) e^-x (1 + (a-1)/x) / Γ(a); otherwise Numerical Recipes
// §6.2.1's invgammp guesses rewritten for the upper tail — Wilson–Hilferty
// for a > 1, the small-x power law or the exponential tail below.
func gammaQInvGuess(a, q, lq, lg float64) float64 {
	if x := -lq - lg; a < 1.5 && x > 2.5 {
		for i := 0; i < 2 && x > 1; i++ {
			x = -lq - lg + (a-1)*math.Log(x) + math.Log1p((a-1)/x)
		}
		if x > 1 {
			return x
		}
	}
	var x float64
	if a > 1 {
		lpp := lq // log of the smaller tail
		if q > 0.5 {
			lpp = math.Log1p(-q)
		}
		t := math.Sqrt(-2 * lpp)
		z := (2.30753+t*0.27061)/(1+t*(0.99229+t*0.04481)) - t // ≈ Φ⁻¹(min(q, 1-q))
		if q > 0.5 {
			z = -z
		}
		w := 1 - 1/(9*a) - z/(3*math.Sqrt(a))
		x = math.Max(1e-3, a*w*w*w)
	} else {
		t := 1 - a*(0.253+a*0.12)
		if p := 1 - q; p < t {
			x = math.Exp((math.Log(p) - math.Log(t)) / a)
		} else {
			x = 1 - lq + math.Log(1-t)
		}
	}
	return math.Max(x, 1e-300)
}

// GammaQuantile returns x such that P(alpha, beta*x) = p for a
// Gamma(alpha, beta) distribution in the shape/rate parameterization. It
// inverts the CDF by bisection; p must be in (0, 1).
func GammaQuantile(p, alpha, beta float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("stats: quantile level %v outside (0,1)", p)
	}
	if alpha <= 0 || beta <= 0 {
		return 0, fmt.Errorf("stats: Gamma parameters must be positive (alpha=%v beta=%v)", alpha, beta)
	}
	// Bracket the root in Gamma(alpha, 1) space.
	lo, hi := 0.0, alpha+1
	for GammaP(alpha, hi) < p {
		hi *= 2
		if hi > 1e12 {
			return 0, fmt.Errorf("stats: quantile bracket overflow (p=%v alpha=%v)", p, alpha)
		}
	}
	// Bisect to relative precision: quantiles at small alpha and small p can
	// be far below 1 (e.g. ~1e-21 for alpha=0.1, p=0.01), so an absolute
	// tolerance would stop long before the root.
	for i := 0; i < 400; i++ {
		mid := (lo + hi) / 2
		if GammaP(alpha, mid) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-14*hi {
			break
		}
	}
	return (lo + hi) / 2 / beta, nil
}

// Percentile returns the q-th percentile (q in [0, 1]) of the values using
// linear interpolation between order statistics. The input is not modified.
func Percentile(values []float64, q float64) (float64, error) {
	if len(values) == 0 {
		return 0, fmt.Errorf("stats: percentile of empty slice")
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: percentile level %v outside [0,1]", q)
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the 50th percentile.
func Median(values []float64) (float64, error) { return Percentile(values, 0.5) }

// GeoMean returns the geometric mean of strictly positive values.
func GeoMean(values []float64) (float64, error) {
	if len(values) == 0 {
		return 0, fmt.Errorf("stats: geometric mean of empty slice")
	}
	sum := 0.0
	for _, v := range values {
		if v <= 0 {
			return 0, fmt.Errorf("stats: geometric mean requires positive values, got %v", v)
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(values))), nil
}

// Mean returns the arithmetic mean.
func Mean(values []float64) (float64, error) {
	if len(values) == 0 {
		return 0, fmt.Errorf("stats: mean of empty slice")
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values)), nil
}
