// Package xrand provides deterministic pseudo-random number generation and
// the non-uniform distributions used throughout the ExSample reproduction:
// Gamma (for Thompson sampling of chunk beliefs), LogNormal (object
// durations), Poisson (N1 sampling distribution, paper §III-B), Beta and
// Normal (placement skew).
//
// All generators are seeded explicitly so experiments are reproducible; the
// package never touches global math/rand state.
package xrand

import (
	"math"
	"math/bits"
	"math/rand/v2"
)

// RNG is a deterministic random source with helpers for the distributions
// the paper relies on. It draws from a math/rand/v2 PCG generator held by
// value, so an RNG embedded in another struct (a per-chunk frame order, for
// example) can be seeded in place without allocating — the hot path of a
// sampler that lazily opens thousands of chunk orders.
//
// The uniform draws (Float64, IntN, Int64N, Shuffle, ...) are implemented
// directly over the PCG with the exact algorithms math/rand/v2 uses, so the
// streams are bit-identical to the previous *rand.Rand-backed
// implementation; the ziggurat-based helpers (Normal, Exp) lazily wrap the
// same PCG in a rand.Rand. An RNG must not be copied after first use.
type RNG struct {
	src rand.PCG
	r   *rand.Rand // lazily wraps &src for NormFloat64/ExpFloat64
}

// New returns an RNG seeded with the given seed. The same seed always
// produces the same stream.
func New(seed uint64) *RNG {
	g := &RNG{}
	g.src.Seed(seed, seed^0x9e3779b97f4a7c15)
	return g
}

// NewFrom returns an RNG seeded from two words, for deriving independent
// streams (e.g. one per trial) from a base seed.
func NewFrom(seed, stream uint64) *RNG {
	g := &RNG{}
	g.SeedFrom(seed, stream)
	return g
}

// SeedFrom reseeds g in place to the exact stream NewFrom(seed, stream)
// produces. A zero RNG is ready to be seeded this way, which lets callers
// embed the generator by value instead of allocating one per stream.
func (g *RNG) SeedFrom(seed, stream uint64) {
	g.src.Seed(seed, stream*0x9e3779b97f4a7c15+0x2545f4914f6cdd1d)
}

// rand lazily wraps the PCG in a rand.Rand for the distribution helpers the
// standard library implements with large ziggurat tables. The wrapper and
// the inline draws share one underlying stream, so interleaving them is
// exactly equivalent to routing everything through rand.Rand.
func (g *RNG) rand() *rand.Rand {
	if g.r == nil {
		g.r = rand.New(&g.src)
	}
	return g.r
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 {
	// There are exactly 1<<53 float64s in [0,1); same construction as
	// rand.Rand.Float64.
	return float64(g.src.Uint64()<<11>>11) / (1 << 53)
}

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (g *RNG) IntN(n int) int {
	if n <= 0 {
		panic("xrand: IntN requires n > 0")
	}
	return int(g.uint64n(uint64(n)))
}

// Int64N returns a uniform value in [0, n). It panics if n <= 0.
func (g *RNG) Int64N(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int64N requires n > 0")
	}
	return int64(g.uint64n(uint64(n)))
}

const is32bit = ^uint(0)>>32 == 0

// uint64n reduces a uniform uint64 to [0, n) with Lemire's unbiased
// multiply-shift rejection, transcribed from math/rand/v2 so the output
// stream matches rand.Rand over the same source bit for bit.
func (g *RNG) uint64n(n uint64) uint64 {
	if is32bit && uint64(uint32(n)) == n {
		return uint64(g.uint32n(uint32(n)))
	}
	if n&(n-1) == 0 { // n is power of two, can mask
		return g.src.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(g.src.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(g.src.Uint64(), n)
		}
	}
	return hi
}

// uint32n is uint64n in 32-bit math, preserving the exact output sequence
// observed on 64-bit machines (math/rand/v2's small-n fast path).
func (g *RNG) uint32n(n uint32) uint32 {
	if n&(n-1) == 0 { // n is power of two, can mask
		return uint32(g.src.Uint64()) & (n - 1)
	}
	x := g.src.Uint64()
	lo1a, lo0 := bits.Mul32(uint32(x), n)
	hi, lo1b := bits.Mul32(uint32(x>>32), n)
	lo1, c := bits.Add32(lo1a, lo1b, 0)
	hi += c
	if lo1 == 0 && lo0 < n {
		n64 := uint64(n)
		thresh := uint32(-n64 % n64)
		for lo1 == 0 && lo0 < thresh {
			x := g.src.Uint64()
			lo1a, lo0 = bits.Mul32(uint32(x), n)
			hi, lo1b = bits.Mul32(uint32(x>>32), n)
			lo1, c = bits.Add32(lo1a, lo1b, 0)
			hi += c
		}
	}
	return hi
}

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.src.Uint64() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.Float64() < p }

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.rand().NormFloat64()
}

// Exp returns an exponentially distributed value with rate 1.
func (g *RNG) Exp() float64 { return g.rand().ExpFloat64() }

// LogNormal returns a log-normally distributed value where the underlying
// normal has mean mu and standard deviation sigma.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.Normal(mu, sigma))
}

// LogNormalMeanCV returns parameters (mu, sigma) of a LogNormal distribution
// with the requested arithmetic mean and coefficient of variation
// (stddev/mean). The paper's simulations fix a target mean duration (e.g.
// 700 frames) with heavy skew; cv controls that skew.
func LogNormalMeanCV(mean, cv float64) (mu, sigma float64) {
	if mean <= 0 {
		panic("xrand: LogNormalMeanCV requires mean > 0")
	}
	if cv <= 0 {
		panic("xrand: LogNormalMeanCV requires cv > 0")
	}
	s2 := math.Log(1 + cv*cv)
	sigma = math.Sqrt(s2)
	mu = math.Log(mean) - s2/2
	return mu, sigma
}

// Gamma returns a Gamma(alpha, beta)-distributed value using the shape/rate
// parameterization: mean alpha/beta, variance alpha/beta^2. This matches the
// paper's belief distribution Γ(α=N1+α0, β=n+β0) (Eq. III.4).
//
// Sampling uses the Marsaglia–Tsang squeeze method for alpha >= 1 and the
// standard boost (U^(1/alpha) scaling) for alpha < 1.
func (g *RNG) Gamma(alpha, beta float64) float64 {
	if alpha <= 0 || beta <= 0 {
		panic("xrand: Gamma requires alpha > 0 and beta > 0")
	}
	return g.gammaShape(alpha) / beta
}

// gammaShape samples Gamma(alpha, 1).
func (g *RNG) gammaShape(alpha float64) float64 {
	if alpha < 1 {
		// Boost: if X ~ Gamma(alpha+1) and U ~ Uniform(0,1),
		// X * U^(1/alpha) ~ Gamma(alpha).
		u := g.Float64()
		for u == 0 {
			u = g.Float64()
		}
		return g.gammaShape(alpha+1) * math.Pow(u, 1/alpha)
	}
	// Marsaglia–Tsang.
	d := alpha - 1.0/3.0
	c := 1.0 / math.Sqrt(9.0*d)
	for {
		var x, v float64
		for {
			x = g.rand().NormFloat64()
			v = 1.0 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := g.Float64()
		if u < 1.0-0.0331*(x*x)*(x*x) {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1.0-v+math.Log(v)) {
			return d * v
		}
	}
}

// Poisson returns a Poisson(lambda)-distributed value. For small lambda it
// uses Knuth's multiplication method; for large lambda the PTRS
// transformed-rejection method (Hörmann 1993), which is O(1).
func (g *RNG) Poisson(lambda float64) int {
	if lambda < 0 {
		panic("xrand: Poisson requires lambda >= 0")
	}
	if lambda == 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= g.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	return g.poissonPTRS(lambda)
}

// poissonPTRS implements Hörmann's PTRS algorithm for lambda >= 10.
func (g *RNG) poissonPTRS(lambda float64) int {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logLambda := math.Log(lambda)
	for {
		u := g.Float64() - 0.5
		v := g.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logLambda-lambda-logGamma(k+1) {
			return int(k)
		}
	}
}

func logGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// Shuffle pseudo-randomizes the order of n elements using swap
// (Fisher–Yates, same draw sequence as rand.Rand.Shuffle).
func (g *RNG) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("xrand: Shuffle requires n >= 0")
	}
	for i := n - 1; i > 0; i-- {
		j := int(g.uint64n(uint64(i + 1)))
		swap(i, j)
	}
}

// WeightedIndex returns an index in [0, len(weights)) drawn proportionally
// to the (non-negative) weights. It panics if weights is empty or all zero.
func (g *RNG) WeightedIndex(weights []float64) int {
	if len(weights) == 0 {
		panic("xrand: WeightedIndex requires at least one weight")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("xrand: WeightedIndex requires non-negative weights")
		}
		total += w
	}
	if total == 0 {
		panic("xrand: WeightedIndex requires a positive total weight")
	}
	target := g.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if target < acc {
			return i
		}
	}
	return len(weights) - 1
}
