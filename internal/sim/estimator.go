// Package sim implements the paper's §III-D estimator validation
// (Figure 2): instances appear in a sampled frame independently with hidden
// probabilities p_i, and the study compares the observable estimate N1(n)/n
// and its Gamma belief against the true expected reward
// R(n+1) = Σ_{unseen} p_i. The §IV chunk-skew study (Figures 3 and 4 and
// the ablation) runs through the public Search instead; see internal/bench.
package sim

import (
	"fmt"
	"math"

	"github.com/exsample/exsample/internal/xrand"
)

// Appearances records, for each instance, when it was first and second seen
// during a run of sequential random frame sampling. Only the first two
// appearance times matter to the estimator: N1(n) counts instances with
// exactly one appearance by time n, and R(n+1) sums p_i over instances not
// yet seen.
//
// Appearance times are 1-based sample counts; an instance first seen on the
// k-th sample has T1 = k. Times are simulated directly as geometric gaps,
// which is distributionally identical to per-frame Bernoulli coin flips but
// O(N) per run instead of O(N·n).
type Appearances struct {
	T1 []int64 // first appearance sample index (1-based); MaxInt64 if never
	T2 []int64 // second appearance sample index; MaxInt64 if never
}

const never = math.MaxInt64

// SimulateAppearances draws first/second appearance times for each
// instance. horizon bounds the simulated sample count; appearances beyond it
// are recorded as "never".
func SimulateAppearances(pis []float64, horizon int64, rng *xrand.RNG) (Appearances, error) {
	if len(pis) == 0 {
		return Appearances{}, fmt.Errorf("sim: no instances")
	}
	if horizon <= 0 {
		return Appearances{}, fmt.Errorf("sim: horizon must be positive, got %d", horizon)
	}
	a := Appearances{
		T1: make([]int64, len(pis)),
		T2: make([]int64, len(pis)),
	}
	for i, p := range pis {
		if p <= 0 || p >= 1 {
			return Appearances{}, fmt.Errorf("sim: p[%d] = %v outside (0,1)", i, p)
		}
		t1 := geometric(p, rng)
		if t1 > horizon {
			a.T1[i], a.T2[i] = never, never
			continue
		}
		a.T1[i] = t1
		t2 := t1 + geometric(p, rng)
		if t2 > horizon {
			a.T2[i] = never
		} else {
			a.T2[i] = t2
		}
	}
	return a, nil
}

// geometric draws the number of Bernoulli(p) trials up to and including the
// first success (support 1, 2, ...), via inversion.
func geometric(p float64, rng *xrand.RNG) int64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	g := int64(math.Ceil(math.Log(u) / math.Log(1-p)))
	if g < 1 {
		g = 1
	}
	return g
}

// N1 returns the number of instances seen exactly once within the first n
// samples.
func (a Appearances) N1(n int64) int64 {
	var count int64
	for i := range a.T1 {
		if a.T1[i] <= n && a.T2[i] > n {
			count++
		}
	}
	return count
}

// RNext returns the true expected number of new results on sample n+1:
// Σ p_i over instances not seen within the first n samples (§III-D computes
// exactly this from the hidden state).
func (a Appearances) RNext(pis []float64, n int64) float64 {
	var r float64
	for i, p := range pis {
		if a.T1[i] > n {
			r += p
		}
	}
	return r
}

// BeliefSample is one simulated observation: at sample count N the run had
// N1 instances seen exactly once and true next-sample reward R.
type BeliefSample struct {
	N  int64
	N1 int64
	R  float64
}

// CollectBeliefSamples runs the §III-D experiment: `runs` independent
// sampling processes over the same p_i population, probed at the given
// sample counts. It returns one BeliefSample per (run, probe).
func CollectBeliefSamples(pis []float64, probes []int64, runs int, seed uint64) ([]BeliefSample, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("sim: runs must be positive, got %d", runs)
	}
	if len(probes) == 0 {
		return nil, fmt.Errorf("sim: no probe points")
	}
	var horizon int64
	for _, p := range probes {
		if p <= 0 {
			return nil, fmt.Errorf("sim: probe %d must be positive", p)
		}
		if p > horizon {
			horizon = p
		}
	}
	horizon++ // RNext(n) needs appearances resolved through n+1
	out := make([]BeliefSample, 0, runs*len(probes))
	for r := 0; r < runs; r++ {
		app, err := SimulateAppearances(pis, horizon, xrand.NewFrom(seed, uint64(r)))
		if err != nil {
			return nil, err
		}
		for _, n := range probes {
			out = append(out, BeliefSample{N: n, N1: app.N1(n), R: app.RNext(pis, n)})
		}
	}
	return out, nil
}
