// Package synth generates the synthetic workloads used throughout the
// paper's analysis and evaluation sections:
//
//   - §III-D: a population of per-instance hit probabilities p_i drawn from
//     a heavy-tailed LogNormal (durations from fractions of a second to
//     hours), used to validate the estimator and its belief distribution.
//   - §IV (Figures 3 and 4): N instances placed over a frame axis with
//     controllable cross-dataset skew (95% of instances inside a chosen
//     center fraction) and LogNormal durations with a target mean.
//
// The same generator also underlies the six synthetic dataset profiles in
// internal/datasets.
package synth

import (
	"fmt"
	"math"

	"github.com/exsample/exsample/internal/geom"
	"github.com/exsample/exsample/internal/track"
	"github.com/exsample/exsample/internal/xrand"
)

// GridSpec configures one cell of the paper's §IV simulation grid.
type GridSpec struct {
	// NumInstances is N, the number of distinct objects (2000 in Fig. 3).
	NumInstances int
	// NumFrames is the repository size (16M in Fig. 3).
	NumFrames int64
	// SkewFraction places ~95% of instance centers inside a band covering
	// SkewFraction of the frame axis; 0 (or 1) means no skew: uniform
	// placement. Fig. 3 uses {0, 1/4, 1/32, 1/256}.
	SkewFraction float64
	// Center positions the band's center as a fraction of the frame axis.
	// 0 selects the midpoint (0.5), the Fig. 3 setup. Dataset profiles use
	// different centers per class so skews do not all coincide.
	Center float64
	// MeanDuration is the target mean of the LogNormal duration
	// distribution, in frames (Fig. 3 rows: 14, 100, 700, 4900).
	// Its shape parameter is durationSigma.
	MeanDuration float64
	// Class labels all generated instances (default "object").
	Class string
	// Seed drives generation.
	Seed uint64
	// TravelX and TravelY, when either is nonzero, give every instance a
	// net spatial displacement over its lifetime: the end box is the start
	// box translated by (TravelX, TravelY) pixels, so an instance visible
	// for d frames moves at hypot(TravelX, TravelY)/(d-1) pixels per frame.
	// Both zero keeps the legacy slight drift (40 px in x), preserving the
	// ground truth of every existing dataset profile byte for byte. Track-
	// predicate scenes use these to give speed and direction clauses
	// something to discriminate on.
	TravelX, TravelY float64
}

// durationSigma is the duration LogNormal's shape parameter: its 2000-sample
// range is roughly a factor of 100 (the paper reports durations ~50..5000
// at mean 700).
const durationSigma = 0.7

// Validate reports an error for an unusable spec.
func (s GridSpec) Validate() error {
	if s.NumInstances <= 0 {
		return fmt.Errorf("synth: NumInstances must be positive, got %d", s.NumInstances)
	}
	if s.NumFrames <= 0 {
		return fmt.Errorf("synth: NumFrames must be positive, got %d", s.NumFrames)
	}
	if !(s.SkewFraction >= 0 && s.SkewFraction <= 1) {
		return fmt.Errorf("synth: SkewFraction %v outside [0,1]", s.SkewFraction)
	}
	if !(s.MeanDuration > 0) {
		return fmt.Errorf("synth: MeanDuration must be positive, got %v", s.MeanDuration)
	}
	if s.MeanDuration >= float64(s.NumFrames) {
		return fmt.Errorf("synth: MeanDuration %v >= NumFrames %d", s.MeanDuration, s.NumFrames)
	}
	if !(s.Center >= 0 && s.Center <= 1) {
		return fmt.Errorf("synth: Center %v outside [0,1]", s.Center)
	}
	if !finite(s.TravelX) || !finite(s.TravelY) {
		return fmt.Errorf("synth: travel (%v, %v) must be finite", s.TravelX, s.TravelY)
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Generate produces the instance population for a grid cell. Instances are
// spatially laid out in disjoint lanes so that temporally overlapping
// instances of the same class never overlap spatially (keeping IoU-based
// ground truth unambiguous).
func Generate(spec GridSpec) ([]track.Instance, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Class == "" {
		spec.Class = "object"
	}
	// mu so that the LogNormal mean is MeanDuration. sigma is a float64
	// variable, not the untyped constant, so sigma*sigma rounds as float64.
	sigma := float64(durationSigma)
	mu := math.Log(spec.MeanDuration) - sigma*sigma/2

	rng := xrand.New(spec.Seed)
	instances := make([]track.Instance, 0, spec.NumInstances)
	for i := 0; i < spec.NumInstances; i++ {
		dur := int64(math.Round(rng.LogNormal(mu, sigma)))
		if dur < 1 {
			dur = 1
		}
		if dur > spec.NumFrames {
			dur = spec.NumFrames
		}
		center := placeCenter(rng, spec.NumFrames, spec.SkewFraction, spec.Center)
		start := center - dur/2
		if start < 0 {
			start = 0
		}
		end := start + dur - 1
		if end >= spec.NumFrames {
			end = spec.NumFrames - 1
			start = end - dur + 1
			if start < 0 {
				start = 0
			}
		}
		startBox := laneBox(i, 0)
		endBox := laneBox(i, 1)
		if spec.TravelX != 0 || spec.TravelY != 0 {
			endBox = startBox.Translate(spec.TravelX, spec.TravelY)
		}
		instances = append(instances, track.Instance{
			ID:       i,
			Class:    spec.Class,
			Start:    start,
			End:      end,
			StartBox: startBox,
			EndBox:   endBox,
		})
	}
	return instances, nil
}

// placeCenter draws an instance center. With skew f, centers are Normal
// around the band center with 95% mass inside a band covering fraction f of
// the axis (1.96 sigma = f*numFrames/2); draws outside the axis are redrawn.
func placeCenter(rng *xrand.RNG, numFrames int64, skewFraction, center float64) int64 {
	if skewFraction == 0 || skewFraction >= 1 {
		return rng.Int64N(numFrames)
	}
	if center == 0 {
		center = 0.5
	}
	mid := center * float64(numFrames)
	sigma := skewFraction * float64(numFrames) / 2 / 1.96
	for {
		c := rng.Normal(mid, sigma)
		if c >= 0 && c < float64(numFrames) {
			return int64(c)
		}
	}
}

// laneBox assigns each instance a private spatial lane; phase 0 is the
// start pose, 1 the end pose (slight drift for realistic tracking).
func laneBox(id int, phase int) geom.Box {
	const (
		lanes      = 997 // prime: consecutive ids spread across lanes
		laneHeight = 130
		baseSize   = 60
	)
	lane := id % lanes
	x := 100 + float64((id*7919)%1200)
	y := float64(lane) * laneHeight
	size := baseSize + float64(id%5)*10
	drift := 40.0 * float64(phase)
	return geom.Rect(x+drift, y, size, size*1.2)
}

// Pis draws n per-instance hit probabilities from a LogNormal with the given
// arithmetic mean and coefficient of variation, clamped to (0, maxP]. The
// §III-D experiment uses mean 3e-3 and a CV of ~2.7, giving the paper's
// reported range of ~3e-6 to 0.15.
func Pis(n int, mean, cv, maxP float64, seed uint64) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("synth: n must be positive, got %d", n)
	}
	if mean <= 0 || mean >= 1 {
		return nil, fmt.Errorf("synth: mean %v outside (0,1)", mean)
	}
	if cv <= 0 {
		return nil, fmt.Errorf("synth: cv must be positive, got %v", cv)
	}
	if maxP <= 0 || maxP > 1 {
		return nil, fmt.Errorf("synth: maxP %v outside (0,1]", maxP)
	}
	mu, sigma := xrand.LogNormalMeanCV(mean, cv)
	rng := xrand.New(seed)
	out := make([]float64, n)
	for i := range out {
		p := rng.LogNormal(mu, sigma)
		if p > maxP {
			p = maxP
		}
		if p <= 0 {
			p = 1e-12
		}
		out[i] = p
	}
	return out, nil
}

// DurationStats summarizes a generated population (used by tests and by the
// experiment logs to confirm fidelity with the paper's reported ranges).
type DurationStats struct {
	Min, Max int64
	Mean     float64
}

// Durations computes summary statistics over instance durations.
func Durations(instances []track.Instance) DurationStats {
	if len(instances) == 0 {
		return DurationStats{}
	}
	st := DurationStats{Min: instances[0].Duration(), Max: instances[0].Duration()}
	var sum int64
	for _, in := range instances {
		d := in.Duration()
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
		sum += d
	}
	st.Mean = float64(sum) / float64(len(instances))
	return st
}
