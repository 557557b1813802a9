package synth

import (
	"math"
	"testing"

	"github.com/exsample/exsample/internal/geom"
	"github.com/exsample/exsample/internal/track"
)

func TestGenerateBasics(t *testing.T) {
	spec := GridSpec{NumInstances: 500, NumFrames: 1 << 20, SkewFraction: 0, MeanDuration: 700, Seed: 1}
	instances, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(instances) != 500 {
		t.Fatalf("generated %d instances", len(instances))
	}
	for _, in := range instances {
		if err := in.Validate(); err != nil {
			t.Fatalf("instance %d invalid: %v", in.ID, err)
		}
		if in.Start < 0 || in.End >= spec.NumFrames {
			t.Fatalf("instance %d outside repository: [%d, %d]", in.ID, in.Start, in.End)
		}
		if in.Class != "object" {
			t.Fatalf("default class = %q", in.Class)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := GridSpec{NumInstances: 100, NumFrames: 100000, MeanDuration: 100, Seed: 7}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instance %d differs between runs", i)
		}
	}
}

func TestGenerateDurationDistribution(t *testing.T) {
	// Paper: mean 700 gives shortest ~50, longest ~5000 over 2000 draws.
	spec := GridSpec{NumInstances: 2000, NumFrames: 16_000_000, MeanDuration: 700, Seed: 3}
	instances, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := Durations(instances)
	if st.Mean < 550 || st.Mean > 850 {
		t.Errorf("mean duration = %v, want ~700", st.Mean)
	}
	if st.Min > 120 {
		t.Errorf("min duration = %d, want tail below ~120", st.Min)
	}
	if st.Max < 2500 {
		t.Errorf("max duration = %d, want heavy tail above 2500", st.Max)
	}
}

func TestGenerateSkewConcentratesCenters(t *testing.T) {
	const frames = 1 << 24
	for _, f := range []float64{0.25, 1.0 / 32, 1.0 / 256} {
		spec := GridSpec{NumInstances: 2000, NumFrames: frames, SkewFraction: f, MeanDuration: 100, Seed: 5}
		instances, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		lo := int64((0.5 - f/2) * frames)
		hi := int64((0.5 + f/2) * frames)
		inside := 0
		for _, in := range instances {
			c := (in.Start + in.End) / 2
			if c >= lo && c < hi {
				inside++
			}
		}
		frac := float64(inside) / float64(len(instances))
		if frac < 0.90 || frac > 0.99 {
			t.Errorf("skew %v: %v of centers inside central fraction, want ~0.95", f, frac)
		}
	}
}

func TestGenerateNoSkewIsUniform(t *testing.T) {
	const frames = 1 << 20
	spec := GridSpec{NumInstances: 4000, NumFrames: frames, SkewFraction: 0, MeanDuration: 10, Seed: 9}
	instances, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Quarter occupancy should be ~25% each.
	quarters := make([]int, 4)
	for _, in := range instances {
		q := int(4 * in.Start / frames)
		if q > 3 {
			q = 3
		}
		quarters[q]++
	}
	for q, c := range quarters {
		if c < 850 || c > 1150 {
			t.Errorf("quarter %d holds %d instances, want ~1000", q, c)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []GridSpec{
		{NumInstances: 0, NumFrames: 100, MeanDuration: 10},
		{NumInstances: 10, NumFrames: 0, MeanDuration: 10},
		{NumInstances: 10, NumFrames: 100, MeanDuration: 0},
		{NumInstances: 10, NumFrames: 100, MeanDuration: 200},
		{NumInstances: 10, NumFrames: 100, MeanDuration: 10, SkewFraction: -0.1},
		{NumInstances: 10, NumFrames: 100, MeanDuration: 10, SkewFraction: 1.5},
		{NumInstances: 10, NumFrames: 100, MeanDuration: 10, SkewFraction: math.NaN()},
		{NumInstances: 10, NumFrames: 100, MeanDuration: 10, Center: math.NaN()},
		{NumInstances: 10, NumFrames: 100, MeanDuration: 10, TravelX: math.NaN()},
		{NumInstances: 10, NumFrames: 100, MeanDuration: 10, TravelX: math.Inf(-1)},
		{NumInstances: 10, NumFrames: 100, MeanDuration: 10, TravelY: math.Inf(1)},
	}
	for i, spec := range bad {
		if spec.Validate() == nil {
			// Generate need not terminate on a spec Validate passes.
			t.Errorf("bad spec %d passed Validate", i)
			continue
		}
		if _, err := Generate(spec); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestLaneSeparationForConcurrentInstances(t *testing.T) {
	// Temporally overlapping instances (adjacent ids overlap with high
	// probability under heavy skew) must not overlap spatially.
	spec := GridSpec{NumInstances: 900, NumFrames: 1 << 16, SkewFraction: 1.0 / 256, MeanDuration: 500, Seed: 11}
	instances, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(instances); i++ {
		for j := i + 1; j < len(instances) && j < i+50; j++ {
			a, b := instances[i], instances[j]
			if a.End < b.Start || b.End < a.Start {
				continue // no temporal overlap
			}
			mid := maxI64(a.Start, b.Start)
			if geom.IoU(a.BoxAt(mid), b.BoxAt(mid)) > 0 {
				t.Fatalf("instances %d and %d overlap spatially and temporally", a.ID, b.ID)
			}
		}
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func TestPis(t *testing.T) {
	pis, err := Pis(1000, 3e-3, 2.7, 0.15, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(pis) != 1000 {
		t.Fatalf("len = %d", len(pis))
	}
	var sum, min, max float64
	min = 1
	for _, p := range pis {
		if p <= 0 || p > 0.15 {
			t.Fatalf("p = %v outside (0, 0.15]", p)
		}
		sum += p
		if p < min {
			min = p
		}
		if p > max {
			max = p
		}
	}
	mean := sum / 1000
	if mean < 1e-3 || mean > 6e-3 {
		t.Errorf("mean p = %v, want ~3e-3", mean)
	}
	if min > 1e-4 {
		t.Errorf("min p = %v, want heavy lower tail", min)
	}
	if max < 0.02 {
		t.Errorf("max p = %v, want heavy upper tail", max)
	}
	// Order-of-magnitude spread, as in the paper's §III-D setup.
	if math.Log10(max/min) < 2 {
		t.Errorf("spread = %v orders of magnitude, want >= 2", math.Log10(max/min))
	}
}

func TestPisValidation(t *testing.T) {
	cases := []struct {
		n        int
		mean, cv float64
		maxP     float64
	}{
		{0, 0.1, 1, 1},
		{10, 0, 1, 1},
		{10, 1.5, 1, 1},
		{10, 0.1, 0, 1},
		{10, 0.1, 1, 0},
		{10, 0.1, 1, 1.5},
	}
	for i, c := range cases {
		if _, err := Pis(c.n, c.mean, c.cv, c.maxP, 1); err == nil {
			t.Errorf("bad Pis case %d accepted", i)
		}
	}
}

func TestDurationsEmpty(t *testing.T) {
	if st := Durations(nil); st.Min != 0 || st.Max != 0 || st.Mean != 0 {
		t.Fatalf("Durations(nil) = %+v", st)
	}
}

func TestDurationsSummary(t *testing.T) {
	instances := []track.Instance{
		{ID: 0, Class: "c", Start: 0, End: 9, StartBox: geom.Rect(0, 0, 1, 1), EndBox: geom.Rect(0, 0, 1, 1)},
		{ID: 1, Class: "c", Start: 0, End: 29, StartBox: geom.Rect(0, 0, 1, 1), EndBox: geom.Rect(0, 0, 1, 1)},
	}
	st := Durations(instances)
	if st.Min != 10 || st.Max != 30 || st.Mean != 20 {
		t.Fatalf("stats = %+v", st)
	}
}
