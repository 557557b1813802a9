package sim

import (
	"testing"

	"github.com/exsample/exsample/internal/synth"
	"github.com/exsample/exsample/internal/track"
)

func gridInstances(t *testing.T, skew float64, meanDur float64, numFrames int64, n int, seed uint64) []track.Instance {
	t.Helper()
	instances, err := synth.Generate(synth.GridSpec{
		NumInstances: n,
		NumFrames:    numFrames,
		SkewFraction: skew,
		MeanDuration: meanDur,
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return instances
}

func TestRunValidation(t *testing.T) {
	instances := gridInstances(t, 0, 10, 10000, 10, 1)
	cps := []int64{10}
	bad := []ChunkSimConfig{
		{Instances: nil, NumFrames: 100, Budget: 10, Checkpoints: cps},
		{Instances: instances, NumFrames: 0, Budget: 10, Checkpoints: cps},
		{Instances: instances, NumFrames: 10000, Budget: 0, Checkpoints: cps},
		{Instances: instances, NumFrames: 10000, Budget: 20000, Checkpoints: cps},
		{Instances: instances, NumFrames: 10000, Budget: 10},
		{Instances: instances, NumFrames: 10000, Budget: 10, Checkpoints: []int64{5, 5}},
		{Instances: instances, NumFrames: 10000, Budget: 10, Checkpoints: []int64{0}},
		{Instances: instances, NumFrames: 10000, Budget: 10, Checkpoints: []int64{11}},
	}
	for i, cfg := range bad {
		if _, err := Run(MethodRandom, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := Run(Method(99), ChunkSimConfig{Instances: instances, NumFrames: 10000, Budget: 10, Checkpoints: cps}); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestTrajectoryMonotone(t *testing.T) {
	instances := gridInstances(t, 1.0/8, 200, 1<<18, 200, 3)
	for _, m := range []Method{MethodExSample, MethodRandom} {
		tr, err := Run(m, ChunkSimConfig{
			Instances:   instances,
			NumFrames:   1 << 18,
			NumChunks:   16,
			Budget:      5000,
			Checkpoints: []int64{10, 100, 1000, 5000},
			Seed:        5,
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		prev := int64(0)
		for k, f := range tr.Found {
			if f < prev {
				t.Fatalf("%v: trajectory decreases at checkpoint %d: %v", m, k, tr.Found)
			}
			prev = f
		}
		if last := tr.Found[len(tr.Found)-1]; last > 200 {
			t.Fatalf("%v: found %d > population", m, last)
		}
		if tr.Samples != 5000 {
			t.Fatalf("%v: samples = %d", m, tr.Samples)
		}
	}
}

func TestFullBudgetFindsEverythingFindable(t *testing.T) {
	// Sampling every frame must find every instance.
	instances := gridInstances(t, 0, 50, 5000, 50, 7)
	tr, err := Run(MethodRandom, ChunkSimConfig{
		Instances:   instances,
		NumFrames:   5000,
		Budget:      5000,
		Checkpoints: []int64{5000},
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Found[0] != 50 {
		t.Fatalf("found %d of 50 after exhaustive sampling", tr.Found[0])
	}
}

// The headline §IV result: under heavy skew ExSample finds results in fewer
// samples than random.
func TestExSampleBeatsRandomUnderSkew(t *testing.T) {
	const (
		numFrames = 1 << 21 // ~2M frames
		budget    = 8000
		trials    = 5
		target    = 100
	)
	instances := gridInstances(t, 1.0/32, 700, numFrames, 2000, 11)
	var exTotal, rndTotal int64
	for trial := 0; trial < trials; trial++ {
		cfg := ChunkSimConfig{
			Instances: instances,
			NumFrames: numFrames,
			NumChunks: 128,
			Budget:    budget,
			Seed:      uint64(100 + trial),
		}
		ex, okEx := samplesToReach(t, MethodExSample, cfg, target)
		rnd, okRnd := samplesToReach(t, MethodRandom, cfg, target)
		if !okEx {
			t.Fatalf("trial %d: exsample did not reach %d results in %d samples", trial, target, budget)
		}
		if !okRnd {
			rnd = budget
		}
		exTotal += ex
		rndTotal += rnd
	}
	if exTotal >= rndTotal {
		t.Fatalf("exsample total samples %d >= random %d under 1/32 skew", exTotal, rndTotal)
	}
	savings := float64(rndTotal) / float64(exTotal)
	if savings < 1.3 {
		t.Fatalf("savings = %vx, want > 1.3x under heavy skew", savings)
	}
	t.Logf("savings to %d results: %.2fx", target, savings)
}

// Under no skew ExSample should be close to random (paper: "it never
// performs significantly worse").
func TestExSampleMatchesRandomWithoutSkew(t *testing.T) {
	const (
		numFrames = 1 << 20
		budget    = 4000
		target    = 100
		trials    = 5
	)
	instances := gridInstances(t, 0, 700, numFrames, 2000, 13)
	var exTotal, rndTotal int64
	for trial := 0; trial < trials; trial++ {
		cfg := ChunkSimConfig{
			Instances: instances,
			NumFrames: numFrames,
			NumChunks: 64,
			Budget:    budget,
			Seed:      uint64(500 + trial),
		}
		ex, _ := samplesToReach(t, MethodExSample, cfg, target)
		rnd, _ := samplesToReach(t, MethodRandom, cfg, target)
		exTotal += ex
		rndTotal += rnd
	}
	ratio := float64(exTotal) / float64(rndTotal)
	if ratio > 1.6 {
		t.Fatalf("exsample needed %.2fx the samples of random without skew; should be comparable", ratio)
	}
	t.Logf("no-skew ratio exsample/random = %.2f", ratio)
}

// samplesToReach runs cfg to one target and returns the samples it took,
// or (Budget, false) if the target was not reached within the budget.
func samplesToReach(t *testing.T, m Method, cfg ChunkSimConfig, target int64) (int64, bool) {
	t.Helper()
	cfg.Targets = []int64{target}
	tr, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Reached[0] == 0 {
		return cfg.Budget, false
	}
	return tr.Reached[0], true
}

// TestRunOnePass checks that one run records targets and checkpoints
// exactly as a run watching every sample would, and stops as soon as it
// has recorded everything asked of it. TestSamplesToReachValidation covers
// bad targets.
func TestRunOnePass(t *testing.T) {
	const (
		numFrames = 1 << 16
		budget    = 3000
	)
	instances := gridInstances(t, 1.0/8, 200, numFrames, 100, 3)
	every := make([]int64, budget)
	for i := range every {
		every[i] = int64(i + 1)
	}
	targets := []int64{1, 10, 40}
	for _, m := range []Method{MethodExSample, MethodRandom} {
		cfg := ChunkSimConfig{
			Instances: instances,
			NumFrames: numFrames,
			NumChunks: 16,
			Budget:    budget,
			Seed:      9,
		}
		full := cfg
		full.Checkpoints = every
		ref, err := Run(m, full)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		targeted := cfg
		targeted.Targets = targets
		tr, err := Run(m, targeted)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for k, target := range targets {
			want := int64(0)
			for i, f := range ref.Found {
				if f >= target {
					want = every[i]
					break
				}
			}
			if want == 0 {
				t.Fatalf("%v: target %d not reached within %d samples", m, target, budget)
			}
			if tr.Reached[k] != want {
				t.Errorf("%v: Reached[%d] = %d, want %d (first sample with %d found)", m, k, tr.Reached[k], want, target)
			}
		}
		if last := tr.Reached[len(targets)-1]; tr.Samples != last {
			t.Errorf("%v: targets-only run took %d samples, want %d (the last target)", m, tr.Samples, last)
		}

		// A checkpoint at Budget beside the targets (Fig 3's shape) runs to
		// Budget and records the same values.
		both := cfg
		both.Checkpoints = []int64{budget}
		both.Targets = targets
		tr, err = Run(m, both)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if tr.Samples != budget || tr.Found[0] != ref.Found[budget-1] {
			t.Errorf("%v: %d samples, found %d; want %d, %d", m, tr.Samples, tr.Found[0], budget, ref.Found[budget-1])
		}

		// An unreachable target after a reachable one keeps the run going
		// to Budget.
		unreachable := cfg
		unreachable.Targets = []int64{10, 1000}
		tr, err = Run(m, unreachable)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if tr.Reached[0] == 0 || tr.Reached[1] != 0 || tr.Samples != budget {
			t.Errorf("%v: Reached %v after %d samples, want [>0 0] after %d", m, tr.Reached, tr.Samples, budget)
		}
	}
}

// TestSamplesToReachValidation checks that Run rejects sample-count targets
// that are not positive and ascending, and an unknown method given targets.
func TestSamplesToReachValidation(t *testing.T) {
	instances := gridInstances(t, 0, 10, 10000, 10, 1)
	cfg := ChunkSimConfig{Instances: instances, NumFrames: 10000, Budget: 100}
	for _, bad := range [][]int64{{0}, {-1}, {5, 5}, {10, 1}} {
		cfg.Targets = bad
		if _, err := Run(MethodRandom, cfg); err == nil {
			t.Errorf("targets %v accepted", bad)
		}
	}
	cfg.Targets = []int64{5}
	if _, err := Run(Method(99), cfg); err == nil {
		t.Error("unknown method accepted")
	}
}

// TestSamplesToReachUnreachable checks that a target beyond the population
// is never reached: Reached reads 0, and the run spends its whole budget.
func TestSamplesToReachUnreachable(t *testing.T) {
	instances := gridInstances(t, 0, 10, 10000, 10, 1)
	for _, m := range []Method{MethodExSample, MethodRandom} {
		cfg := ChunkSimConfig{Instances: instances, NumFrames: 10000, NumChunks: 4, Budget: 50, Targets: []int64{1000}, Seed: 3}
		tr, err := Run(m, cfg)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if tr.Reached[0] != 0 {
			t.Errorf("%v: reported reaching 1000 results from a population of 10 after %d samples", m, tr.Reached[0])
		}
		if tr.Samples != 50 {
			t.Errorf("%v: samples = %d, want budget 50", m, tr.Samples)
		}
	}
}
