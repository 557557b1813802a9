package sim_test

// The §IV chunk-skew study runs through the public Search with a perfect
// detector over a Synthesize repository. These tests check the study's
// claims at the sizes the simulator's own tests always used.

import (
	"testing"

	"github.com/exsample/exsample"
)

func skewedDataset(t *testing.T, skew, meanDur float64, numFrames int64, n int, seed uint64) *exsample.Dataset {
	t.Helper()
	ds, err := exsample.Synthesize(exsample.SynthSpec{
		NumFrames:    numFrames,
		NumInstances: n,
		MeanDuration: meanDur,
		SkewFraction: skew,
		Seed:         seed,
	}, exsample.WithPerfectDetector())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func search(t *testing.T, ds *exsample.Dataset, q exsample.Query, strategy exsample.Strategy, chunks int, budget int64, seed uint64) *exsample.Report {
	t.Helper()
	rep, err := ds.Search(q, exsample.Options{Strategy: strategy, NumChunks: chunks, Seed: seed, MaxFrames: budget})
	if err != nil {
		t.Fatalf("%v: %v", strategy, err)
	}
	return rep
}

// firstReach is the number of samples after which a search's discovery
// record first shows target distinct results, or 0 if it never does.
func firstReach(rep *exsample.Report, target int) int64 {
	for i, f := range rep.CurveFound {
		if f >= target {
			return rep.CurveSamples[i]
		}
	}
	return 0
}

// samplesToReach runs one search that stops at target results and reports
// the samples it took, and whether it got there within budget.
func samplesToReach(t *testing.T, ds *exsample.Dataset, strategy exsample.Strategy, chunks int, budget int64, seed uint64, target int) (int64, bool) {
	t.Helper()
	rep := search(t, ds, exsample.Query{Class: "object", Limit: target}, strategy, chunks, budget, seed)
	if n := firstReach(rep, target); n > 0 {
		return n, true
	}
	return rep.FramesProcessed, false
}

var strategies = []exsample.Strategy{exsample.StrategyExSample, exsample.StrategyRandom}

func TestExSampleBeatsRandomUnderSkew(t *testing.T) {
	const (
		numFrames = 1 << 21 // ~2M frames
		budget    = 8000
		trials    = 5
		target    = 100
	)
	ds := skewedDataset(t, 1.0/32, 700, numFrames, 2000, 11)
	var exTotal, rndTotal int64
	for trial := 0; trial < trials; trial++ {
		seed := uint64(100 + trial)
		ex, okEx := samplesToReach(t, ds, exsample.StrategyExSample, 128, budget, seed, target)
		rnd, okRnd := samplesToReach(t, ds, exsample.StrategyRandom, 128, budget, seed, target)
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

// TestExSampleMatchesRandomWithoutSkew checks that, with instances spread
// evenly, ExSample is not much worse than random (paper: 0.79x worst).
func TestExSampleMatchesRandomWithoutSkew(t *testing.T) {
	const (
		numFrames = 1 << 20
		budget    = 4000
		target    = 100
		trials    = 5
	)
	ds := skewedDataset(t, 0, 700, numFrames, 2000, 13)
	var exTotal, rndTotal int64
	for trial := 0; trial < trials; trial++ {
		seed := uint64(500 + trial)
		ex, _ := samplesToReach(t, ds, exsample.StrategyExSample, 64, budget, seed, target)
		rnd, _ := samplesToReach(t, ds, exsample.StrategyRandom, 64, budget, seed, target)
		exTotal += ex
		rndTotal += rnd
	}
	ratio := float64(exTotal) / float64(rndTotal)
	if ratio > 1.6 {
		t.Fatalf("exsample needed %.2fx the samples of random without skew; should be comparable", ratio)
	}
	t.Logf("no-skew ratio exsample/random = %.2f", ratio)
}

// TestRunOnePass checks that one search's discovery record gives the
// samples to every target exactly as a search that stops at that target
// would take, so each trial of the study needs one search.
func TestRunOnePass(t *testing.T) {
	const (
		numFrames = 1 << 16
		budget    = 3000
		chunks    = 16
		seed      = 9
	)
	ds := skewedDataset(t, 1.0/8, 200, numFrames, 100, 3)
	targets := []int{1, 10, 40}
	for _, s := range strategies {
		full := search(t, ds, exsample.Query{Class: "object", RecallTarget: 1}, s, chunks, budget, seed)
		if full.FramesProcessed > budget {
			t.Fatalf("%v: full search took %d samples, over budget %d", s, full.FramesProcessed, budget)
		}
		if n := len(full.CurveFound); n == 0 || full.CurveFound[n-1] != len(full.Results) {
			t.Fatalf("%v: discovery record ends at %v, want %d results", s, full.CurveFound, len(full.Results))
		}
		for _, target := range targets {
			want := firstReach(full, target)
			if want == 0 {
				t.Fatalf("%v: target %d not reached within %d samples", s, target, budget)
			}
			stopped := search(t, ds, exsample.Query{Class: "object", Limit: target}, s, chunks, budget, seed)
			if stopped.FramesProcessed != want {
				t.Errorf("%v: search stopping at %d results took %d samples, want %d (first sample with %d found)",
					s, target, stopped.FramesProcessed, want, target)
			}
			if got := firstReach(stopped, target); got != want {
				t.Errorf("%v: stopped search's record reaches %d at %d, want %d", s, target, got, want)
			}
		}

		// An unreachable target keeps the search going to budget, with the
		// same record as the full-budget search.
		unreachable := search(t, ds, exsample.Query{Class: "object", Limit: 1000}, s, chunks, budget, seed)
		if unreachable.FramesProcessed != budget || firstReach(unreachable, 1000) != 0 ||
			firstReach(unreachable, 10) != firstReach(full, 10) {
			t.Errorf("%v: %d samples, reached 10 at %d and 1000 at %d; want %d, %d and never",
				s, unreachable.FramesProcessed, firstReach(unreachable, 10), firstReach(unreachable, 1000),
				budget, firstReach(full, 10))
		}
	}
}

// TestSamplesToReachUnreachable checks that a target beyond the population
// is never reached: the record never shows it, and the search spends its
// whole budget.
func TestSamplesToReachUnreachable(t *testing.T) {
	ds := skewedDataset(t, 0, 10, 10000, 10, 1)
	for _, s := range strategies {
		n, ok := samplesToReach(t, ds, s, 4, 50, 3, 1000)
		if ok {
			t.Errorf("%v: reported reaching 1000 results from a population of 10 after %d samples", s, n)
		}
		if n != 50 {
			t.Errorf("%v: samples = %d, want budget 50", s, n)
		}
	}
}
