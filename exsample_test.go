package exsample

import (
	"math"
	"strings"
	"testing"

	"github.com/exsample/exsample/internal/discrim"
)

func smallDataset(t *testing.T, opts ...DatasetOption) *Dataset {
	t.Helper()
	ds, err := Synthesize(SynthSpec{
		NumFrames:    200_000,
		NumInstances: 300,
		Class:        "car",
		MeanDuration: 150,
		SkewFraction: 1.0 / 16,
		ChunkFrames:  4000,
		Seed:         21,
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestQueryValidate(t *testing.T) {
	bad := []Query{
		{},
		{Class: "car"},
		{Class: "", Limit: 5},
		{Class: "car", Limit: -1},
		{Class: "car", RecallTarget: 1.5},
		{Class: "car", RecallTarget: -0.1},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("bad query %d accepted: %+v", i, q)
		}
	}
	if err := (Query{Class: "car", Limit: 5}).Validate(); err != nil {
		t.Errorf("good query rejected: %v", err)
	}
	if err := (Query{Class: "car", RecallTarget: 0.5}).Validate(); err != nil {
		t.Errorf("good query rejected: %v", err)
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Strategy: Strategy(99)},
		{NumChunks: -1},
		{Alpha0: -1},
		{BatchSize: -1},
		{MaxFrames: -1},
		{MaxSeconds: -1},
		{IoUThreshold: 2},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad options %d accepted: %+v", i, o)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
}

// TestNaNBoundsRejected pins that every bound rejects NaN, and the prior
// ±Inf too. Written as x < lo || x > hi, a bound lets NaN through: a NaN IoU
// threshold or tracker coverage then makes every detection a new object, a
// non-finite prior spins the Gamma sampler's rejection loop forever, a
// NaN MaxSeconds silently means no cap, and a non-finite motion threshold
// or recording rate, or a NaN mean duration, builds a source that cannot
// be sampled sensibly.
func TestNaNBoundsRejected(t *testing.T) {
	nan := math.NaN()
	ds, err := Synthesize(SynthSpec{NumFrames: 3000, NumInstances: 50, Class: "car", MeanDuration: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		err  func() error
	}{
		{"Options.IoUThreshold", Options{IoUThreshold: nan}.Validate},
		{"Options.Alpha0", Options{Alpha0: nan}.Validate},
		{"Options.Beta0", Options{Beta0: nan}.Validate},
		{"Options.Alpha0 +Inf", Options{Alpha0: math.Inf(1)}.Validate},
		{"Options.Beta0 -Inf", Options{Beta0: math.Inf(-1)}.Validate},
		{"Options.MaxSeconds", Options{MaxSeconds: nan}.Validate},
		{"TrackOptions.MaxSeconds", TrackOptions{MaxSeconds: nan}.Validate},
		{"NewSession with a NaN Alpha0", func() error {
			_, err := NewSession(ds, Query{Class: "car", Limit: 3000}, Options{Seed: 1, Alpha0: nan})
			return err
		}},
		{"Query.RecallTarget", Query{Class: "car", Limit: 5, RecallTarget: nan}.Validate},
		{"discrim.New", func() error { _, err := discrim.New(discrim.FrameExtender{}, nan); return err }},
		{"discrim.NewTruthExtender", func() error { _, err := discrim.NewTruthExtender(nil, nan); return err }},
		{"StreamConfig.MotionThreshold", StreamConfig{MotionThreshold: nan}.Validate},
		{"StreamConfig.MotionThreshold +Inf", StreamConfig{MotionThreshold: math.Inf(1)}.Validate},
		{"SynthSpec.MeanDuration", synthErr(SynthSpec{MeanDuration: nan})},
		{"SynthSpec.FPS", synthErr(SynthSpec{MeanDuration: 100, FPS: nan})},
		{"SynthSpec.FPS +Inf", synthErr(SynthSpec{MeanDuration: 100, FPS: math.Inf(1)})},
		{"SynthSpec.SkewFraction", synthErr(SynthSpec{MeanDuration: 100, SkewFraction: nan})},
		{"SynthSpec.TravelX", synthErr(SynthSpec{MeanDuration: 100, TravelX: nan})},
		{"SynthSpec.TravelY +Inf", synthErr(SynthSpec{MeanDuration: 100, TravelY: math.Inf(1)})},
		{"SearchSource with a NaN IoUThreshold", func() error {
			_, err := SearchSource(ds, Query{Class: "car", Limit: 3000}, Options{Seed: 1, IoUThreshold: nan, MaxFrames: 3000})
			return err
		}},
		{"OpenProfile with a NaN scale", func() error {
			_, err := OpenProfile("dashcam", nan, 1)
			return err
		}},
	}
	// A NaN scale must fail the bound itself, not the frame count it would
	// truncate to: the Go spec leaves int64(NaN) to the implementation.
	because := map[string]string{"OpenProfile with a NaN scale": "outside (0,1]"}
	for _, c := range cases {
		err := c.err()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if want := because[c.name]; !strings.Contains(err.Error(), want) {
			t.Errorf("%s: rejected as %q, want an %q error", c.name, err, want)
		}
	}
}

// synthErr returns Synthesize's error for spec over an otherwise valid
// 3000-frame, 50-car scene.
func synthErr(spec SynthSpec) func() error {
	spec.NumFrames, spec.NumInstances, spec.Class, spec.Seed = 3000, 50, "car", 3
	return func() error {
		_, err := Synthesize(spec)
		return err
	}
}

func TestSearchLimitQuery(t *testing.T) {
	ds := smallDataset(t)
	rep, err := ds.Search(Query{Class: "car", Limit: 20}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) < 20 {
		t.Fatalf("found %d results, want >= 20", len(rep.Results))
	}
	if rep.FramesProcessed == 0 {
		t.Fatal("no frames processed")
	}
	if rep.DetectSeconds <= 0 || rep.DecodeSeconds <= 0 {
		t.Fatalf("costs not charged: detect=%v decode=%v", rep.DetectSeconds, rep.DecodeSeconds)
	}
	if rep.ScanSeconds != 0 {
		t.Fatalf("non-proxy strategy charged scan time %v", rep.ScanSeconds)
	}
	// Result ids dense, classes right.
	for i, r := range rep.Results {
		if r.ObjectID != i {
			t.Fatalf("result %d has ObjectID %d", i, r.ObjectID)
		}
		if r.Class != "car" {
			t.Fatalf("result class %q", r.Class)
		}
	}
}

func TestSearchDistinctness(t *testing.T) {
	// With a perfect detector and full tracker coverage every result is a
	// distinct ground-truth instance: recall * population == len(results).
	ds := smallDataset(t, WithPerfectDetector())
	rep, err := ds.Search(Query{Class: "car", RecallTarget: 0.5}, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	total, err := ds.GroundTruthCount("car")
	if err != nil {
		t.Fatal(err)
	}
	wantFound := int(math.Round(rep.Recall * float64(total)))
	if len(rep.Results) != wantFound {
		t.Fatalf("results %d != recall-implied %d (duplicates under perfect conditions?)", len(rep.Results), wantFound)
	}
	if rep.Recall < 0.5 {
		t.Fatalf("recall %v below target", rep.Recall)
	}
}

func TestSearchAllStrategies(t *testing.T) {
	ds := smallDataset(t)
	for _, s := range []Strategy{StrategyExSample, StrategyRandom, StrategyRandomPlus, StrategySequential, StrategyProxy} {
		rep, err := ds.Search(Query{Class: "car", Limit: 10}, Options{Strategy: s, Seed: 5})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(rep.Results) < 10 {
			t.Errorf("%v: only %d results", s, len(rep.Results))
		}
		if s == StrategyProxy && rep.ScanSeconds <= 0 {
			t.Errorf("proxy did not charge scan time")
		}
	}
}

func TestSearchUnknownClass(t *testing.T) {
	ds := smallDataset(t)
	if _, err := ds.Search(Query{Class: "dragon", Limit: 1}, Options{}); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestSearchBudgetCaps(t *testing.T) {
	ds := smallDataset(t)
	rep, err := ds.Search(Query{Class: "car", Limit: 100000, RecallTarget: 0},
		Options{MaxFrames: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FramesProcessed > 50 {
		t.Fatalf("processed %d frames with MaxFrames=50", rep.FramesProcessed)
	}
	// Time cap: detector is 1/20s per frame, so 1 second allows ~20 frames
	// (plus decode).
	rep, err = ds.Search(Query{Class: "car", Limit: 100000},
		Options{MaxSeconds: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FramesProcessed > 25 {
		t.Fatalf("processed %d frames with MaxSeconds=1", rep.FramesProcessed)
	}
}

func TestSearchDeterministic(t *testing.T) {
	ds := smallDataset(t)
	a, err := ds.Search(Query{Class: "car", Limit: 30}, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ds.Search(Query{Class: "car", Limit: 30}, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if a.FramesProcessed != b.FramesProcessed || len(a.Results) != len(b.Results) {
		t.Fatal("same seed produced different searches")
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			t.Fatalf("result %d differs", i)
		}
	}
}

func TestSearchBatchedMatchesStatistics(t *testing.T) {
	// Batched sampling must still find results; updates are commutative so
	// effectiveness is comparable (not identical draws).
	ds := smallDataset(t)
	rep, err := ds.Search(Query{Class: "car", Limit: 30}, Options{BatchSize: 16, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) < 30 {
		t.Fatalf("batched search found %d results", len(rep.Results))
	}
	unb, err := ds.Search(Query{Class: "car", Limit: 30}, Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// Batched should not be drastically worse than unbatched.
	if rep.FramesProcessed > unb.FramesProcessed*4 {
		t.Fatalf("batched needed %d frames, unbatched %d", rep.FramesProcessed, unb.FramesProcessed)
	}
}

func TestExSampleBeatsRandomOnSkewedData(t *testing.T) {
	ds := smallDataset(t, WithPerfectDetector())
	q := Query{Class: "car", RecallTarget: 0.5}
	var exFrames, rndFrames int64
	for seed := uint64(0); seed < 3; seed++ {
		ex, err := ds.Search(q, Options{Strategy: StrategyExSample, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rnd, err := ds.Search(q, Options{Strategy: StrategyRandom, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		exFrames += ex.FramesProcessed
		rndFrames += rnd.FramesProcessed
	}
	if exFrames >= rndFrames {
		t.Fatalf("exsample frames %d >= random %d on 1/16-skewed data", exFrames, rndFrames)
	}
	t.Logf("savings: %.2fx", float64(rndFrames)/float64(exFrames))
}

func TestProxyPaysScanBeforeResults(t *testing.T) {
	// The proxy's first result cannot arrive before the scan finishes: its
	// curve seconds all exceed ScanSeconds.
	ds := smallDataset(t)
	rep, err := ds.Search(Query{Class: "car", Limit: 5}, Options{Strategy: StrategyProxy, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ScanSeconds <= 0 {
		t.Fatal("no scan charged")
	}
	for _, s := range rep.CurveSeconds {
		if s < rep.ScanSeconds {
			t.Fatalf("result at %vs before scan end %vs", s, rep.ScanSeconds)
		}
	}
	// And ExSample finds the same 5 results in far less time.
	ex, err := ds.Search(Query{Class: "car", Limit: 5}, Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if ex.TotalSeconds() >= rep.TotalSeconds() {
		t.Fatalf("exsample %vs >= proxy %vs for a 5-result limit query", ex.TotalSeconds(), rep.TotalSeconds())
	}
}

func TestRecallCurveShape(t *testing.T) {
	ds := smallDataset(t)
	rep, err := ds.Search(Query{Class: "car", Limit: 40}, Options{Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CurveSamples) == 0 {
		t.Fatal("empty curve")
	}
	for i := 1; i < len(rep.CurveFound); i++ {
		if rep.CurveFound[i] < rep.CurveFound[i-1] {
			t.Fatal("curve found counts decrease")
		}
		if rep.CurveSamples[i] < rep.CurveSamples[i-1] {
			t.Fatal("curve samples decrease")
		}
		if rep.CurveSeconds[i] < rep.CurveSeconds[i-1] {
			t.Fatal("curve seconds decrease")
		}
	}
}

func TestSecondsToRecall(t *testing.T) {
	ds := smallDataset(t, WithPerfectDetector())
	rep, err := ds.Search(Query{Class: "car", RecallTarget: 0.6}, Options{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	sec, ok := rep.SecondsToRecall(0.3)
	if !ok {
		t.Fatal("0.3 recall not found on curve despite reaching 0.6")
	}
	if sec <= 0 || sec > rep.TotalSeconds() {
		t.Fatalf("SecondsToRecall = %v, total %v", sec, rep.TotalSeconds())
	}
	if _, ok := rep.SecondsToRecall(0.99); ok {
		t.Fatal("0.99 recall reported reached")
	}
}

func TestOpenProfile(t *testing.T) {
	ds, err := OpenProfile("dashcam", 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name() != "dashcam" {
		t.Fatalf("Name = %q", ds.Name())
	}
	classes := ds.Classes()
	if len(classes) != 7 {
		t.Fatalf("dashcam classes = %v", classes)
	}
	if ds.NumFrames() <= 0 || ds.NumChunks() <= 0 || ds.Hours() <= 0 {
		t.Fatal("bad dataset dimensions")
	}
	if _, err := OpenProfile("bogus", 0.1, 1); err == nil {
		t.Fatal("unknown profile accepted")
	}
	n, err := ds.GroundTruthCount("bicycle")
	if err != nil || n <= 0 {
		t.Fatalf("GroundTruthCount = %d, %v", n, err)
	}
	if _, err := ds.GroundTruthCount("dragon"); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestProfileNames(t *testing.T) {
	names := ProfileNames()
	if len(names) != 6 {
		t.Fatalf("ProfileNames = %v", names)
	}
}

func TestScanSeconds(t *testing.T) {
	ds := smallDataset(t)
	want := float64(ds.NumFrames()) / 100
	if got := ds.ScanSeconds(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("ScanSeconds = %v, want %v", got, want)
	}
}

func TestStrategyStrings(t *testing.T) {
	want := map[Strategy]string{
		StrategyExSample:   "exsample",
		StrategyRandom:     "random",
		StrategyRandomPlus: "random+",
		StrategySequential: "sequential",
		StrategyProxy:      "proxy",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
	if Strategy(42).String() == "" {
		t.Error("unknown strategy String empty")
	}
}

func TestSynthesizeValidation(t *testing.T) {
	if _, err := Synthesize(SynthSpec{NumFrames: 0, NumInstances: 10, MeanDuration: 5}); err == nil {
		t.Error("zero frames accepted")
	}
	if _, err := Synthesize(SynthSpec{NumFrames: 1000, NumInstances: 0, MeanDuration: 5}); err == nil {
		t.Error("zero instances accepted")
	}
}

func TestSearchWithDetectorNoise(t *testing.T) {
	ds := smallDataset(t)
	rep, err := ds.Search(Query{Class: "car", Limit: 15}, Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) < 15 {
		t.Fatalf("noisy search found %d results", len(rep.Results))
	}
	// Recall counts only true instances, so it can lag len(Results) when
	// false positives sneak in, but must stay positive.
	if rep.Recall <= 0 {
		t.Fatal("zero recall with noise")
	}
}
