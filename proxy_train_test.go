package exsample

import "testing"

// Tests for the BlazeIt-style training phase of the proxy baseline.

func TestProxyTrainingFindsLabelsThenScans(t *testing.T) {
	// Cars are common in the small dataset: training succeeds quickly and
	// the scan is still charged.
	ds := smallDataset(t, WithPerfectDetector())
	rep, err := ds.Search(Query{Class: "car", Limit: 10},
		Options{Strategy: StrategyProxy, ProxyTrainPositives: 3, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ScanSeconds <= 0 {
		t.Fatal("trained proxy did not charge the scan")
	}
	if len(rep.Results) < 10 {
		t.Fatalf("found %d results", len(rep.Results))
	}
}

func TestProxyTrainingFallsBackToRandomOnRareClass(t *testing.T) {
	// A very rare class: within the default training budget (2% of the
	// repository, 6000 frames here) the proxy cannot collect its labels and
	// degrades to random sampling — no scan charged, and the search runs
	// on past the budget.
	ds, err := Synthesize(SynthSpec{
		NumFrames:    300_000,
		NumInstances: 5,
		Class:        "unicorn",
		MeanDuration: 20,
		ChunkFrames:  5000,
		Seed:         63,
	}, WithPerfectDetector())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ds.Search(Query{Class: "unicorn", Limit: 3},
		Options{
			Strategy:            StrategyProxy,
			ProxyTrainPositives: 4,
			MaxFrames:           8_000,
			Seed:                65,
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ScanSeconds != 0 {
		t.Fatalf("fallback proxy charged a scan of %vs", rep.ScanSeconds)
	}
	if rep.FramesProcessed <= 6_000 {
		t.Fatalf("fallback processed %d frames, want past the 6000-frame budget", rep.FramesProcessed)
	}
}

func TestProxyTrainingResultsCount(t *testing.T) {
	// Objects discovered during training are real results; a limit query
	// can finish inside the training phase without ever scanning.
	ds := smallDataset(t, WithPerfectDetector())
	rep, err := ds.Search(Query{Class: "car", Limit: 1},
		Options{Strategy: StrategyProxy, ProxyTrainPositives: 1000, Seed: 67})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) < 1 {
		t.Fatal("no results")
	}
	if rep.ScanSeconds != 0 {
		t.Fatalf("query finished during training but charged scan %vs", rep.ScanSeconds)
	}
}

func TestProxyTrainingValidation(t *testing.T) {
	if err := (Options{ProxyTrainPositives: -1}).Validate(); err == nil {
		t.Error("negative ProxyTrainPositives accepted")
	}
}
