package exsample

import "testing"

// Tests for the §VII fusion (proxy-scored within-chunk order) and the
// technical report's cross-chunk accounting.

func TestFusionChargesPerChunkScanOnly(t *testing.T) {
	ds := smallDataset(t, WithPerfectDetector())
	rep, err := ds.Search(Query{Class: "car", Limit: 15},
		Options{FuseProxyWithinChunk: true, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) < 15 {
		t.Fatalf("fusion found %d results", len(rep.Results))
	}
	if rep.ScanSeconds <= 0 {
		t.Fatal("fusion charged no per-chunk scoring")
	}
	fullScan := ds.ScanSeconds()
	if rep.ScanSeconds >= fullScan {
		t.Fatalf("fusion scoring %vs >= full scan %vs; should score only visited chunks",
			rep.ScanSeconds, fullScan)
	}
	// Scoring must be a whole number of chunks: 200k frames / 4k per chunk
	// = 50 chunks, each 4000/100 = 40s of scoring.
	chunkScan := 4000.0 / 100.0
	ratio := rep.ScanSeconds / chunkScan
	if ratio != float64(int(ratio)) {
		t.Fatalf("scan %vs is not a whole number of %vs chunks", rep.ScanSeconds, chunkScan)
	}
}

func TestFusionBeatsFullProxyOnLimitQueries(t *testing.T) {
	ds := smallDataset(t, WithPerfectDetector())
	q := Query{Class: "car", Limit: 10}
	fusion, err := ds.Search(q, Options{FuseProxyWithinChunk: true, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := ds.Search(q, Options{Strategy: StrategyProxy, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if fusion.TotalSeconds() >= proxy.TotalSeconds() {
		t.Fatalf("fusion %vs >= full proxy %vs on a limit query",
			fusion.TotalSeconds(), proxy.TotalSeconds())
	}
}

func TestFusionFindsResultsInFewerFramesThanPlain(t *testing.T) {
	// With a perfect proxy, scored within-chunk order should need no more
	// detector calls than the stochastic default to hit the same limit.
	// (Allow generous noise: the point is it works, not a fixed factor.)
	ds := smallDataset(t, WithPerfectDetector())
	q := Query{Class: "car", Limit: 25}
	var fusionFrames, plainFrames int64
	for seed := uint64(0); seed < 3; seed++ {
		f, err := ds.Search(q, Options{FuseProxyWithinChunk: true, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		p, err := ds.Search(q, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		fusionFrames += f.FramesProcessed
		plainFrames += p.FramesProcessed
	}
	if fusionFrames > plainFrames*2 {
		t.Fatalf("fusion needed %d frames vs plain %d", fusionFrames, plainFrames)
	}
}

func TestFusionOptionValidation(t *testing.T) {
	ds := smallDataset(t)
	if _, err := ds.Search(Query{Class: "car", Limit: 1},
		Options{FuseProxyWithinChunk: true, Strategy: StrategyRandom}); err == nil {
		t.Error("fusion with random strategy accepted")
	}
	if _, err := ds.Search(Query{Class: "car", Limit: 1},
		Options{FuseProxyWithinChunk: true, Strategy: StrategyProxy}); err == nil {
		t.Error("fusion with proxy strategy accepted")
	}
	if _, err := ds.Search(Query{Class: "car", Limit: 1},
		Options{HomeChunkAccounting: true, Strategy: StrategyProxy}); err == nil {
		t.Error("home accounting with proxy strategy accepted")
	}
}

func TestHomeChunkAccountingSearch(t *testing.T) {
	// Long instances that straddle chunk boundaries exercise the
	// cross-chunk path; the search must behave sanely and find everything.
	ds, err := Synthesize(SynthSpec{
		NumFrames:    100_000,
		NumInstances: 80,
		Class:        "car",
		MeanDuration: 5000, // ~2.5 chunks long
		SkewFraction: 0.25,
		ChunkFrames:  2000,
		Seed:         51,
	}, WithPerfectDetector())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ds.Search(Query{Class: "car", RecallTarget: 0.8},
		Options{HomeChunkAccounting: true, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recall < 0.8 {
		t.Fatalf("recall %v with home accounting", rep.Recall)
	}
	// And it should not be wildly worse than default accounting.
	def, err := ds.Search(Query{Class: "car", RecallTarget: 0.8}, Options{Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FramesProcessed > def.FramesProcessed*3 {
		t.Fatalf("home accounting needed %d frames vs default %d",
			rep.FramesProcessed, def.FramesProcessed)
	}
}

func TestHomeChunkAccountingBatched(t *testing.T) {
	ds := smallDataset(t, WithPerfectDetector())
	rep, err := ds.Search(Query{Class: "car", Limit: 20},
		Options{HomeChunkAccounting: true, BatchSize: 8, Seed: 57})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) < 20 {
		t.Fatalf("found %d results", len(rep.Results))
	}
}
