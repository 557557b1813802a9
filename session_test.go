package exsample

import "testing"

func TestSessionBasicLoop(t *testing.T) {
	ds := smallDataset(t, WithPerfectDetector())
	sess, err := ds.NewSession(Query{Class: "car", Limit: 15}, Options{Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for !sess.Done() {
		info, ok, err := sess.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		steps++
		if info.Chunk < 0 {
			t.Fatal("exsample session did not report a chunk")
		}
		if steps > 100000 {
			t.Fatal("session never finished")
		}
	}
	if len(sess.Results()) < 15 {
		t.Fatalf("session found %d results", len(sess.Results()))
	}
	if sess.Frames() != int64(steps) {
		t.Fatalf("Frames() = %d, steps = %d", sess.Frames(), steps)
	}
	if sess.Seconds() <= 0 {
		t.Fatal("no time charged")
	}
	if sess.Recall() <= 0 {
		t.Fatal("zero recall")
	}
}

func TestSessionMatchesSearch(t *testing.T) {
	// Driving a session to the same stopping condition must reproduce
	// Search exactly (same seed, same strategy).
	ds := smallDataset(t, WithPerfectDetector())
	q := Query{Class: "car", Limit: 20}
	opts := Options{Seed: 93}
	rep, err := ds.Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := ds.NewSession(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	for !sess.Done() {
		if _, ok, err := sess.Step(); err != nil || !ok {
			if err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if sess.Frames() != rep.FramesProcessed {
		t.Fatalf("session frames %d != search %d", sess.Frames(), rep.FramesProcessed)
	}
	if len(sess.Results()) != len(rep.Results) {
		t.Fatalf("session results %d != search %d", len(sess.Results()), len(rep.Results))
	}
	for i := range rep.Results {
		if sess.Results()[i] != rep.Results[i] {
			t.Fatalf("result %d differs", i)
		}
	}
}

func TestSessionAllStrategies(t *testing.T) {
	ds := smallDataset(t)
	for _, strat := range []Strategy{StrategyExSample, StrategyRandom, StrategyRandomPlus, StrategySequential, StrategyProxy} {
		sess, err := ds.NewSession(Query{Class: "car", Limit: 5}, Options{Strategy: strat, Seed: 95})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		for i := 0; i < 100000 && !sess.Done(); i++ {
			if _, ok, err := sess.Step(); err != nil || !ok {
				if err != nil {
					t.Fatalf("%v: %v", strat, err)
				}
				break
			}
		}
		if len(sess.Results()) < 5 {
			t.Errorf("%v: session found %d results", strat, len(sess.Results()))
		}
		if strat == StrategyProxy && sess.Seconds() < ds.ScanSeconds() {
			t.Errorf("proxy session did not charge the scan")
		}
	}
}

func TestSessionExhaustion(t *testing.T) {
	ds, err := Synthesize(SynthSpec{
		NumFrames:    2000,
		NumInstances: 3,
		Class:        "car",
		MeanDuration: 10,
		ChunkFrames:  500,
		Seed:         97,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := ds.NewSession(Query{Class: "car", Limit: 1000}, Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		_, ok, err := sess.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		steps++
	}
	if steps != 2000 {
		t.Fatalf("session processed %d frames before exhaustion, want 2000", steps)
	}
	// Further steps keep returning not-ok without error.
	if _, ok, err := sess.Step(); ok || err != nil {
		t.Fatalf("post-exhaustion Step = %v, %v", ok, err)
	}
}

func TestSessionChunkStats(t *testing.T) {
	ds := smallDataset(t, WithPerfectDetector())
	sess, err := ds.NewSession(Query{Class: "car", Limit: 30}, Options{Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	for !sess.Done() {
		if _, ok, _ := sess.Step(); !ok {
			break
		}
	}
	stats := sess.ChunkStats()
	if len(stats) != ds.NumChunks() {
		t.Fatalf("%d chunk stats for %d chunks", len(stats), ds.NumChunks())
	}
	var totalN int64
	for _, cs := range stats {
		if cs.End <= cs.Start {
			t.Fatalf("bad chunk bounds %+v", cs)
		}
		if cs.Estimate <= 0 {
			t.Fatalf("non-positive estimate %+v", cs)
		}
		totalN += cs.N
	}
	if totalN != sess.Frames() {
		t.Fatalf("chunk n sum %d != frames %d", totalN, sess.Frames())
	}
	// Non-chunked sessions return nil.
	rsess, err := ds.NewSession(Query{Class: "car", Limit: 1}, Options{Strategy: StrategyRandom, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rsess.ChunkStats() != nil {
		t.Fatal("random session returned chunk stats")
	}
}

func TestSessionValidation(t *testing.T) {
	ds := smallDataset(t)
	if _, err := ds.NewSession(Query{}, Options{}); err == nil {
		t.Error("empty class accepted")
	}
	if _, err := ds.NewSession(Query{Class: "dragon", Limit: 1}, Options{}); err == nil {
		t.Error("unknown class accepted")
	}
	if _, err := ds.NewSession(Query{Class: "car", Limit: 1}, Options{BatchSize: 8}); err == nil {
		t.Error("batched session accepted")
	}
	if _, err := ds.NewSession(Query{Class: "car", Limit: -5}, Options{}); err == nil {
		t.Error("negative limit accepted")
	}
	if _, err := ds.NewSession(Query{Class: "car", RecallTarget: 1.5}, Options{}); err == nil {
		t.Error("recall target above 1 accepted")
	}
}
