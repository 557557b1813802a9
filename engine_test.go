package exsample

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
)

func newTestEngine(t *testing.T, opts EngineOptions) *Engine {
	t.Helper()
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestEngineMatchesSearchExactly(t *testing.T) {
	// A single seeded query through the engine must be byte-identical to
	// Dataset.Search — the engine adds scheduling, never behavior.
	ds := smallDataset(t, WithPerfectDetector())
	q := Query{Class: "car", Limit: 25}
	opts := Options{Seed: 73}

	want, err := ds.Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, EngineOptions{Workers: 1, FramesPerRound: 1})
	h, err := e.Submit(context.Background(), ds, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("engine diverged from Search:\nsearch: frames=%d results=%d %+v\nengine: frames=%d results=%d %+v",
			want.FramesProcessed, len(want.Results), want,
			got.FramesProcessed, len(got.Results), got)
	}
}

func TestEngineBatchedMatchesBatchedSearch(t *testing.T) {
	// FramesPerRound has exactly Search's BatchSize semantics: a round's
	// picks are drawn before its updates apply. Worker count must not
	// matter — only the stateless detector is parallelized.
	ds := smallDataset(t, WithPerfectDetector())
	q := Query{Class: "car", Limit: 25}

	want, err := ds.Search(q, Options{BatchSize: 16, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		e := newTestEngine(t, EngineOptions{Workers: workers, FramesPerRound: 16})
		h, err := e.Submit(context.Background(), ds, q, Options{Seed: 73})
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: engine diverged from batched Search (frames %d vs %d, results %d vs %d)",
				workers, got.FramesProcessed, want.FramesProcessed, len(got.Results), len(want.Results))
		}
	}
}

func TestEngineDeterministicUnderConcurrentLoad(t *testing.T) {
	// A query's outcome must not depend on what else the engine is
	// running: per-query state is isolated and apply order is pick order.
	ds := smallDataset(t, WithPerfectDetector())
	q := Query{Class: "car", Limit: 20}
	opts := Options{Seed: 41}

	want, err := ds.Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, EngineOptions{Workers: 4, FramesPerRound: 1})
	var others []*QueryHandle
	for i := 0; i < 3; i++ {
		h, err := e.Submit(context.Background(), ds, Query{Class: "car", Limit: 15},
			Options{Strategy: StrategyRandom, Seed: uint64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		others = append(others, h)
	}
	h, err := e.Submit(context.Background(), ds, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("concurrent load changed a query's outcome (frames %d vs %d, results %d vs %d)",
			got.FramesProcessed, want.FramesProcessed, len(got.Results), len(want.Results))
	}
	for _, o := range others {
		if _, err := o.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEngineManyConcurrentQueries(t *testing.T) {
	// The acceptance bar: 8+ simultaneous queries across two dataset
	// profiles, every one reaching its Limit or exhausting its dataset.
	dash, err := OpenProfile("dashcam", 0.02, 7, WithPerfectDetector())
	if err != nil {
		t.Fatal(err)
	}
	bdd, err := OpenProfile("bdd1k", 0.02, 8, WithPerfectDetector())
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		ds    *Dataset
		class string
		strat Strategy
	}
	specs := []spec{
		{dash, "bicycle", StrategyExSample},
		{dash, "bus", StrategyExSample},
		{dash, "traffic light", StrategyRandom},
		{dash, "truck", StrategyExSample},
		{bdd, "bike", StrategyExSample},
		{bdd, "bus", StrategyRandomPlus},
		{bdd, "person", StrategyExSample},
		{bdd, "truck", StrategyExSample},
		{bdd, "rider", StrategySequential},
	}
	e := newTestEngine(t, EngineOptions{Workers: 4, FramesPerRound: 2})
	handles := make([]*QueryHandle, len(specs))
	for i, sp := range specs {
		h, err := e.Submit(context.Background(), sp.ds, Query{Class: sp.class, Limit: 5},
			Options{Strategy: sp.strat, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatalf("submit %d (%s/%s): %v", i, sp.ds.Name(), sp.class, err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		rep, err := h.Wait()
		if err != nil {
			t.Fatalf("query %d (%s): %v", i, specs[i].class, err)
		}
		if len(rep.Results) < 5 && rep.FramesProcessed < specs[i].ds.NumFrames() {
			t.Errorf("query %d (%s/%s): %d results after %d frames — neither Limit nor exhaustion",
				i, specs[i].ds.Name(), specs[i].class, len(rep.Results), rep.FramesProcessed)
		}
	}
}

func TestEngineFairShareProgress(t *testing.T) {
	// Lock-step rounds with equal quotas: while the short query runs, the
	// long one must receive detector budget at the same rate.
	ds := smallDataset(t, WithPerfectDetector())
	e := newTestEngine(t, EngineOptions{Workers: 2, FramesPerRound: 1})

	long, err := e.Submit(context.Background(), ds, Query{Class: "car", Limit: 100000},
		Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	short, err := e.Submit(context.Background(), ds, Query{Class: "car", Limit: 10},
		Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	shortRep, err := short.Wait()
	if err != nil {
		t.Fatal(err)
	}
	long.Cancel()
	longRep, err := long.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query returned %v, want context.Canceled", err)
	}
	if len(shortRep.Results) < 10 {
		t.Fatalf("short query found %d results", len(shortRep.Results))
	}
	// The long query ran in lock-step with the short one, so by the time
	// the short query finished (plus at most a few rounds of cancellation
	// latency) the long one must have processed a comparable frame count.
	if longRep.FramesProcessed < shortRep.FramesProcessed-1 {
		t.Fatalf("long query starved: %d frames vs short query's %d",
			longRep.FramesProcessed, shortRep.FramesProcessed)
	}
}

func TestEngineCancellationMidQuery(t *testing.T) {
	ds := smallDataset(t, WithPerfectDetector())
	e := newTestEngine(t, EngineOptions{Workers: 2, FramesPerRound: 1, EventBuffer: 1 << 16})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := e.Submit(ctx, ds, Query{Class: "car", Limit: 100000}, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for ev := range h.Events() {
		seen++
		if ev.FramesProcessed == 0 {
			t.Fatal("event carries no progress")
		}
		if seen == 5 {
			cancel()
		}
	}
	rep, err := h.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if rep.FramesProcessed < 5 || rep.FramesProcessed >= ds.NumFrames() {
		t.Fatalf("partial report has %d frames", rep.FramesProcessed)
	}
}

func TestEngineEventOverflowNeverStallsScheduler(t *testing.T) {
	// A consumer that never drains a 1-slot event buffer: the scheduler
	// must keep running at full speed (the query completes), overflow must
	// be counted on Dropped, and the final Report must be complete and
	// byte-identical to an unthrottled run — event loss is lossy telemetry,
	// never lost work.
	ds := smallDataset(t, WithPerfectDetector())
	q := Query{Class: "car", Limit: 30}
	opts := Options{Seed: 17}

	want, err := ds.Search(q, Options{Seed: 17, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}

	e := newTestEngine(t, EngineOptions{Workers: 2, FramesPerRound: 4, EventBuffer: 1})
	h, err := e.Submit(context.Background(), ds, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately do not read h.Events() until the query is done.
	rep, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, rep) {
		t.Fatalf("report degraded by a slow consumer: frames %d vs %d, results %d vs %d",
			rep.FramesProcessed, want.FramesProcessed, len(rep.Results), len(want.Results))
	}
	if h.Dropped() == 0 {
		t.Fatalf("no events dropped with buffer 1 over %d frames", rep.FramesProcessed)
	}
	var delivered int64
	for range h.Events() {
		delivered++
	}
	if delivered > 1 {
		t.Fatalf("%d events buffered in a 1-slot channel", delivered)
	}
	if delivered+h.Dropped() != rep.FramesProcessed {
		t.Fatalf("delivered %d + dropped %d != %d frames processed",
			delivered, h.Dropped(), rep.FramesProcessed)
	}
}

func TestEngineEventsStreamComplete(t *testing.T) {
	ds := smallDataset(t, WithPerfectDetector())
	e := newTestEngine(t, EngineOptions{Workers: 2, FramesPerRound: 4, EventBuffer: 1 << 16})

	h, err := e.Submit(context.Background(), ds, Query{Class: "car", Limit: 20}, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var events, found int
	var lastSeconds float64
	for ev := range h.Events() {
		events++
		found += len(ev.New)
		if ev.Seconds < lastSeconds {
			t.Fatal("charged time went backwards")
		}
		lastSeconds = ev.Seconds
	}
	rep, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if h.Dropped() != 0 {
		t.Fatalf("%d events dropped with an oversized buffer", h.Dropped())
	}
	if int64(events) != rep.FramesProcessed {
		t.Fatalf("streamed %d events for %d frames", events, rep.FramesProcessed)
	}
	if found != len(rep.Results) {
		t.Fatalf("streamed %d results, report has %d", found, len(rep.Results))
	}
}

func TestEngineSubmitValidation(t *testing.T) {
	ds := smallDataset(t)
	e := newTestEngine(t, EngineOptions{})
	ctx := context.Background()

	cases := []struct {
		name string
		q    Query
		opts Options
	}{
		{"no stop condition", Query{Class: "car"}, Options{}},
		{"unknown class", Query{Class: "dragon", Limit: 1}, Options{}},
		{"batch size", Query{Class: "car", Limit: 1}, Options{BatchSize: 8}},
	}
	for _, tc := range cases {
		if _, err := e.Submit(ctx, ds, tc.q, tc.opts); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := NewEngine(EngineOptions{EventBuffer: -1}); err == nil {
		t.Error("negative event buffer accepted")
	}
	if _, err := NewEngine(EngineOptions{CacheEntries: -1}); err == nil {
		t.Error("negative cache entries accepted")
	}

	closed := newTestEngine(t, EngineOptions{})
	closed.Close()
	if _, err := closed.Submit(ctx, ds, Query{Class: "car", Limit: 1}, Options{}); err == nil {
		t.Error("Submit after Close accepted")
	}
}

// TestDriversAgreeOnOptions: Search, Session and Engine take one Options
// surface. Every row is accepted or rejected by all three alike, except
// BatchSize > 1, which only Search accepts: a Session steps one frame at a
// time and the engine sizes its own rounds.
func TestDriversAgreeOnOptions(t *testing.T) {
	ds := smallDataset(t, WithPerfectDetector())
	e := newTestEngine(t, EngineOptions{Workers: 1})
	q := Query{Class: "car", Limit: 1}
	nan := math.NaN()
	rows := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"zero", Options{}, true},
		{"exsample", Options{Strategy: StrategyExSample, Seed: 1}, true},
		{"random", Options{Strategy: StrategyRandom, Seed: 1}, true},
		{"random-plus", Options{Strategy: StrategyRandomPlus, Seed: 1}, true},
		{"sequential", Options{Strategy: StrategySequential}, true},
		{"proxy", Options{Strategy: StrategyProxy, Seed: 1}, true},
		{"unknown strategy", Options{Strategy: Strategy(99)}, false},
		{"numchunks", Options{NumChunks: 16}, true},
		{"negative numchunks", Options{NumChunks: -1}, false},
		{"numchunks on random", Options{Strategy: StrategyRandom, NumChunks: 16}, true},
		{"prior", Options{Alpha0: 0.5, Beta0: 2}, true},
		{"negative alpha", Options{Alpha0: -1}, false},
		{"negative beta", Options{Beta0: -1}, false},
		{"NaN alpha", Options{Alpha0: nan}, false},
		{"NaN beta", Options{Beta0: nan}, false},
		{"infinite alpha", Options{Alpha0: math.Inf(1)}, false},
		{"max frames", Options{MaxFrames: 100}, true},
		{"negative max frames", Options{MaxFrames: -1}, false},
		{"max seconds", Options{MaxSeconds: 5}, true},
		{"negative max seconds", Options{MaxSeconds: -1}, false},
		{"NaN max seconds", Options{MaxSeconds: nan}, false},
		{"iou", Options{IoUThreshold: 0.3}, true},
		{"iou above 1", Options{IoUThreshold: 2}, false},
		{"negative iou", Options{IoUThreshold: -0.1}, false},
		{"NaN iou", Options{IoUThreshold: nan}, false},
		{"batch 0", Options{BatchSize: 0}, true},
		{"batch 1", Options{BatchSize: 1}, true},
		{"batch 8", Options{BatchSize: 8}, true},
		{"batch 8 on random", Options{Strategy: StrategyRandom, BatchSize: 8}, true},
		{"negative batch", Options{BatchSize: -1}, false},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			_, searchErr := SearchSource(ds, q, row.opts)
			_, sessErr := NewSession(ds, q, row.opts)
			h, submitErr := e.Submit(context.Background(), ds, q, row.opts)
			if submitErr == nil {
				if _, err := h.Wait(); err != nil {
					t.Fatalf("engine query: %v", err)
				}
			}
			stepped := row.ok && row.opts.BatchSize <= 1
			for _, d := range []struct {
				driver string
				err    error
				ok     bool
			}{
				{"Search", searchErr, row.ok},
				{"Session", sessErr, stepped},
				{"Submit", submitErr, stepped},
			} {
				if (d.err == nil) != d.ok {
					t.Errorf("%s: err = %v, want accepted = %v", d.driver, d.err, d.ok)
				}
			}
		})
	}
}

func TestEngineCloseFinalizesQueries(t *testing.T) {
	ds := smallDataset(t, WithPerfectDetector())
	e, err := NewEngine(EngineOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h, err := e.Submit(context.Background(), ds, Query{Class: "car", Limit: 100000}, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if _, err := h.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait after Close = %v, want context.Canceled", err)
	}
	// The events channel must be closed so consumers unblock.
	for range h.Events() {
	}
}

func TestEngineAllStrategies(t *testing.T) {
	ds := smallDataset(t)
	e := newTestEngine(t, EngineOptions{Workers: 2})
	for _, strat := range []Strategy{StrategyExSample, StrategyRandom, StrategyRandomPlus, StrategySequential, StrategyProxy} {
		h, err := e.Submit(context.Background(), ds, Query{Class: "car", Limit: 5},
			Options{Strategy: strat, Seed: 95})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		rep, err := h.Wait()
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if len(rep.Results) < 5 {
			t.Errorf("%v: engine found %d results", strat, len(rep.Results))
		}
		if strat == StrategyProxy && rep.ScanSeconds <= 0 {
			t.Error("proxy query did not charge the scan")
		}
	}
}

func TestEngineMatchesSessionDrivenToExhaustion(t *testing.T) {
	// Engine and Session share the step loop; driving both over a small
	// dataset with no reachable limit must agree frame for frame.
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
	for {
		if _, ok, err := sess.Step(); err != nil {
			t.Fatal(err)
		} else if !ok {
			break
		}
	}
	e := newTestEngine(t, EngineOptions{Workers: 1})
	h, err := e.Submit(context.Background(), ds, Query{Class: "car", Limit: 1000}, Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FramesProcessed != sess.Frames() || len(rep.Results) != len(sess.Results()) {
		t.Fatalf("engine exhausted at %d frames/%d results, session at %d/%d",
			rep.FramesProcessed, len(rep.Results), sess.Frames(), len(sess.Results()))
	}
}

// TestEngineOptionDefaulting pins the sizing-knob defaulting rule: any
// non-positive Workers or FramesPerRound selects the documented default
// (NumCPU / 1) instead of failing construction.
func TestEngineOptionDefaulting(t *testing.T) {
	for _, v := range []int{0, -1, -1000} {
		e, err := NewEngine(EngineOptions{Workers: v, FramesPerRound: v})
		if err != nil {
			t.Fatalf("Workers=FramesPerRound=%d rejected: %v", v, err)
		}
		if got, want := e.Workers(), runtime.NumCPU(); got != want {
			t.Errorf("Workers=%d defaulted to %d, want NumCPU (%d)", v, got, want)
		}
		if got := e.opts.FramesPerRound; got != 1 {
			t.Errorf("FramesPerRound=%d defaulted to %d, want 1", v, got)
		}
		e.Close()
	}
	// Explicit positive values are taken as-is.
	e, err := NewEngine(EngineOptions{Workers: 3, FramesPerRound: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Workers() != 3 || e.opts.FramesPerRound != 7 {
		t.Errorf("explicit options overridden: Workers=%d FramesPerRound=%d", e.Workers(), e.opts.FramesPerRound)
	}
}
