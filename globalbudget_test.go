package exsample

import (
	"context"
	"reflect"
	"testing"
)

// TestEngineGlobalBudgetMatchesFairShareSingleQuery: with one query the
// marginal-value planner has nobody to steer frames between, so the budget
// engine must be byte-identical to the fair-share engine — and therefore to
// Dataset.Search with BatchSize = FramesPerRound. This is the degenerate
// end of the equivalence contract documented on EngineOptions.GlobalBudget.
func TestEngineGlobalBudgetMatchesFairShareSingleQuery(t *testing.T) {
	ds := smallDataset(t, WithPerfectDetector())
	q := Query{Class: "car", Limit: 25}

	want, err := ds.Search(q, Options{BatchSize: 16, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, EngineOptions{Workers: 4, FramesPerRound: 16, GlobalBudget: 16})
	h, err := e.Submit(context.Background(), ds, q, Options{Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("budget engine diverged from fair-share Search (frames %d vs %d, results %d vs %d)",
			got.FramesProcessed, want.FramesProcessed, len(got.Results), len(want.Results))
	}
	st := e.Stats()
	if st.BudgetGranted == 0 || st.BudgetGranted != st.BudgetRequested {
		t.Fatalf("budget counters = (%d, %d); an uncontended budget must grant every requested frame",
			st.BudgetGranted, st.BudgetRequested)
	}
}

// TestEngineGlobalBudgetMatchesFairShareIdenticalFleet: queries with
// identical beliefs have identical marginal values, so the water-filling
// plan degenerates to an even split — fair-share exactly. Every member of
// an identical fleet under a covering budget must therefore reproduce the
// single-query Search report byte for byte. (No shared memo cache here:
// cache hit counts depend on inter-query ordering and would break
// DeepEqual without changing any pick.)
func TestEngineGlobalBudgetMatchesFairShareIdenticalFleet(t *testing.T) {
	const fleet = 4
	ds := smallDataset(t, WithPerfectDetector())
	q := Query{Class: "car", Limit: 25}

	want, err := ds.Search(q, Options{BatchSize: 8, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, EngineOptions{Workers: 4, FramesPerRound: 8, GlobalBudget: 8 * fleet})
	var handles []*QueryHandle
	for i := 0; i < fleet; i++ {
		h, err := e.Submit(context.Background(), ds, q, Options{Seed: 73})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for i, h := range handles {
		got, err := h.Wait()
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("fleet member %d diverged from fair-share Search (frames %d vs %d, results %d vs %d)",
				i, got.FramesProcessed, want.FramesProcessed, len(got.Results), len(want.Results))
		}
	}
}

// TestEngineGlobalBudgetFloorPreventsStarvation: a query whose marginal
// value has decayed to nearly nothing — a random-order query for a class
// the dataset does not contain — still terminates under a contended
// budget, because the floor guarantees it frames every round while the
// planner steers the surplus to the hot query.
func TestEngineGlobalBudgetFloorPreventsStarvation(t *testing.T) {
	ds, err := OpenProfile("dashcam", 0.02, 7, WithPerfectDetector())
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, EngineOptions{Workers: 2, FramesPerRound: 8,
		GlobalBudget: 10})

	hot, err := e.Submit(context.Background(), ds, Query{Class: "person", Limit: 1 << 30},
		Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := e.Submit(context.Background(), ds, Query{Class: "bus", Limit: 1 << 30},
		Options{Strategy: StrategyRandom, Seed: 12, MaxFrames: 400})
	if err != nil {
		t.Fatal(err)
	}

	rep, err := cold.Wait()
	if err != nil {
		t.Fatalf("starved query never terminated cleanly: %v", err)
	}
	if rep.FramesProcessed != 400 {
		t.Fatalf("cold query processed %d frames, want its full MaxFrames 400", rep.FramesProcessed)
	}
	cg, cr := cold.BudgetCounters()
	if cg < 400 {
		t.Fatalf("cold query granted %d frames, fewer than it consumed", cg)
	}
	if cg >= cr {
		t.Fatalf("cold counters = (%d, %d): the budget never constrained it, test is vacuous", cg, cr)
	}
	hot.Cancel()
	if _, err := hot.Wait(); err == nil {
		t.Fatal("cancelled hot query reported success")
	}
	hg, _ := hot.BudgetCounters()
	if hg <= cg {
		t.Fatalf("hot query granted %d frames vs cold's %d; the planner never steered the surplus", hg, cg)
	}
}

// TestEngineGlobalBudgetMixedFleet: a track query and a distinct-object
// query share one contended GlobalBudget, so the planner ranks the track
// query by its plan's marginal value every round. Whatever frames it
// grants, the track query's coarse grid still runs to completion, so its
// result set equals TrackSearch's.
func TestEngineGlobalBudgetMixedFleet(t *testing.T) {
	ds := trackScene(t, WithPerfectDetector())
	want, err := TrackSearch(ds, trackPred(), TrackOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, EngineOptions{Workers: 4, FramesPerRound: 16, GlobalBudget: 16})
	dh, err := e.Submit(context.Background(), ds, Query{Class: "car", Limit: 1 << 30},
		Options{Seed: 3, MaxFrames: 2000})
	if err != nil {
		t.Fatal(err)
	}
	th, err := e.SubmitTrack(context.Background(), ds, trackPred(), TrackOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := th.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normTracks(want.Results), normTracks(got.Results)) {
		t.Fatalf("track results under the budget diverge from TrackSearch:\nbudget: %+v\nsearch: %+v",
			normTracks(got.Results), normTracks(want.Results))
	}
	if g, _ := th.BudgetCounters(); g <= 0 {
		t.Fatalf("track query granted %d frames; the planner never valued it", g)
	}
	if _, err := dh.Wait(); err != nil {
		t.Fatal(err)
	}
}
