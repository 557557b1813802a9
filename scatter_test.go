package exsample

import (
	"context"
	"reflect"
	"testing"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/backend/router"
)

// TestScatterReportsByteIdentical: routing a query's batches through a
// heterogeneous 4-replica router — scatter off AND scatter on — leaves
// the seeded report byte-identical to the plain routerless run. Replicas
// are twins, so however a batch is sliced and reassembled, every frame's
// detections (and charged costs) are the same; scatter must keep it that
// way, and scatter-off must remain byte-for-byte the pre-scatter router.
func TestScatterReportsByteIdentical(t *testing.T) {
	const frames = 4000
	const seed = 700
	q := Query{Class: "car", Limit: 1 << 30}
	opts := Options{Seed: 41, MaxFrames: 400}

	runEngine := func(ds *Dataset) *Report {
		t.Helper()
		e := newTestEngine(t, EngineOptions{Workers: 2, FramesPerRound: 32})
		h, err := e.Submit(context.Background(), ds, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		for range h.Events() {
		}
		rep, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	baseline := runEngine(elasticShard(t, frames, seed))

	build := func(scatter bool) (*Dataset, *router.Router) {
		t.Helper()
		specs := make([]router.ReplicaSpec, 4)
		for i := range specs {
			twin := elasticShard(t, frames, seed)
			specs[i] = router.ReplicaSpec{Backend: twin.Backend()}
			if i == 0 {
				specs[i].Weight = 4
			} else {
				specs[i].Weight = 1
			}
		}
		r, err := router.New(router.Config{Specs: specs, Scatter: scatter})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		var be backend.Backend = r
		return elasticShard(t, frames, seed, WithBackend(be)), r
	}

	dsOff, _ := build(false)
	off := runEngine(dsOff)
	if !reflect.DeepEqual(baseline, off) {
		t.Fatalf("scatter-off router diverged from the routerless baseline (frames %d vs %d, results %d vs %d)",
			off.FramesProcessed, baseline.FramesProcessed, len(off.Results), len(baseline.Results))
	}

	dsOn, rOn := build(true)
	on := runEngine(dsOn)
	if !reflect.DeepEqual(baseline, on) {
		t.Fatalf("scatter-gather became visible in the report (frames %d vs %d, results %d vs %d, seconds %v vs %v)",
			on.FramesProcessed, baseline.FramesProcessed, len(on.Results), len(baseline.Results),
			on.TotalSeconds(), baseline.TotalSeconds())
	}
	if rOn.Scatters() == 0 {
		t.Fatal("scatter-on run never scattered a batch — the identity above proved nothing")
	}
	var served int
	for _, st := range rOn.Stats() {
		if st.Slices > 0 {
			served++
		}
	}
	if served < 2 {
		t.Fatalf("only %d replicas served slices, want the batch spread across >= 2", served)
	}
}

// TestScatterAdaptiveRoundsComplete: adaptive round sizing over a
// scattering router — one quota controller for the router's backend key,
// whatever the fleet's weights — runs to completion and reports the same
// results as the routerless adaptive run.
func TestScatterAdaptiveRoundsComplete(t *testing.T) {
	const frames = 4000
	const seed = 701
	// Limit-bounded (10 of the 40 synthesized instances, no frame cap):
	// both runs stop at the limit, so the result count is schedule-proof
	// even though adaptive quota trajectories are clock-dependent.
	q := Query{Class: "car", Limit: 10}
	opts := Options{Seed: 42}

	runEngine := func(ds *Dataset) *Report {
		t.Helper()
		e := newTestEngine(t, EngineOptions{Workers: 2, FramesPerRound: 32, AdaptiveRounds: true})
		h, err := e.Submit(context.Background(), ds, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		for range h.Events() {
		}
		rep, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	specs := make([]router.ReplicaSpec, 4)
	for i := range specs {
		twin := elasticShard(t, frames, seed)
		specs[i] = router.ReplicaSpec{Backend: twin.Backend(), Weight: []float64{4, 1, 1, 1}[i]}
	}
	r, err := router.New(router.Config{Specs: specs, Scatter: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	rep := runEngine(elasticShard(t, frames, seed, WithBackend(r)))
	if rep.FramesProcessed == 0 {
		t.Fatal("adaptive scatter run processed no frames")
	}
	plain := runEngine(elasticShard(t, frames, seed))
	if len(rep.Results) != len(plain.Results) {
		t.Fatalf("adaptive scatter found %d results, routerless adaptive found %d", len(rep.Results), len(plain.Results))
	}
}

// TestScatterAdaptiveDeadReplicaShrinksQuota: the capacity-loss signal the
// adaptive sizer keeps, end to end through a real router. One replica of a
// scattering fleet always fails; its slices fail over to the twins until
// its breaker opens, the router's BreakerOpens edge reaches the sizer as a
// capacity loss, and the query still finds what the routerless run finds.
func TestScatterAdaptiveDeadReplicaShrinksQuota(t *testing.T) {
	const frames = 4000
	const seed = 702
	// Unbounded and uncapped: both runs sample every frame, so the result
	// count is schedule-proof even though adaptive quota trajectories are
	// clock-dependent.
	q := Query{Class: "car", Limit: 1 << 30}
	opts := Options{Seed: 43}

	runEngine := func(ds *Dataset) (*Report, EngineStats) {
		t.Helper()
		e := newTestEngine(t, EngineOptions{Workers: 2, FramesPerRound: 32, AdaptiveRounds: true})
		h, err := e.Submit(context.Background(), ds, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		for range h.Events() {
		}
		rep, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return rep, e.Stats()
	}

	// Explicit equal weights keep the dead replica in every scatter split
	// until its breaker opens (a live-derived weight would starve it).
	specs := []router.ReplicaSpec{
		{Backend: elasticShard(t, frames, seed).Backend(), Weight: 1},
		{Backend: failingBackend{}, Weight: 1},
		{Backend: elasticShard(t, frames, seed).Backend(), Weight: 1},
	}
	r, err := router.New(router.Config{Specs: specs, Scatter: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	rep, st := runEngine(elasticShard(t, frames, seed, WithBackend(r)))
	if r.Stats()[1].BreakerOpens == 0 {
		t.Fatalf("dead replica's breaker never opened (router stats %+v)", r.Stats())
	}
	if st.CapacityLosses < 1 {
		t.Fatalf("breaker open never reached the sizer: %+v", st)
	}
	plain, _ := runEngine(elasticShard(t, frames, seed))
	if len(plain.Results) == 0 || len(rep.Results) != len(plain.Results) {
		t.Fatalf("dead-replica run found %d results, routerless run found %d", len(rep.Results), len(plain.Results))
	}
}
