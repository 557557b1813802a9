// Package perf is the legacy switch-pair suite behind BENCH_engine.json:
// three pairs of end-to-end engine runs that differ in exactly one switch —
// static vs adaptive round sizing against a slow backend, single-replica
// routing vs scatter-gather over a heterogeneous fleet, and fair-share vs
// global-budget scheduling on a mixed fleet — plus one memo-cache fleet
// row, measured with explicit op counts and allocation accounting.
//
// cmd/exbench runs it from a plain binary (`exbench -bench-out` writes the
// snapshot, `exbench -bench-compare` gates a fresh run against the
// committed one). Everything else about engine performance is measured by
// the benchmark/ harness, which compares parent against change with
// spread; these pairs stay here until that harness can express a switch.
package perf

import (
	"context"
	"fmt"
	"runtime"
	"time"

	exsample "github.com/exsample/exsample"
	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/backend/router"
)

// Result is one benchmark's snapshot entry.
type Result struct {
	// Name identifies the benchmark; names are stable across snapshots so
	// trajectories can be diffed.
	Name string `json:"name"`
	// Ops is how many times the op ran (after one untimed warmup).
	Ops int `json:"ops"`
	// NsPerOp, AllocsPerOp and BytesPerOp are the per-op wall time and
	// allocation averages over the measured ops.
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// Metrics carries benchmark-specific values (frames/op, frames/s, ...),
	// averaged over the measured ops.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the BENCH_engine.json document.
type Snapshot struct {
	// GoVersion, GOOS and GOARCH identify the toolchain and platform the
	// numbers were measured on — the snapshot is a trajectory record, not a
	// cross-machine contract.
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Suite holds one entry per benchmark, in a fixed order.
	Suite []Result `json:"suite"`
}

// measure runs op ops times (after one untimed warmup call) and returns
// wall-time and allocation averages plus the merged benchmark metrics.
func measure(name string, ops int, op func() (map[string]float64, error)) (Result, error) {
	if _, err := op(); err != nil {
		return Result{}, fmt.Errorf("%s: warmup: %w", name, err)
	}
	metrics := make(map[string]float64)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < ops; i++ {
		m, err := op()
		if err != nil {
			return Result{}, fmt.Errorf("%s: op %d: %w", name, i, err)
		}
		for k, v := range m {
			metrics[k] += v
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	for k := range metrics {
		metrics[k] /= float64(ops)
	}
	return Result{
		Name:        name,
		Ops:         ops,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(ops),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(ops),
		Metrics:     metrics,
	}, nil
}

// SlowBackend wraps a backend with a simulated wire/inference latency of
// overhead + perFrame*len(frames) per DetectBatch call — the fixed-cost
// batch shape (HTTP round trip + per-frame GPU time) that makes adaptive
// round sizing pay: bigger batches amortize the overhead. maxBatch is the
// advertised Hints.MaxBatch (0 = unbounded).
func SlowBackend(inner backend.Backend, overhead, perFrame time.Duration, maxBatch int) backend.Backend {
	return &slowBackend{inner: inner, overhead: overhead, perFrame: perFrame, maxBatch: maxBatch}
}

type slowBackend struct {
	inner    backend.Backend
	overhead time.Duration
	perFrame time.Duration
	maxBatch int
}

func (b *slowBackend) DetectBatch(ctx context.Context, class string, frames []int64) ([][]backend.Detection, error) {
	delay := b.overhead + time.Duration(len(frames))*b.perFrame
	select {
	case <-time.After(delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return b.inner.DetectBatch(ctx, class, frames)
}

func (b *slowBackend) Hints() backend.Hints {
	h := b.inner.Hints()
	h.MaxBatch = b.maxBatch
	return h
}

// engineOp runs n seeded queries on a fresh engine and reports frames/op,
// results/op and frames/s (detector frames per wall second).
func engineOp(src exsample.Source, class string, queries, limit int, opts exsample.EngineOptions, maxFrames int64, seed *uint64) (map[string]float64, error) {
	eng, err := exsample.NewEngine(opts)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	start := time.Now()
	handles := make([]*exsample.QueryHandle, queries)
	for i := range handles {
		*seed++
		handles[i], err = eng.Submit(context.Background(), src,
			exsample.Query{Class: class, Limit: limit},
			exsample.Options{Seed: *seed, MaxFrames: maxFrames})
		if err != nil {
			return nil, err
		}
	}
	var frames int64
	var found int
	for _, h := range handles {
		rep, err := h.Wait()
		if err != nil {
			return nil, err
		}
		frames += rep.FramesProcessed
		found += len(rep.Results)
	}
	secs := time.Since(start).Seconds()
	m := map[string]float64{
		"frames/op":  float64(frames),
		"results/op": float64(found),
	}
	if secs > 0 {
		m["frames/s"] = float64(frames) / secs
	}
	return m, nil
}

// budgetOp runs the mixed-fleet scheduling benchmark behind the global
// marginal-value budget: 8 concurrent queries — 4 over a dense repository,
// 4 random-order over a near-empty one — stopped once the engine has spent
// a fixed number of detector calls, then cancelled. Detector cost is held
// equal across arms, so results/kdetect (aggregate distinct results per
// thousand detector calls) isolates what the scheduler's frame placement
// is worth; the global-budget row's ratio over the fair-share row is the
// allocator's acceptance metric.
func budgetOp(dsHot, dsCold *exsample.Dataset, opts exsample.EngineOptions, seed *uint64) (map[string]float64, error) {
	const detectBudget = 6000
	eng, err := exsample.NewEngine(opts)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	start := time.Now()
	var handles []*exsample.QueryHandle
	for i := 0; i < 4; i++ {
		*seed++
		h, err := eng.Submit(context.Background(), dsHot,
			exsample.Query{Class: "car", Limit: 1 << 30},
			exsample.Options{Seed: *seed})
		if err != nil {
			return nil, err
		}
		handles = append(handles, h)
	}
	for i := 0; i < 4; i++ {
		*seed++
		h, err := eng.Submit(context.Background(), dsCold,
			exsample.Query{Class: "car", Limit: 1 << 30},
			exsample.Options{Strategy: exsample.StrategyRandom, Seed: *seed})
		if err != nil {
			return nil, err
		}
		handles = append(handles, h)
	}
	for eng.Stats().DetectCalls < detectBudget {
		time.Sleep(100 * time.Microsecond)
	}
	for _, h := range handles {
		h.Cancel()
	}
	var found int
	for _, h := range handles {
		rep, err := h.Wait()
		if err != nil && err != context.Canceled {
			return nil, err
		}
		found += len(rep.Results)
	}
	detects := eng.Stats().DetectCalls
	granted, requested := eng.Stats().BudgetGranted, eng.Stats().BudgetRequested
	secs := time.Since(start).Seconds()
	m := map[string]float64{
		"results/op": float64(found),
		"detects/op": float64(detects),
	}
	if detects > 0 {
		m["results/kdetect"] = float64(found) / float64(detects) * 1000
	}
	if requested > 0 {
		m["grant-ratio"] = float64(granted) / float64(requested)
	}
	if secs > 0 {
		m["results/s"] = float64(found) / secs
	}
	return m, nil
}

// RunSuite measures the three switch pairs and the memo-cache fleet row,
// in BENCH_engine.json's order. It is deliberately small (seconds, not
// minutes): the slow-backend and fleet rows are bound by simulated sleeps
// and the scheduling and memo-cache rows gate count ratios, so a few ops
// per row suffice.
func RunSuite() (*Snapshot, error) {
	snap := &Snapshot{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}

	// Adaptive vs static round sizing against a slow fixed-overhead
	// backend: same repository, same budget, the only difference is
	// whether the quota may grow. The adaptive arm's frames/s advantage is
	// the pair's acceptance metric.
	slowSpec := exsample.SynthSpec{
		NumFrames:    200_000,
		NumInstances: 300,
		Class:        "car",
		MeanDuration: 150,
		SkewFraction: 1.0 / 16,
		ChunkFrames:  4000,
		Seed:         21,
	}
	src, err := exsample.Synthesize(slowSpec)
	if err != nil {
		return nil, err
	}
	slow, err := exsample.Synthesize(slowSpec,
		exsample.WithBackend(SlowBackend(src.Backend(), 2*time.Millisecond, 20*time.Microsecond, 64)))
	if err != nil {
		return nil, err
	}
	for _, arm := range []struct {
		name     string
		adaptive bool
	}{
		{"engine_static_slowbackend", false},
		{"engine_adaptive_slowbackend", true},
	} {
		aseed := uint64(500)
		res, err := measure(arm.name, 2, func() (map[string]float64, error) {
			// Frame-budgeted, not result-limited: both arms process the
			// same 256 frames per query; only the batching differs.
			return engineOp(slow, "car", 2, 1_000_000,
				exsample.EngineOptions{Workers: 2, FramesPerRound: 2, AdaptiveRounds: arm.adaptive},
				256, &aseed)
		})
		if err != nil {
			return nil, err
		}
		snap.Suite = append(snap.Suite, res)
	}

	// Heterogeneous fleet: one fast replica (weight 4) and three slower,
	// smaller-batch ones (weight 3 each) behind the capacity-aware router,
	// single-replica routing versus scatter-gather over the same frame
	// budget. In single mode every 256-frame round splits at the fleet's
	// min MaxBatch and runs serially on whichever replica the router picks;
	// in scatter mode the round crosses the router whole and fans out
	// proportional to capacity, so the round takes one slice-time instead
	// of a sum of batch-times. The scatter row's frames/s multiple over the
	// single row — recorded as vs-single-x — is the fleet tier's
	// acceptance metric (>= 2.5x by construction of the latency model).
	//
	// The source is deliberately sparse and coarsely chunked (20 chunks):
	// sampler decision time is additive to both arms, so keeping it small
	// relative to the simulated backend latency is what lets the ratio
	// reflect the router rather than the scheduler.
	heteroSpec := exsample.SynthSpec{
		NumFrames:    200_000,
		NumInstances: 40,
		Class:        "car",
		MeanDuration: 60,
		SkewFraction: 1.0 / 16,
		ChunkFrames:  10_000,
		Seed:         27,
	}
	heteroFleet := func(scatter bool) (*exsample.Dataset, *router.Router, error) {
		specs := make([]router.ReplicaSpec, 4)
		for i := range specs {
			twin, err := exsample.Synthesize(heteroSpec)
			if err != nil {
				return nil, nil, err
			}
			// Weight 4:3 matches the per-frame cost ratio (60µs vs 80µs),
			// so scatter shares finish near-simultaneously; the slow
			// replicas' MaxBatch 64 drags the fleet-wide single-mode batch
			// ceiling down to 64 (min across replicas), exactly the
			// lowest-common-denominator tax scatter mode exists to remove.
			if i == 0 {
				specs[i] = router.ReplicaSpec{
					Backend: SlowBackend(twin.Backend(), 500*time.Microsecond, 60*time.Microsecond, 256),
					Name:    "fast",
					Weight:  4,
				}
			} else {
				specs[i] = router.ReplicaSpec{
					Backend: SlowBackend(twin.Backend(), 500*time.Microsecond, 80*time.Microsecond, 64),
					Name:    fmt.Sprintf("slow-%d", i),
					Weight:  3,
				}
			}
		}
		r, err := router.New(router.Config{Specs: specs, Scatter: scatter})
		if err != nil {
			return nil, nil, err
		}
		ds, err := exsample.Synthesize(heteroSpec, exsample.WithBackend(r))
		if err != nil {
			r.Close()
			return nil, nil, err
		}
		return ds, r, nil
	}
	var singleFS float64
	for _, arm := range []struct {
		name    string
		scatter bool
	}{
		{"hetero_fleet_single", false},
		{"hetero_fleet_scatter", true},
	} {
		ds, rtr, err := heteroFleet(arm.scatter)
		if err != nil {
			return nil, err
		}
		hseed := uint64(600)
		res, merr := measure(arm.name, 3, func() (map[string]float64, error) {
			// Frame-budgeted, one query: both arms pay for the same 2048
			// frames; only how the router spends the fleet differs. The
			// warmup op also warms the router's EWMAs past cold start, so
			// the measured single-mode ops route to the settled replica.
			return engineOp(ds, "car", 1, 1_000_000,
				exsample.EngineOptions{Workers: 2, FramesPerRound: 256}, 2048, &hseed)
		})
		rtr.Close()
		if merr != nil {
			return nil, merr
		}
		if arm.scatter {
			if singleFS > 0 {
				res.Metrics["vs-single-x"] = res.Metrics["frames/s"] / singleFS
			}
		} else {
			singleFS = res.Metrics["frames/s"]
		}
		snap.Suite = append(snap.Suite, res)
	}

	// Fair-share vs global marginal-value budget on the mixed hot/cold
	// fleet, both arms stopped at the same detector-call budget. The
	// global-budget row's results/kdetect over the fair-share row's is the
	// scheduler-level allocator's win at equal detector cost.
	hotSpec := exsample.SynthSpec{
		NumFrames:    200_000,
		NumInstances: 5000,
		Class:        "car",
		MeanDuration: 4,
		SkewFraction: 1.0 / 4,
		ChunkFrames:  4000,
		Seed:         31,
	}
	coldSpec := hotSpec
	coldSpec.NumInstances = 2
	coldSpec.MeanDuration = 10
	coldSpec.Seed = 32
	dsHot, err := exsample.Synthesize(hotSpec)
	if err != nil {
		return nil, err
	}
	dsCold, err := exsample.Synthesize(coldSpec)
	if err != nil {
		return nil, err
	}
	for _, arm := range []struct {
		name string
		opts exsample.EngineOptions
	}{
		{"engine_fairshare_mixedfleet", exsample.EngineOptions{Workers: 4, FramesPerRound: 16}},
		{"engine_globalbudget_mixedfleet", exsample.EngineOptions{Workers: 4, FramesPerRound: 16,
			GlobalBudget: 40}},
	} {
		bseed := uint64(9000)
		res, err := measure(arm.name, 2, func() (map[string]float64, error) {
			return budgetOp(dsHot, dsCold, arm.opts, &bseed)
		})
		if err != nil {
			return nil, err
		}
		snap.Suite = append(snap.Suite, res)
	}

	// The memo cache on an overlapping fleet: four same-class,
	// different-seed queries sharing one memo cache, with Workers 1 so the
	// schedule (and therefore every count below) is deterministic. The
	// source is deliberately small and densely chunked — 250-frame chunks
	// — so fleet-mates sampling the same chunk collide on actual frames,
	// not just chunks, and a hit spares a detector call: results/kdetect
	// is the row's gated metric. frames/s is deliberately not reported:
	// the row exists to gate counts, and a wall-clock metric would only
	// add gate noise. The row keeps its committed name, cache_aware_off,
	// from when it was the unaware arm of a pair.
	fleetSrc, err := exsample.Synthesize(exsample.SynthSpec{
		NumFrames:    20_000,
		NumInstances: 40,
		Class:        "car",
		MeanDuration: 30,
		SkewFraction: 1.0 / 8,
		ChunkFrames:  250,
		Seed:         23,
	})
	if err != nil {
		return nil, err
	}
	res, err := measure("cache_aware_off", 2, func() (map[string]float64, error) {
		eng, err := exsample.NewEngine(exsample.EngineOptions{
			Workers:        1,
			FramesPerRound: 4,
			CacheEntries:   1 << 16,
		})
		if err != nil {
			return nil, err
		}
		defer eng.Close()
		handles := make([]*exsample.QueryHandle, 4)
		for i := range handles {
			handles[i], err = eng.Submit(context.Background(), fleetSrc,
				exsample.Query{Class: "car", Limit: 20},
				exsample.Options{Seed: uint64(8100 + i)})
			if err != nil {
				return nil, err
			}
		}
		var found int
		var hits, misses int64
		for _, h := range handles {
			rep, err := h.Wait()
			if err != nil {
				return nil, err
			}
			found += len(rep.Results)
			hits += rep.CacheHits
			misses += rep.CacheMisses
		}
		m := map[string]float64{
			"results/op": float64(found),
			"hits/op":    float64(hits),
			"detects/op": float64(misses),
		}
		if misses > 0 {
			m["results/kdetect"] = float64(found) / float64(misses) * 1000
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	snap.Suite = append(snap.Suite, res)

	return snap, nil
}
