// Benchmarks regenerating every table and figure in the paper's evaluation.
// Each benchmark runs the corresponding experiment harness at a reduced but
// shape-preserving scale; run with
//
//	go test -bench=. -benchmem
//
// and use cmd/exbench to print the full rendered tables. Custom metrics
// (savings ratios, geometric means, coverage) are reported per benchmark so
// the paper's headline numbers are visible straight from the bench output.
package exsample_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/exsample/exsample/internal/bench"

	exsample "github.com/exsample/exsample"
	"github.com/exsample/exsample/backend/httpbatch"
	"github.com/exsample/exsample/backend/router"
	"github.com/exsample/exsample/internal/perf"
)

// BenchmarkFig2 regenerates the §III-D belief-validation study (Figure 2):
// the Gamma(N1+0.1, n+1) belief against the empirical distribution of the
// true next-sample reward R(n+1).
func BenchmarkFig2(b *testing.B) {
	cfg := bench.DefaultFig2()
	cfg.NumInstances = 500
	cfg.Runs = 120
	cfg.Probes = []int64{100, 5000, 40000, 90000}
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
		var cov float64
		for _, row := range res.Rows {
			cov += row.Coverage95
		}
		b.ReportMetric(cov/float64(len(res.Rows)), "coverage95")
	}
}

// BenchmarkFig3 regenerates the §IV-B simulation grid (Figure 3): savings of
// ExSample over random across skew and duration settings. Reports the
// savings ratio of the heavy-skew cell, the paper's headline simulation
// number.
func BenchmarkFig3(b *testing.B) {
	cfg := bench.DefaultFig3()
	cfg.NumInstances = 500
	cfg.NumFrames = 500_000
	cfg.NumChunks = 64
	cfg.Trials = 3
	cfg.Budget = 5_000
	cfg.Skews = []float64{0, 1.0 / 32}
	cfg.MeanDurs = []float64{100, 700}
	cfg.Targets = []int64{10, 100}
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
		for _, cell := range res.Cells {
			if cell.Skew == 1.0/32 && cell.MeanDur == 700 {
				b.ReportMetric(cell.SavingsAt[1], "savings@100")
			}
		}
	}
}

// BenchmarkFig4 regenerates the §IV-C chunk-count sweep (Figure 4),
// including the Eq. IV.1 optimal-allocation dashed curves.
func BenchmarkFig4(b *testing.B) {
	cfg := bench.DefaultFig4()
	cfg.NumInstances = 500
	cfg.NumFrames = 500_000
	cfg.Trials = 3
	cfg.Budget = 5_000
	cfg.ChunkCounts = []int{1, 16, 128, 1024}
	cfg.Checkpoints = []int64{500, 2000, 5000}
	cfg.WithOptimal = true
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
		// Mid-trajectory advantage of 128 chunks over 1 chunk.
		var one, many float64
		for _, s := range res.Series {
			switch s.NumChunks {
			case 1:
				one = s.Found[1]
			case 128:
				many = s.Found[1]
			}
		}
		if one > 0 {
			b.ReportMetric(many/one, "128ch-vs-1ch")
		}
	}
}

// BenchmarkTable1 regenerates Table I: proxy scan time versus ExSample's
// time to 10/50/90% recall across all 43 dataset×class queries. Reports the
// fraction of queries where 90% recall beats the scan (the paper: all).
func BenchmarkTable1(b *testing.B) {
	cfg := bench.DefaultTable1()
	cfg.Scale = 0.02
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTable1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.BeatScanCount)/float64(len(res.Rows)), "beat-scan-frac")
	}
}

// BenchmarkFig5 regenerates the per-query savings study (Figure 5): time
// savings of ExSample over random at recall 0.1/0.5/0.9 on every query.
// Reports the overall geometric mean (the paper's 1.9x headline).
func BenchmarkFig5(b *testing.B) {
	cfg := bench.DefaultFig5()
	cfg.Scale = 0.02
	cfg.Trials = 3
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OverallGeoMean, "geomean-savings")
		b.ReportMetric(res.Max, "max-savings")
	}
}

// BenchmarkFig6 regenerates the skew panels (Figure 6): per-chunk instance
// histograms and the skew metric S for the five representative queries.
func BenchmarkFig6(b *testing.B) {
	cfg := bench.DefaultFig6()
	cfg.Scale = 0.1
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Panels {
			if p.Dataset == "dashcam" && p.Class == "bicycle" {
				b.ReportMetric(p.S, "S-dashcam-bicycle")
			}
		}
	}
}

// BenchmarkAblation runs the design-choice ablations: Thompson vs Bayes-UCB
// vs greedy, random+ vs uniform within chunks, and prior strength.
func BenchmarkAblation(b *testing.B) {
	cfg := bench.DefaultAblation()
	cfg.NumInstances = 500
	cfg.NumFrames = 500_000
	cfg.NumChunks = 64
	cfg.Target = 150
	cfg.Budget = 5_000
	cfg.Trials = 3
	cfg.Alpha0Values = []float64{0.1, 1}
	for i := 0; i < b.N; i++ {
		res, err := bench.RunAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensions measures the §VII future-work implementations
// (fusion, autochunk, home-chunk accounting) against the paper
// configuration and the baselines.
func BenchmarkExtensions(b *testing.B) {
	cfg := bench.DefaultExtensions()
	cfg.NumFrames = 200_000
	cfg.NumInstances = 200
	cfg.ChunkFrames = 200_000 / 32
	cfg.Trials = 3
	for i := 0; i < b.N; i++ {
		res, err := bench.RunExtensions(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
		var paper, random float64
		for _, row := range res.Rows {
			switch row.Variant {
			case "exsample (paper)":
				paper = row.MedianSeconds
			case "random":
				random = row.MedianSeconds
			}
		}
		if paper > 0 {
			b.ReportMetric(random/paper, "savings-vs-random")
		}
	}
}

// BenchmarkSearchExSample measures the raw throughput of the end-to-end
// search pipeline (sampler + detector + discriminator) per distinct result.
func BenchmarkSearchExSample(b *testing.B) {
	ds, err := exsample.OpenProfile("dashcam", 0.05, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := ds.Search(exsample.Query{Class: "traffic light", Limit: 20},
			exsample.Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Results) == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkEngineThroughput measures the concurrent query engine end to
// end: N simultaneous seeded queries over one dataset, multiplexed onto a
// shared detector worker pool. Reported metrics are aggregate frames and
// distinct results per benchmark iteration, the perf trajectory future
// scaling PRs (sharding, caching, multi-backend) measure against.
func BenchmarkEngineThroughput(b *testing.B) {
	ds, err := exsample.OpenProfile("dashcam", 0.05, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, queries := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("%d-queries", queries), func(b *testing.B) {
			var frames int64
			var found int
			for i := 0; i < b.N; i++ {
				eng, err := exsample.NewEngine(exsample.EngineOptions{
					Workers:        4,
					FramesPerRound: 4,
				})
				if err != nil {
					b.Fatal(err)
				}
				handles := make([]*exsample.QueryHandle, queries)
				for qi := range handles {
					handles[qi], err = eng.Submit(context.Background(), ds,
						exsample.Query{Class: "traffic light", Limit: 10},
						exsample.Options{Seed: uint64(i*queries + qi + 1)})
					if err != nil {
						b.Fatal(err)
					}
				}
				for _, h := range handles {
					rep, err := h.Wait()
					if err != nil {
						b.Fatal(err)
					}
					frames += rep.FramesProcessed
					found += len(rep.Results)
				}
				eng.Close()
			}
			b.ReportMetric(float64(frames)/float64(b.N), "frames/op")
			b.ReportMetric(float64(found)/float64(b.N), "results/op")
		})
	}
}

// BenchmarkSamplerDecision isolates the cost of one Thompson-sampling
// decision across 128 chunks — the per-frame scheduling overhead that must
// stay negligible next to detector inference.
func BenchmarkSamplerDecision(b *testing.B) {
	ds, err := exsample.Synthesize(exsample.SynthSpec{
		NumFrames:    1 << 20,
		NumInstances: 100,
		MeanDuration: 100,
		ChunkFrames:  1 << 13, // 128 chunks
		Seed:         9,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Drive the internal sampler through the public API with a detector
	// that is effectively free, so decision cost dominates.
	rep, err := ds.Search(exsample.Query{Class: "object", Limit: 1},
		exsample.Options{MaxFrames: 1, Seed: 1})
	if err != nil || rep.FramesProcessed != 1 {
		b.Fatalf("warmup failed: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := ds.Search(exsample.Query{Class: "object", Limit: 1000000},
			exsample.Options{MaxFrames: 256, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedThroughput measures the shard fan-out path: the same
// total repository split over 1, 2 or 4 shards, searched by 4 concurrent
// engine queries. The decision loop is identical across arms, so the spread
// isolates the cost of global-space remapping and per-shard routing.
func BenchmarkShardedThroughput(b *testing.B) {
	const totalFrames = 160_000
	for _, nShards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("%d-shards", nShards), func(b *testing.B) {
			shards := make([]*exsample.Dataset, nShards)
			for i := range shards {
				ds, err := exsample.Synthesize(exsample.SynthSpec{
					NumFrames:    totalFrames / int64(nShards),
					NumInstances: 200 / nShards,
					Class:        "car",
					MeanDuration: 120,
					SkewFraction: 1.0 / 8,
					ChunkFrames:  2000,
					Seed:         uint64(40 + i),
				})
				if err != nil {
					b.Fatal(err)
				}
				shards[i] = ds
			}
			src, err := exsample.NewShardedSource("bench", shards...)
			if err != nil {
				b.Fatal(err)
			}
			var frames int64
			for i := 0; i < b.N; i++ {
				eng, err := exsample.NewEngine(exsample.EngineOptions{
					Workers:        4,
					FramesPerRound: 4,
				})
				if err != nil {
					b.Fatal(err)
				}
				handles := make([]*exsample.QueryHandle, 4)
				for qi := range handles {
					handles[qi], err = eng.Submit(context.Background(), src,
						exsample.Query{Class: "car", Limit: 10},
						exsample.Options{Seed: uint64(i*4 + qi + 1)})
					if err != nil {
						b.Fatal(err)
					}
				}
				for _, h := range handles {
					rep, err := h.Wait()
					if err != nil {
						b.Fatal(err)
					}
					frames += rep.FramesProcessed
				}
				eng.Close()
			}
			b.ReportMetric(float64(frames)/float64(b.N), "frames/op")
		})
	}
}

// BenchmarkCacheHitRate measures the detector memo cache: 8 same-seeded
// queries run back to back on one engine, so all but the first hit the
// cache for every frame. Reported metrics are the aggregate hit rate and
// the charged-seconds saving over the uncached equivalent.
func BenchmarkCacheHitRate(b *testing.B) {
	ds, err := exsample.OpenProfile("dashcam", 0.05, 3)
	if err != nil {
		b.Fatal(err)
	}
	var hitRate, saved float64
	for i := 0; i < b.N; i++ {
		eng, err := exsample.NewEngine(exsample.EngineOptions{
			Workers:      4,
			CacheEntries: 1 << 17,
		})
		if err != nil {
			b.Fatal(err)
		}
		var cold, warm float64
		for qi := 0; qi < 8; qi++ {
			h, err := eng.Submit(context.Background(), ds,
				exsample.Query{Class: "traffic light", Limit: 10},
				exsample.Options{Seed: 11})
			if err != nil {
				b.Fatal(err)
			}
			rep, err := h.Wait()
			if err != nil {
				b.Fatal(err)
			}
			if qi == 0 {
				cold = rep.TotalSeconds()
			} else {
				warm += rep.TotalSeconds()
			}
		}
		hitRate += eng.CacheStats().HitRate()
		saved += 1 - warm/(7*cold)
		eng.Close()
	}
	b.ReportMetric(hitRate/float64(b.N), "hitrate")
	b.ReportMetric(saved/float64(b.N), "charged-s-saved")
}

// BenchmarkAdaptiveRounds measures feedback-controlled round sizing
// against a slow fixed-overhead backend (2ms per DetectBatch call + 20µs
// per frame — the HTTP-round-trip-plus-GPU shape): the static arm pays the
// call overhead every FramesPerRound frames, while the adaptive arm grows
// its quota toward the backend's MaxBatch and amortizes it. Both arms push
// the same 256-frame budget per query; the frames/s spread is the win.
func BenchmarkAdaptiveRounds(b *testing.B) {
	spec := exsample.SynthSpec{
		NumFrames:    200_000,
		NumInstances: 300,
		Class:        "car",
		MeanDuration: 150,
		SkewFraction: 1.0 / 16,
		ChunkFrames:  4000,
		Seed:         21,
	}
	inner, err := exsample.Synthesize(spec)
	if err != nil {
		b.Fatal(err)
	}
	slow := perf.SlowBackend(inner.Backend(), 2*time.Millisecond, 20*time.Microsecond, 64)
	ds, err := exsample.Synthesize(spec, exsample.WithBackend(slow))
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct {
		name     string
		adaptive bool
	}{
		{"static", false},
		{"adaptive", true},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var frames int64
			start := time.Now()
			for i := 0; i < b.N; i++ {
				eng, err := exsample.NewEngine(exsample.EngineOptions{
					Workers:        2,
					FramesPerRound: 2,
					AdaptiveRounds: arm.adaptive,
				})
				if err != nil {
					b.Fatal(err)
				}
				handles := make([]*exsample.QueryHandle, 2)
				for qi := range handles {
					handles[qi], err = eng.Submit(context.Background(), ds,
						exsample.Query{Class: "car", Limit: 1_000_000},
						exsample.Options{Seed: uint64(i*2 + qi + 1), MaxFrames: 256})
					if err != nil {
						b.Fatal(err)
					}
				}
				for _, h := range handles {
					rep, err := h.Wait()
					if err != nil {
						b.Fatal(err)
					}
					frames += rep.FramesProcessed
				}
				eng.Close()
			}
			if secs := time.Since(start).Seconds(); secs > 0 {
				b.ReportMetric(float64(frames)/secs, "frames/s")
			}
		})
	}
}

// BenchmarkHeteroFleet measures the capacity-aware router over a
// heterogeneous fleet — one fast replica (500µs + 60µs/frame, MaxBatch 256,
// weight 4) and three slower, smaller-batch ones (500µs + 80µs/frame,
// MaxBatch 64, weight 3) — in its two modes. single routes each batch
// whole to one replica, so every round is serialized at the fleet's min
// MaxBatch on whichever replica wins the weighted pick; scatter splits the
// round across all healthy replicas proportional to capacity and the round
// costs one slice-time. Both arms push the same 2048-frame budget; the
// frames/s spread is scatter-gather's win (see hetero_fleet_* in the perf
// suite for the gated counterpart).
func BenchmarkHeteroFleet(b *testing.B) {
	spec := exsample.SynthSpec{
		NumFrames:    200_000,
		NumInstances: 40,
		Class:        "car",
		MeanDuration: 60,
		SkewFraction: 1.0 / 16,
		ChunkFrames:  10_000,
		Seed:         27,
	}
	for _, arm := range []struct {
		name    string
		scatter bool
	}{
		{"single", false},
		{"scatter", true},
	} {
		specs := make([]router.ReplicaSpec, 4)
		for i := range specs {
			twin, err := exsample.Synthesize(spec)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				specs[i] = router.ReplicaSpec{
					Backend: perf.SlowBackend(twin.Backend(), 500*time.Microsecond, 60*time.Microsecond, 256),
					Name:    "fast",
					Weight:  4,
				}
			} else {
				specs[i] = router.ReplicaSpec{
					Backend: perf.SlowBackend(twin.Backend(), 500*time.Microsecond, 80*time.Microsecond, 64),
					Name:    fmt.Sprintf("slow-%d", i),
					Weight:  3,
				}
			}
		}
		rtr, err := router.New(router.Config{Specs: specs, Scatter: arm.scatter})
		if err != nil {
			b.Fatal(err)
		}
		ds, err := exsample.Synthesize(spec, exsample.WithBackend(rtr))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(arm.name, func(b *testing.B) {
			var frames int64
			start := time.Now()
			for i := 0; i < b.N; i++ {
				eng, err := exsample.NewEngine(exsample.EngineOptions{
					Workers:        2,
					FramesPerRound: 256,
				})
				if err != nil {
					b.Fatal(err)
				}
				h, err := eng.Submit(context.Background(), ds,
					exsample.Query{Class: "car", Limit: 1_000_000},
					exsample.Options{Seed: uint64(i + 1), MaxFrames: 2048})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := h.Wait()
				if err != nil {
					b.Fatal(err)
				}
				frames += rep.FramesProcessed
				eng.Close()
			}
			if secs := time.Since(start).Seconds(); secs > 0 {
				b.ReportMetric(float64(frames)/secs, "frames/s")
			}
		})
		rtr.Close()
	}
}

// BenchmarkStreamIngest measures the live-ingest path end to end: one
// standing query over a segment ring while a writer appends segments at the
// consumption rate (each append issued at the previous park boundary —
// the steady state of a camera that produces video no faster than the
// engine drains it). Half the appended segments are dead. The arms differ
// only in the motion gate: gate-off samples the dead segments in full,
// gate-on pays a strided probe pass and never charges the detector for
// them, so the alerts/s and frames/op spread is the gate's value.
func BenchmarkStreamIngest(b *testing.B) {
	const framesEach = 1000
	const appends = 6
	mk := func(seed uint64, dead bool) *exsample.Dataset {
		spec := exsample.SynthSpec{
			NumFrames:    framesEach,
			NumInstances: 40,
			Class:        "car",
			MeanDuration: 100,
			SkewFraction: 1.0 / 8,
			ChunkFrames:  framesEach / 8,
			Seed:         seed,
		}
		if dead {
			spec.NumInstances = 1
			spec.MeanDuration = 1
		}
		ds, err := exsample.Synthesize(spec)
		if err != nil {
			b.Fatal(err)
		}
		return ds
	}
	for _, arm := range []struct {
		name      string
		threshold float64
	}{
		{"gate-off", 0},
		{"gate-on", 0.12},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var alerts, frames int64
			var gateSeconds float64
			start := time.Now()
			for i := 0; i < b.N; i++ {
				s, err := exsample.NewStreamSource(
					exsample.StreamConfig{Retention: 4, MotionThreshold: arm.threshold},
					mk(uint64(7000+i), false))
				if err != nil {
					b.Fatal(err)
				}
				eng, err := exsample.NewEngine(exsample.EngineOptions{
					Workers:        4,
					FramesPerRound: 4,
					EventBuffer:    1 << 15,
				})
				if err != nil {
					b.Fatal(err)
				}
				h, err := eng.SubmitStanding(context.Background(), s,
					exsample.Query{Class: "car"}, exsample.Options{Seed: uint64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				waitPark := func() {
					for !h.Parked() {
						time.Sleep(100 * time.Microsecond)
					}
				}
				waitPark()
				for a := 1; a <= appends; a++ {
					if _, err := s.Append(mk(uint64(7000+i*100+a), a%2 == 0)); err != nil {
						b.Fatal(err)
					}
					waitPark()
				}
				h.Cancel()
				rep, err := h.Wait()
				if err != nil && !errors.Is(err, context.Canceled) {
					b.Fatal(err)
				}
				alerts += int64(len(rep.Results))
				frames += rep.FramesProcessed
				gateSeconds += s.StreamStats().GateSeconds
				eng.Close()
			}
			if secs := time.Since(start).Seconds(); secs > 0 {
				b.ReportMetric(float64(alerts)/secs, "alerts/s")
				b.ReportMetric(float64(frames)/secs, "frames/s")
			}
			b.ReportMetric(float64(frames)/float64(b.N), "frames/op")
			b.ReportMetric(gateSeconds/float64(b.N), "gate-s/op")
		})
	}
}

// BenchmarkGlobalBudget measures what the scheduler-level marginal-value
// budget buys on a mixed fleet: 8 concurrent queries — 4 hot (a dense
// repository, high expected results per frame) and 4 cold (a near-empty
// one, random order, marginal value decaying toward zero) — run under
// fair-share and under a global budget, each arm stopped at the same total
// detector-call budget so the cost side is held equal. Fair-share spends
// half the detector on the cold queries; the budget arm pins them to the
// floor and steers the surplus to the hot queries, so the spread in
// results/kdetect (aggregate distinct results per thousand detector
// calls) is pure scheduling win — the PR's ≥1.5x acceptance ratio.
func BenchmarkGlobalBudget(b *testing.B) {
	// The hot repository is tuned so the fleet stays far from exhausting it
	// at the detector budget below — results scale linearly with the frames
	// a query is granted, so the metric reads scheduling, not saturation.
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
		b.Fatal(err)
	}
	dsCold, err := exsample.Synthesize(coldSpec)
	if err != nil {
		b.Fatal(err)
	}
	const detectBudget = 6000
	for _, arm := range []struct {
		name string
		opts exsample.EngineOptions
	}{
		{"fair-share", exsample.EngineOptions{Workers: 4, FramesPerRound: 16}},
		{"global-budget", exsample.EngineOptions{Workers: 4, FramesPerRound: 16,
			GlobalBudget: 40, FloorQuota: 1}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var found, detects int64
			start := time.Now()
			for i := 0; i < b.N; i++ {
				eng, err := exsample.NewEngine(arm.opts)
				if err != nil {
					b.Fatal(err)
				}
				var handles []*exsample.QueryHandle
				for qi := 0; qi < 4; qi++ {
					h, err := eng.Submit(context.Background(), dsHot,
						exsample.Query{Class: "car", Limit: 1 << 30},
						exsample.Options{Seed: uint64(i*8 + qi + 1)})
					if err != nil {
						b.Fatal(err)
					}
					handles = append(handles, h)
				}
				for qi := 0; qi < 4; qi++ {
					h, err := eng.Submit(context.Background(), dsCold,
						exsample.Query{Class: "car", Limit: 1 << 30},
						exsample.Options{Strategy: exsample.StrategyRandom,
							Seed: uint64(i*8 + qi + 5)})
					if err != nil {
						b.Fatal(err)
					}
					handles = append(handles, h)
				}
				for eng.Stats().DetectCalls < detectBudget {
					time.Sleep(100 * time.Microsecond)
				}
				for _, h := range handles {
					h.Cancel()
				}
				for _, h := range handles {
					rep, err := h.Wait()
					if err != nil && !errors.Is(err, context.Canceled) {
						b.Fatal(err)
					}
					found += int64(len(rep.Results))
				}
				detects += eng.Stats().DetectCalls
				eng.Close()
			}
			b.ReportMetric(float64(found)/float64(b.N), "results/op")
			b.ReportMetric(float64(detects)/float64(b.N), "detects/op")
			if detects > 0 {
				b.ReportMetric(float64(found)/float64(detects)*1000, "results/kdetect")
			}
			if secs := time.Since(start).Seconds(); secs > 0 {
				b.ReportMetric(float64(found)/secs, "results/s")
			}
		})
	}
}

// BenchmarkBackendBatch measures the httpbatch wire path end to end — a
// loopback server wrapping the simulated detector, an httpbatch client on
// the query side — at batch sizes 1, 8 and 32. The reported frames/s is
// raw wire+inference throughput (frames pushed through DetectBatch per
// wall second); growing it with the batch size is the whole point of the
// batched Backend contract.
func BenchmarkBackendBatch(b *testing.B) {
	ds, err := exsample.OpenProfile("dashcam", 0.05, 3)
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(httpbatch.Handler(ds.Backend()))
	defer srv.Close()
	class := ds.Classes()[0]
	for _, batch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			client, err := httpbatch.New(httpbatch.Config{Endpoint: srv.URL, MaxBatch: batch})
			if err != nil {
				b.Fatal(err)
			}
			frames := make([]int64, batch)
			start := time.Now()
			var total int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := range frames {
					frames[k] = (int64(i)*int64(batch) + int64(k)) % ds.NumFrames()
				}
				if _, err := client.DetectBatch(context.Background(), class, frames); err != nil {
					b.Fatal(err)
				}
				total += int64(batch)
			}
			b.StopTimer()
			if secs := time.Since(start).Seconds(); secs > 0 {
				b.ReportMetric(float64(total)/secs, "frames/s")
			}
		})
	}
}
