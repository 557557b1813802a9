package exsample_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"runtime"
	"strings"
	"sync"

	exsample "github.com/exsample/exsample"
)

// Find 20 traffic lights in a dashcam archive: the paper's motivating query
// ("find 100 traffic lights in dashcam video", §I) at example scale. The
// built-in dashcam profile at 10% of the paper's size is about an hour of
// 30 fps drive video. StrategyExSample with otherwise zero-valued Options
// runs the paper's defaults: Thompson sampling over Gamma(N1+0.1, n+1)
// beliefs, random+ within chunks. A frame can reveal more than one new
// object, so a query can overshoot its limit.
func Example() {
	ds, err := exsample.OpenProfile("dashcam", 0.1, 42)
	if err != nil {
		log.Fatal(err)
	}
	report, err := ds.Search(
		exsample.Query{Class: "traffic light", Limit: 20},
		exsample.Options{Strategy: exsample.StrategyExSample, Seed: 1},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("found %d in %d of %d frames, %.1fs detector + %.1fs decode\n", len(report.Results),
		report.FramesProcessed, ds.NumFrames(), report.DetectSeconds, report.DecodeSeconds)
	for _, r := range report.Results {
		fmt.Printf("object %d at frame %d\n", r.ObjectID, r.Frame)
	}
	// Output:
	// found 21 in 74 of 104400 frames, 3.7s detector + 1.1s decode
	// object 0 at frame 37296
	// object 1 at frame 46923
	// object 2 at frame 90692
	// object 3 at frame 49585
	// object 4 at frame 37952
	// object 5 at frame 49145
	// object 6 at frame 37731
	// object 7 at frame 39344
	// object 8 at frame 37455
	// object 9 at frame 39379
	// object 10 at frame 39087
	// object 11 at frame 39087
	// object 12 at frame 38333
	// object 13 at frame 38333
	// object 14 at frame 49728
	// object 15 at frame 38223
	// object 16 at frame 46753
	// object 17 at frame 46753
	// object 18 at frame 45450
	// object 19 at frame 43376
	// object 20 at frame 43376
}

// Comparing strategies on one distinct-object limit query: Table I's
// argument in miniature. The proxy baseline scores every frame before its
// first result (§II-B); ExSample and random sampling start at once, and
// ExSample's whole query costs less than the proxy's scan alone. The
// perfect detector keeps the comparison about sampling, not detector noise.
func ExampleDataset_Search_strategies() {
	ds, err := exsample.OpenProfile("night-street", 0.1, 7, exsample.WithPerfectDetector())
	if err != nil {
		log.Fatal(err)
	}
	total, err := ds.GroundTruthCount("dog")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d frames, %d distinct dogs\n", ds.NumFrames(), total)
	fmt.Printf("%-8s %6s %9s %7s %8s %6s\n", "strategy", "frames", "detect(s)", "scan(s)", "total(s)", "recall")
	for _, s := range []exsample.Strategy{exsample.StrategyExSample, exsample.StrategyRandom, exsample.StrategyProxy} {
		rep, err := ds.Search(exsample.Query{Class: "dog", Limit: 10}, exsample.Options{Strategy: s, Seed: 99})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %6d %9.1f %7.1f %8.1f %5.1f%%\n", s, rep.FramesProcessed,
			rep.DetectSeconds, rep.ScanSeconds, rep.TotalSeconds(), rep.Recall*100)
	}
	// Output:
	// 288000 frames, 11 distinct dogs
	// strategy frames detect(s) scan(s) total(s) recall
	// exsample   4151     207.6     0.0    267.6  90.9%
	// random     8210     410.5     0.0    529.4  90.9%
	// proxy        16       0.8  2880.0   2881.0  90.9%
}

// Driving a search one frame at a time with a Session, and watching its
// allocation (§IV-A) shift toward the chunks that hold the objects: 95% of
// them sit in 1/16 of the repository, two of its 32 chunks.
func ExampleDataset_NewSession() {
	ds, err := exsample.Synthesize(exsample.SynthSpec{
		NumFrames:    500_000,
		NumInstances: 400,
		Class:        "event",
		MeanDuration: 300,
		SkewFraction: 1.0 / 16,
		ChunkFrames:  500_000 / 32,
		Seed:         7,
	}, exsample.WithPerfectDetector())
	if err != nil {
		log.Fatal(err)
	}
	sess, err := ds.NewSession(exsample.Query{Class: "event", Limit: 350}, exsample.Options{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	for !sess.Done() {
		_, ok, err := sess.Step()
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			break
		}
		if sess.Frames()%100 == 0 {
			fmt.Printf("%3d frames |%s|\n", sess.Frames(), allocationBar(sess.ChunkStats()))
		}
	}
	fmt.Printf("%3d frames |%s| %d distinct objects\n",
		sess.Frames(), allocationBar(sess.ChunkStats()), len(sess.Results()))
	// Output:
	// 100 frames |               @                |
	// 200 frames |               @=               |
	// 289 frames |               @%               | 350 distinct objects
}

// allocationBar renders each chunk's share of the samples as one glyph,
// denser for a larger share.
func allocationBar(stats []exsample.ChunkStat) string {
	max := 0.0
	for _, cs := range stats {
		max = math.Max(max, cs.Allocation)
	}
	const levels = " .:-=+*#%@"
	var sb strings.Builder
	for _, cs := range stats {
		i := 0
		if max > 0 {
			i = int(cs.Allocation * float64(len(levels)-1) / max)
		}
		sb.WriteByte(levels[i])
	}
	return sb.String()
}

// Three clients search one archive at once. The Engine's bounded detector
// pool (the shared GPU budget) serves every query in fair-share rounds,
// while each query keeps its own sampler, so each report is the one Search
// would return for the same seed. Each query streams its new objects on
// its own Events channel.
func ExampleEngine() {
	ds, err := exsample.OpenProfile("dashcam", 0.05, 42)
	if err != nil {
		log.Fatal(err)
	}
	// Every processed frame is an event; a buffer that holds a whole query's
	// events drops none, however late its reader runs.
	eng, err := exsample.NewEngine(exsample.EngineOptions{Workers: 4, FramesPerRound: 2, EventBuffer: 1 << 10})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	classes := []string{"traffic light", "bicycle", "bus"}
	handles := make([]*exsample.QueryHandle, len(classes))
	seen := make([][]int64, len(classes))
	var wg sync.WaitGroup
	for i, class := range classes {
		h, err := eng.Submit(context.Background(), ds,
			exsample.Query{Class: class, Limit: 8}, exsample.Options{Seed: uint64(i + 1)})
		if err != nil {
			log.Fatal(err)
		}
		handles[i] = h
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ev := range h.Events() {
				for range ev.New {
					seen[i] = append(seen[i], ev.Frame)
				}
			}
		}()
	}
	reports := make([]*exsample.Report, len(handles))
	for i, h := range handles {
		if reports[i], err = h.Wait(); err != nil {
			log.Fatal(err)
		}
	}
	wg.Wait()
	for i, rep := range reports {
		if handles[i].Dropped() != 0 {
			log.Fatalf("%s: %d events dropped", classes[i], handles[i].Dropped())
		}
		fmt.Printf("%s: %d objects in %d frames, %.1fs detector\n",
			classes[i], len(rep.Results), rep.FramesProcessed, rep.DetectSeconds)
		fmt.Printf("  new objects at frames %v\n", seen[i])
	}
	// Output:
	// traffic light: 8 objects in 22 frames, 1.1s detector
	//   new objects at frames [33747 22188 22188 23376 21688 21688 22454 22535]
	// bicycle: 8 objects in 285 frames, 14.3s detector
	//   new objects at frames [46430 52104 37105 15374 36364 15470 9329 14724]
	// bus: 8 objects in 131 frames, 6.5s detector
	//   new objects at frames [37915 38869 48856 36595 44394 36925 44319 5219]
}

// Batched sampling (§III-F): GPU inference is faster on batches, so
// Algorithm 1 draws BatchSize belief samples, detects them together, then
// applies the N1/n updates. The updates commute, so a batch barely changes
// how many frames a query needs.
func ExampleOptions_batchSize() {
	ds, err := exsample.OpenProfile("amsterdam", 0.05, 13)
	if err != nil {
		log.Fatal(err)
	}
	total, err := ds.GroundTruthCount("bicycle")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d distinct bicycles; frames to find half of them:\n", total)
	for _, b := range []int{1, 8, 32, 128} {
		rep, err := ds.Search(exsample.Query{Class: "bicycle", RecallTarget: 0.5},
			exsample.Options{BatchSize: b, Seed: 17})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("batch %3d: %d frames, %d found\n", b, rep.FramesProcessed, len(rep.Results))
	}
	// Output:
	// 210 distinct bicycles; frames to find half of them:
	// batch   1: 228 frames, 108 found
	// batch   8: 238 frames, 108 found
	// batch  32: 229 frames, 108 found
	// batch 128: 288 frames, 109 found
}

// The chunk count is the one parameter chosen ahead of time, and Fig 4
// shows both ends lose: one chunk is random sampling, and very many chunks
// pay a long exploration tax before the skew shows (§IV-C). Here 95% of 500
// objects sit in 1/32 of two million frames.
func ExampleOptions_numChunks() {
	ds, err := exsample.Synthesize(exsample.SynthSpec{
		NumFrames:    2_000_000,
		NumInstances: 500,
		Class:        "event",
		MeanDuration: 700,
		SkewFraction: 1.0 / 32,
		Seed:         3,
	}, exsample.WithPerfectDetector())
	if err != nil {
		log.Fatal(err)
	}
	q := exsample.Query{Class: "event", RecallTarget: 0.5}
	rnd, err := ds.Search(q, exsample.Options{Strategy: exsample.StrategyRandom, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("random: %d frames\n", rnd.FramesProcessed)
	for _, m := range []int{1, 2, 16, 128, 1024} {
		rep, err := ds.Search(q, exsample.Options{NumChunks: m, Seed: 21})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%4d chunks: %4d frames, %.2fx random\n", m, rep.FramesProcessed,
			float64(rnd.FramesProcessed)/float64(rep.FramesProcessed))
	}
	// Output:
	// random: 2038 frames
	//    1 chunks: 1755 frames, 1.16x random
	//    2 chunks: 1981 frames, 1.03x random
	//   16 chunks:  347 frames, 5.87x random
	//  128 chunks:  101 frames, 20.18x random
	// 1024 chunks:  713 frames, 2.86x random
}

// A ShardedSource searches several datasets as one repository: one
// query's sampler treats every shard's chunks as arms of one bandit, and
// each detector call routes to the shard that owns the frame. A second
// identical query finds every frame in the engine's memo cache and is
// charged decode time only.
func ExampleShardedSource() {
	var shards []*exsample.Dataset
	for i, size := range []struct {
		frames    int64
		instances int
	}{{80_000, 40}, {120_000, 160}, {60_000, 30}} {
		ds, err := exsample.Synthesize(exsample.SynthSpec{
			NumFrames:    size.frames,
			NumInstances: size.instances,
			Class:        "delivery truck",
			MeanDuration: 150,
			SkewFraction: 1.0 / 8,
			ChunkFrames:  4000,
			Seed:         uint64(90 + i),
		})
		if err != nil {
			log.Fatal(err)
		}
		shards = append(shards, ds)
	}
	archive, err := exsample.NewShardedSource("three-days", shards...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d shards, %d frames, %d chunks\n",
		archive.Name(), archive.NumShards(), archive.NumFrames(), archive.NumChunks())

	eng, err := exsample.NewEngine(exsample.EngineOptions{Workers: 4, FramesPerRound: 4, CacheEntries: 1 << 16})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	for attempt := 1; attempt <= 2; attempt++ {
		h, err := eng.Submit(context.Background(), archive,
			exsample.Query{Class: "delivery truck", Limit: 40}, exsample.Options{Seed: 7})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := h.Wait()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query %d: %d objects in %d frames, %d cache hits, %.1fs detector + %.1fs decode\n",
			attempt, len(rep.Results), rep.FramesProcessed, rep.CacheHits, rep.DetectSeconds, rep.DecodeSeconds)
	}
	for _, st := range archive.ShardStats() {
		fmt.Printf("shard %d: %d frames, %d detector calls\n", st.Shard, st.NumFrames, st.DetectCalls)
	}
	// Output:
	// three-days: 3 shards, 260000 frames, 65 chunks
	// query 1: 41 objects in 45 frames, 0 cache hits, 2.2s detector + 0.6s decode
	// query 2: 41 objects in 45 frames, 45 cache hits, 0.0s detector + 0.6s decode
	// shard 0: 80000 frames, 8 detector calls
	// shard 1: 120000 frames, 34 detector calls
	// shard 2: 60000 frames, 6 detector calls
}

// A standing query over video that is still being recorded. A camera
// appends segments to a StreamSource ring; the motion gate fences dead
// segments at append time, and retention evicts the oldest. The standing
// query alerts on each live segment's objects, parks when the ring is
// drained, and wakes on the next live append. Gated segments cost a
// strided probe and no detector call.
func ExampleStreamSource() {
	segment := func(seed uint64, dead bool) *exsample.Dataset {
		spec := exsample.SynthSpec{
			NumFrames:    2_000,
			NumInstances: 40,
			Class:        "car",
			MeanDuration: 100,
			SkewFraction: 1.0 / 8,
			ChunkFrames:  250,
			Seed:         seed,
		}
		if dead { // one object visible for about a frame: an empty street
			spec.NumInstances, spec.MeanDuration = 1, 1
		}
		ds, err := exsample.Synthesize(spec)
		if err != nil {
			log.Fatal(err)
		}
		return ds
	}
	stream, err := exsample.NewStreamSource(exsample.StreamConfig{
		Name:            "camera",
		Retention:       6,
		MotionThreshold: 0.12,
	}, segment(1, false))
	if err != nil {
		log.Fatal(err)
	}
	eng, err := exsample.NewEngine(exsample.EngineOptions{Workers: 4, FramesPerRound: 4, EventBuffer: 1 << 15})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// A standing query has no Limit and no RecallTarget: it runs until
	// cancelled.
	h, err := eng.SubmitStanding(context.Background(), stream,
		exsample.Query{Class: "car"}, exsample.Options{Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	alerts := make(chan int, 1)
	go func() {
		n := 0
		for ev := range h.Events() {
			n += len(ev.New)
		}
		alerts <- n
	}()
	waitParked := func() {
		for !h.Parked() {
			runtime.Gosched()
		}
	}
	waitParked()
	for n := 1; n <= 10; n++ {
		info, err := stream.Append(segment(uint64(n)*31, n%2 == 0))
		if err != nil {
			log.Fatal(err)
		}
		verdict := "live"
		if info.Gated {
			verdict = "gated"
		}
		fmt.Printf("append slot %2d: energy %.3f, %s\n", info.Slot, info.Energy, verdict)
		waitParked()
	}
	h.Cancel()
	rep, err := h.Wait()
	if err != nil && !errors.Is(err, context.Canceled) {
		log.Fatal(err)
	}
	fmt.Printf("%d distinct cars, %d alerts, %d frames, %.1fs detector\n",
		len(rep.Results), <-alerts, rep.FramesProcessed, rep.DetectSeconds)
	st := stream.StreamStats()
	fmt.Printf("ring: %d appended, %d gated, %d evicted, %d live\n", st.Appended, st.Gated, st.Evicted, st.Live)
	shardStats := stream.ShardStats()
	for _, seg := range stream.Segments() {
		fmt.Printf("slot %2d: %-8s %4d detector calls\n",
			seg.Slot, shardStats[seg.Slot].Status, shardStats[seg.Slot].DetectCalls)
	}
	// Output:
	// append slot  1: energy 0.332, live
	// append slot  2: energy 0.039, gated
	// append slot  3: energy 0.286, live
	// append slot  4: energy 0.039, gated
	// append slot  5: energy 0.224, live
	// append slot  6: energy 0.039, gated
	// append slot  7: energy 0.201, live
	// append slot  8: energy 0.039, gated
	// append slot  9: energy 0.201, live
	// append slot 10: energy 0.039, gated
	// 432 distinct cars, 432 alerts, 12000 frames, 600.0s detector
	// ring: 11 appended, 5 gated, 5 evicted, 6 live
	// slot  0: draining 2000 detector calls
	// slot  1: draining 2000 detector calls
	// slot  2: draining    0 detector calls
	// slot  3: draining 2000 detector calls
	// slot  4: draining    0 detector calls
	// slot  5: active   2000 detector calls
	// slot  6: gated       0 detector calls
	// slot  7: active   2000 detector calls
	// slot  8: gated       0 detector calls
	// slot  9: active   2000 detector calls
	// slot 10: gated       0 detector calls
}

// Track-predicate queries find trajectories, not just distinct objects,
// MIRIS-style: a coarse stride pass finds candidate intervals, and only
// those are densified, tracked and matched, so a sparse scene costs a small
// fraction of a dense scan. Here 8 cars each travel 300 px rightward.
func ExampleDataset_TrackSearch() {
	ds, err := exsample.Synthesize(exsample.SynthSpec{
		NumFrames:    40_000,
		NumInstances: 8,
		Class:        "car",
		MeanDuration: 300,
		ChunkFrames:  1000,
		Seed:         7,
		TravelX:      300,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Cars on screen for at least 50 frames, moving roughly rightward.
	// MinDuration doubles as the coarse stride hint: an object on screen
	// for 50 frames cannot slip through a 25-frame grid.
	pred := exsample.TrackPredicate{
		Class:       "car",
		MinDuration: 50,
		Direction:   &exsample.DirectionRange{MinDeg: 315, MaxDeg: 45}, // wraps through 0°
	}
	rep, err := ds.TrackSearch(pred, exsample.TrackOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d tracks; %d of %d dense frames (%.1fx avoided): %d coarse + %d refine over %d intervals\n",
		len(rep.Results), rep.FramesProcessed, rep.DenseFrames, rep.Speedup(),
		rep.CoarseFrames, rep.RefineFrames, rep.Intervals)
	for _, t := range rep.Results {
		fmt.Printf("track %d: frames %d..%d, %d hits, %.1f px/frame\n", t.TrackID, t.Start, t.End, t.Hits, t.AvgSpeed)
	}

	// The same predicate, restricted to tracks whose smoothed path crosses
	// a virtual tripwire at x = 700.
	pred.Crosses = &exsample.Segment{A: exsample.Point{X: 700, Y: 0}, B: exsample.Point{X: 700, Y: 2000}}
	rep, err = ds.TrackSearch(pred, exsample.TrackOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crossing x=700: %d tracks\n", len(rep.Results))
	// Output:
	// 8 tracks; 5176 of 40000 dense frames (7.7x avoided): 1600 coarse + 3576 refine over 35 intervals
	// track 0: frames 242..977, 686 hits, 0.7 px/frame
	// track 1: frames 9950..10636, 630 hits, 0.9 px/frame
	// track 2: frames 10224..10713, 455 hits, 0.8 px/frame
	// track 3: frames 15976..16065, 83 hits, 3.2 px/frame
	// track 4: frames 24874..24999, 121 hits, 2.3 px/frame
	// track 5: frames 27571..27824, 234 hits, 1.3 px/frame
	// track 6: frames 32151..32236, 80 hits, 3.2 px/frame
	// track 7: frames 35737..35792, 51 hits, 5.5 px/frame
	// crossing x=700: 1 tracks
}
