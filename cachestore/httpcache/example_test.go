package httpcache_test

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"reflect"

	exsample "github.com/exsample/exsample"
	"github.com/exsample/exsample/cachestore"
	"github.com/exsample/exsample/cachestore/httpcache"
)

// Two users split one detector bill through the shared result tier.
// Detector output for a frame never changes, so entries are keyed by
// content (a hash of how the video was built, not a process-local handle):
// each engine misses its local L1, asks the shared server, and writes what
// its detector computed through to it. The first user pays the detector
// for every frame; the second, with its own dataset and engine, as another
// process would build them, is served every frame by the tier and pays
// decode time only, for the same results.
func Example() {
	srv := httptest.NewServer(httpcache.Handler(cachestore.NewLocal(1 << 18)))
	defer srv.Close()

	run := func(name string) (*exsample.Report, cachestore.TierStats) {
		ds, err := exsample.Synthesize(exsample.SynthSpec{
			NumFrames:    120_000,
			NumInstances: 200,
			Class:        "car",
			MeanDuration: 120,
			SkewFraction: 1.0 / 12,
			ChunkFrames:  3000,
			Seed:         7,
		})
		if err != nil {
			log.Fatal(err)
		}
		client, err := httpcache.New(httpcache.Config{Endpoint: srv.URL})
		if err != nil {
			log.Fatal(err)
		}
		eng, err := exsample.NewEngine(exsample.EngineOptions{Workers: 4, FramesPerRound: 8, RemoteCache: client})
		if err != nil {
			log.Fatal(err)
		}
		defer eng.Close()
		h, err := eng.Submit(context.Background(), ds,
			exsample.Query{Class: "car", Limit: 40}, exsample.Options{Seed: 11, MaxFrames: 2000})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := h.Wait()
		if err != nil {
			log.Fatal(err)
		}
		tier := eng.TierStats()
		fmt.Printf("%s: %d results, %d frames, %d local hits, %d remote hits, %d detector fills, %.1fs detector + %.1fs decode\n",
			name, len(rep.Results), rep.FramesProcessed, rep.CacheHits-rep.RemoteCacheHits,
			rep.RemoteCacheHits, tier.Fills, rep.DetectSeconds, rep.DecodeSeconds)
		return rep, tier
	}
	first, _ := run("first user")
	second, tier := run("second user")
	fmt.Printf("second user's tier: L1 %d hits/%d misses, L2 %d hits/%d misses in %d round trips\n",
		tier.L1Hits, tier.L1Misses, tier.L2Hits, tier.L2Misses, tier.L2RoundTrips)
	fmt.Println("same results:", reflect.DeepEqual(first.Results, second.Results))
	// Output:
	// first user: 41 results, 37 frames, 0 local hits, 0 remote hits, 40 detector fills, 1.9s detector + 0.6s decode
	// second user: 41 results, 37 frames, 0 local hits, 37 remote hits, 0 detector fills, 0.0s detector + 0.6s decode
	// second user's tier: L1 0 hits/40 misses, L2 40 hits/0 misses in 5 round trips
	// same results: true
}
