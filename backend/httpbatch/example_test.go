package httpbatch_test

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"reflect"

	exsample "github.com/exsample/exsample"
	"github.com/exsample/exsample/backend/httpbatch"
)

// A remote detector behind a query: one side owns the video and the GPU
// (here a dataset whose simulated detector stands in for the DNN) and
// serves its Backend over HTTP; the query side knows only the endpoint.
// Every scheduling round crosses the wire as one batch, each frame is
// charged the server-reported latency, and the report is byte for byte the
// one a local run of the same seeded query returns.
func Example() {
	// Both sides build the same archive from one spec and seed, the way a
	// serving fleet and a query planner share one recording.
	open := func(opts ...exsample.DatasetOption) *exsample.Dataset {
		ds, err := exsample.Synthesize(exsample.SynthSpec{
			NumFrames:    150_000,
			NumInstances: 250,
			Class:        "cyclist",
			MeanDuration: 140,
			SkewFraction: 1.0 / 12,
			ChunkFrames:  3000,
			Seed:         77,
		}, opts...)
		if err != nil {
			log.Fatal(err)
		}
		return ds
	}
	srv := httptest.NewServer(httpbatch.Handler(open().Backend()))
	defer srv.Close()
	// The client caps in-flight requests, retries transient failures and
	// splits batches above MaxBatch.
	client, err := httpbatch.New(httpbatch.Config{Endpoint: srv.URL, MaxBatch: 32})
	if err != nil {
		log.Fatal(err)
	}

	run := func(ds *exsample.Dataset) *exsample.Report {
		eng, err := exsample.NewEngine(exsample.EngineOptions{Workers: 4, FramesPerRound: 8})
		if err != nil {
			log.Fatal(err)
		}
		defer eng.Close()
		h, err := eng.Submit(context.Background(), ds,
			exsample.Query{Class: "cyclist", Limit: 20}, exsample.Options{Seed: 123})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := h.Wait()
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}
	remote := run(open(exsample.WithBackend(client)))
	st := client.Stats()
	fmt.Printf("found %d cyclists in %d frames, %.2fs detector + %.2fs decode\n",
		len(remote.Results), remote.FramesProcessed, remote.DetectSeconds, remote.DecodeSeconds)
	fmt.Printf("wire: %d batches, %d frames, %d retries, %.2f server seconds\n",
		st.Batches, st.Frames, st.Retries, st.ServerSeconds)
	fmt.Println("same report as a local run:", reflect.DeepEqual(remote, run(open())))
	// Output:
	// found 21 cyclists in 20 frames, 1.00s detector + 0.29s decode
	// wire: 3 batches, 24 frames, 0 retries, 1.20 server seconds
	// same report as a local run: true
}
