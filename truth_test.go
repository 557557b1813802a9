package exsample

import (
	"bytes"
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/exsample/exsample/backend"
)

func TestGroundTruthRoundTrip(t *testing.T) {
	orig := smallDataset(t)
	var buf bytes.Buffer
	if err := orig.SaveGroundTruth(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadGroundTruth(&buf, WithPerfectDetector())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumFrames() != orig.NumFrames() {
		t.Fatalf("frames %d != %d", loaded.NumFrames(), orig.NumFrames())
	}
	n1, _ := orig.GroundTruthCount("car")
	n2, err := loaded.GroundTruthCount("car")
	if err != nil || n2 != n1 {
		t.Fatalf("instance count %d != %d (%v)", n2, n1, err)
	}
	// The loaded dataset is searchable and distinct-object semantics hold.
	rep, err := loaded.Search(Query{Class: "car", Limit: 20}, Options{Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) < 20 {
		t.Fatalf("loaded dataset search found %d results", len(rep.Results))
	}
	if rep.Recall <= 0 {
		t.Fatal("zero recall on loaded dataset")
	}
}

func TestLoadGroundTruthHandWritten(t *testing.T) {
	doc := `{
		"dataset": "mycams",
		"num_frames": 10000,
		"num_chunks": 10,
		"instances": [
			{"id": 0, "class": "cat", "start_frame": 100, "end_frame": 400},
			{"id": 1, "class": "cat", "start_frame": 5000, "end_frame": 5200},
			{"id": 2, "class": "dog", "start_frame": 9000, "end_frame": 9999}
		]
	}`
	ds, err := LoadGroundTruth(strings.NewReader(doc), WithPerfectDetector())
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name() != "mycams" || ds.NumChunks() != 10 {
		t.Fatalf("name=%q chunks=%d", ds.Name(), ds.NumChunks())
	}
	classes := ds.Classes()
	if len(classes) != 2 || classes[0] != "cat" || classes[1] != "dog" {
		t.Fatalf("classes = %v", classes)
	}
	rep, err := ds.Search(Query{Class: "cat", RecallTarget: 1}, Options{Seed: 83})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recall != 1 || len(rep.Results) != 2 {
		t.Fatalf("recall %v with %d results", rep.Recall, len(rep.Results))
	}
}

func TestLoadGroundTruthErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":        `not json`,
		"no frames":      `{"num_frames": 0, "instances": [{"id":0,"class":"c","start_frame":0,"end_frame":1}]}`,
		"no instances":   `{"num_frames": 100, "instances": []}`,
		"duplicate id":   `{"num_frames": 100, "instances": [{"id":0,"class":"c","start_frame":0,"end_frame":1},{"id":0,"class":"c","start_frame":2,"end_frame":3}]}`,
		"inverted":       `{"num_frames": 100, "instances": [{"id":0,"class":"c","start_frame":9,"end_frame":5}]}`,
		"empty class":    `{"num_frames": 100, "instances": [{"id":0,"class":"","start_frame":0,"end_frame":1}]}`,
		"start past end": `{"num_frames": 100, "instances": [{"id":0,"class":"c","start_frame":200,"end_frame":300}]}`,
	}
	for name, doc := range cases {
		if _, err := LoadGroundTruth(strings.NewReader(doc)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestLoadGroundTruthDefaults(t *testing.T) {
	doc := `{"num_frames": 6400, "instances": [{"id":0,"class":"c","start_frame":0,"end_frame":10}]}`
	ds, err := LoadGroundTruth(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name() != "imported" {
		t.Fatalf("default name = %q", ds.Name())
	}
	if ds.NumChunks() != 64 {
		t.Fatalf("default chunks = %d", ds.NumChunks())
	}
}

// degradedBackend serves from inner, then blanks the detections of every
// frame past the first limit it has served, counted across batches: a
// mid-query inference outage whose frames are still charged.
type degradedBackend struct {
	inner  backend.Backend
	limit  int64
	served atomic.Int64
}

func (b *degradedBackend) DetectBatch(ctx context.Context, class string, frames []int64) ([][]backend.Detection, error) {
	dets, err := b.inner.DetectBatch(ctx, class, frames)
	if err != nil {
		return nil, err
	}
	for i := range dets {
		if b.served.Add(1) > b.limit {
			dets[i] = nil
		}
	}
	return dets, nil
}

func (b *degradedBackend) Hints() backend.Hints { return b.inner.Hints() }

func TestDetectorFailureInjection(t *testing.T) {
	inner := smallDataset(t, WithPerfectDetector()).Backend()
	ds := smallDataset(t, WithPerfectDetector(), WithBackend(&degradedBackend{inner: inner, limit: 30}))
	rep, err := ds.Search(Query{Class: "car", Limit: 1000},
		Options{MaxFrames: 200, Seed: 85})
	if err != nil {
		t.Fatal(err)
	}
	// The search must terminate on its budget, still charging for the
	// useless post-failure frames.
	if rep.FramesProcessed != 200 {
		t.Fatalf("processed %d frames, want the full 200 budget", rep.FramesProcessed)
	}
	// No results can arrive after the failure point.
	for _, s := range rep.CurveSamples {
		if s > 30 {
			t.Fatalf("result recorded at frame %d after detector failure at 30", s)
		}
	}
}
