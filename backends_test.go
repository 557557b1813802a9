package exsample

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/backend/httpbatch"
	"github.com/exsample/exsample/internal/detect"
)

// truthTwin opens a second dataset identical to smallDataset — same spec,
// same seed — so one copy can serve detections while the other runs the
// query, the way a remote GPU fleet is a separate process from the sampler.
func truthTwin(t *testing.T, opts ...DatasetOption) *Dataset {
	t.Helper()
	return smallDataset(t, opts...)
}

func TestDatasetBackendDefaultIsSim(t *testing.T) {
	ds := smallDataset(t)
	b := ds.Backend()
	if b == nil {
		t.Fatal("nil default backend")
	}
	hints := b.Hints()
	if hints.CostSeconds <= 0 {
		t.Fatalf("default backend hints %+v: no cost", hints)
	}
	dets, err := b.DetectBatch(context.Background(), "car", []int64{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) != 3 {
		t.Fatalf("got %d results, want 3", len(dets))
	}
	if _, err := b.DetectBatch(context.Background(), "dragon", []int64{0}); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestWithBackendSimRoundTripIsByteIdentical(t *testing.T) {
	// Routing the simulated detector through the public Backend API (an
	// attached twin's Backend) must change nothing: the default path IS
	// the backend path for the sim, so reports stay byte-identical.
	plain := smallDataset(t)
	twin := truthTwin(t)
	viaBackend := smallDataset(t, WithBackend(twin.Backend()))

	q := Query{Class: "car", Limit: 20}
	opts := Options{Seed: 99}
	want, err := plain.Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := viaBackend.Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("backend-routed search diverged:\nwant frames=%d detect=%v results=%d\ngot  frames=%d detect=%v results=%d",
			want.FramesProcessed, want.DetectSeconds, len(want.Results),
			got.FramesProcessed, got.DetectSeconds, len(got.Results))
	}
}

func TestHTTPBatchEngineEndToEnd(t *testing.T) {
	// The acceptance setup: a twin dataset served over the httpbatch wire
	// protocol, the query dataset running against it through the Engine.
	// The report must be byte-identical to the all-local sim run, and each
	// scheduling round must have issued exactly one wire batch (single
	// source, one affinity group per round). Round sizes cover a
	// non-power-of-two to pin the exact per-frame cost transport (a
	// divide-by-batch-size would drift in the last ULP at 6).
	twin := truthTwin(t)
	srv := httptest.NewServer(httpbatch.Handler(twin.Backend()))
	defer srv.Close()

	for _, round := range []int{8, 6} {
		client, err := httpbatch.New(httpbatch.Config{Endpoint: srv.URL, MaxBatch: 64})
		if err != nil {
			t.Fatal(err)
		}
		remote := smallDataset(t, WithBackend(client))
		local := smallDataset(t)

		q := Query{Class: "car", Limit: 15}
		opts := Options{Seed: 41}

		e := newTestEngine(t, EngineOptions{Workers: 4, FramesPerRound: round})
		h, err := e.Submit(context.Background(), remote, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}

		eLocal := newTestEngine(t, EngineOptions{Workers: 4, FramesPerRound: round})
		hLocal, err := eLocal.Submit(context.Background(), local, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := hLocal.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("round=%d: remote run diverged from local sim:\nwant frames=%d detect=%v results=%d\ngot  frames=%d detect=%v results=%d",
				round, want.FramesProcessed, want.DetectSeconds, len(want.Results),
				got.FramesProcessed, got.DetectSeconds, len(got.Results))
		}

		// One DetectBatch per affinity group per round: a single unsharded
		// query means engine batches == wire batches == scheduling rounds
		// that dispatched work, and every proposed frame went over the
		// wire.
		st := client.Stats()
		es := e.Stats()
		if st.Batches != es.Batches {
			t.Fatalf("round=%d: wire batches %d != engine batches %d: groups were split or merged", round, st.Batches, es.Batches)
		}
		if st.Frames != es.DetectCalls {
			t.Fatalf("round=%d: wire frames %d != engine frames %d", round, st.Frames, es.DetectCalls)
		}
		// The final round's tail can be discarded unapplied once the limit
		// fires, so the report covers at most the wire traffic.
		if got.FramesProcessed > st.Frames {
			t.Fatalf("round=%d: report frames %d exceed wire frames %d", round, got.FramesProcessed, st.Frames)
		}
		if st.Retries != 0 || st.Requests != st.Batches {
			t.Fatalf("round=%d: unexpected retries: %+v", round, st)
		}
		// Charged inference time came from the server-reported per-frame
		// costs (discarded tail frames were paid on the wire but never
		// charged).
		if got.DetectSeconds <= 0 || got.DetectSeconds > st.ServerSeconds+1e-9 {
			t.Fatalf("round=%d: report charged %v detect seconds, server reported %v", round, got.DetectSeconds, st.ServerSeconds)
		}
	}
}

// framesWithCars returns the first n frames (scanning every 97th) on which
// ds's detector sees a car.
func framesWithCars(t *testing.T, ds *Dataset, n int) []int64 {
	t.Helper()
	var out []int64
	for f := int64(0); f < ds.NumFrames() && len(out) < n; f += 97 {
		dets, err := ds.Backend().DetectBatch(context.Background(), "car", []int64{f})
		if err != nil {
			t.Fatal(err)
		}
		if len(dets[0]) > 0 {
			out = append(out, f)
		}
	}
	if len(out) < n {
		t.Fatalf("only %d frames with cars", len(out))
	}
	return out
}

// cancelAfter is a context whose Err reports cancellation from its n-th
// call on: a deterministic cancellation in the middle of a batch.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

func TestSimBackendThroughAdapter(t *testing.T) {
	// The default detect path — the simulated detector as a Backend behind
	// the backend adapter — returns one output per frame, aligned with
	// the frames however they are ordered, charges the dataset's
	// per-frame cost (the paper's 20 fps detector), and abandons a batch
	// cancelled midway.
	ds := smallDataset(t, WithPerfectDetector())
	cars := framesWithCars(t, ds, 2)
	frames := []int64{cars[1], 3, cars[0]}
	det := ds.newBatchDetector("car")
	var scr detect.Scratch
	outs, err := det.DetectBatch(context.Background(), frames, nil, &scr)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(frames) {
		t.Fatalf("got %d outputs for %d frames", len(outs), len(frames))
	}
	for i, fo := range outs {
		if fo.Cost != 1.0/20 {
			t.Fatalf("frame %d charged %v, want %v", frames[i], fo.Cost, 1.0/20)
		}
		one, err := det.DetectBatch(context.Background(), frames[i:i+1], nil, new(detect.Scratch))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fo.Dets, one[0].Dets) {
			t.Fatalf("frame %d: batch output %+v, single-frame output %+v", frames[i], fo.Dets, one[0].Dets)
		}
		for _, d := range fo.Dets {
			if d.Frame != frames[i] {
				t.Fatalf("output %d carries frame %d, want %d", i, d.Frame, frames[i])
			}
		}
	}

	sim := det.(*backendDetector).b.(*simBackend)
	before := sim.sims["car"].Calls()
	if _, err := det.DetectBatch(&cancelAfter{Context: context.Background(), n: 2}, frames, nil, &scr); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran := sim.sims["car"].Calls() - before; ran != 2 {
		t.Fatalf("detected %d frames of a batch cancelled after 2", ran)
	}
}

func TestHTTPBatchShardedPerShardEndpoints(t *testing.T) {
	// Two shards, each routed to its own endpoint — the ShardedSource
	// composition point the Backend option exists for. Results must be
	// byte-identical to the same shards running their sims locally.
	specs := []uint64{7, 8}
	var remoteShards, localShards []*Dataset
	var clients []*httpbatch.Client
	for _, seed := range specs {
		mk := func(opts ...DatasetOption) *Dataset {
			ds, err := Synthesize(SynthSpec{
				NumFrames:    60_000,
				NumInstances: 120,
				Class:        "car",
				MeanDuration: 120,
				SkewFraction: 1.0 / 8,
				ChunkFrames:  2000,
				Seed:         seed,
			}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return ds
		}
		twin := mk()
		srv := httptest.NewServer(httpbatch.Handler(twin.Backend()))
		t.Cleanup(srv.Close)
		client, err := httpbatch.New(httpbatch.Config{Endpoint: srv.URL})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, client)
		remoteShards = append(remoteShards, mk(WithBackend(client)))
		localShards = append(localShards, mk())
	}
	remote, err := NewShardedSource("fleet", remoteShards...)
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewShardedSource("fleet", localShards...)
	if err != nil {
		t.Fatal(err)
	}

	// Batched Search interleaves shard picks; the sharded detector must
	// regroup them so each shard sees one wire batch per Search batch,
	// not one POST per frame.
	q := Query{Class: "car", Limit: 12}
	opts := Options{Seed: 5, BatchSize: 16}
	want, err := SearchSource(local, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SearchSource(remote, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("per-shard-endpoint search diverged: frames %d vs %d, results %d vs %d",
			got.FramesProcessed, want.FramesProcessed, len(got.Results), len(want.Results))
	}
	// Both shards actually served traffic, and served it batched.
	for i, st := range remote.ShardStats() {
		if st.DetectCalls == 0 {
			t.Fatalf("shard %d served no detector calls", i)
		}
	}
	for i, c := range clients {
		cs := c.Stats()
		if cs.Frames == 0 {
			t.Fatalf("client %d saw no traffic", i)
		}
		if avg := float64(cs.Frames) / float64(cs.Batches); avg < 2 {
			t.Fatalf("client %d averaged %.1f frames/batch — interleaved picks degraded to per-frame calls", i, avg)
		}
	}
}

func TestHTTPBatchCancellationMidBatchSurfacesThroughWait(t *testing.T) {
	// A server that blocks while a batch is in flight: cancelling the
	// query's context must abort the wire call, surface the context error
	// through QueryHandle.Wait, and leave a consistent partial report.
	twin := truthTwin(t)
	inner := httpbatch.Handler(twin.Backend())
	inFlight := make(chan struct{}, 64)
	block := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case inFlight <- struct{}{}:
		default:
		}
		select {
		case <-block:
		case <-r.Context().Done():
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	defer close(block)

	client, err := httpbatch.New(httpbatch.Config{Endpoint: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	remote := smallDataset(t, WithBackend(client))

	e := newTestEngine(t, EngineOptions{Workers: 2, FramesPerRound: 4})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := e.Submit(ctx, remote, Query{Class: "car", Limit: 1000}, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-inFlight:
	case <-time.After(10 * time.Second):
		t.Fatal("no batch reached the server")
	}
	cancel()
	rep, err := h.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("no partial report")
	}
	// The in-flight round was discarded whole: the partial report is
	// consistent at a round boundary (results ⊆ frames, totals coherent).
	if int64(len(rep.Results)) > rep.FramesProcessed {
		t.Fatalf("inconsistent partial report: %d results from %d frames", len(rep.Results), rep.FramesProcessed)
	}
	if rep.FramesProcessed > 0 && rep.TotalSeconds() <= 0 {
		t.Fatalf("frames charged but no seconds: %+v", rep)
	}
}

func TestSubmitRejectsNilAndZeroValueSources(t *testing.T) {
	e := newTestEngine(t, EngineOptions{Workers: 1})
	q := Query{Class: "car", Limit: 1}

	cases := []struct {
		name string
		src  Source
	}{
		{"nil interface", nil},
		{"typed-nil dataset", (*Dataset)(nil)},
		{"typed-nil sharded", (*ShardedSource)(nil)},
		{"zero-value dataset", &Dataset{}},
		{"zero-value sharded", &ShardedSource{}},
	}
	for _, tc := range cases {
		if _, err := e.Submit(context.Background(), tc.src, q, Options{}); err == nil {
			t.Errorf("%s: Submit accepted an unusable source", tc.name)
		}
	}
	// The same guard protects the synchronous entry points.
	if _, err := SearchSource(&ShardedSource{}, q, Options{}); err == nil {
		t.Error("SearchSource accepted a zero-value ShardedSource")
	}
	if _, err := NewSession(&Dataset{}, q, Options{}); err == nil {
		t.Error("NewSession accepted a zero-value Dataset")
	}
}

func TestBackendErrorFailsSearchCleanly(t *testing.T) {
	// A backend that always fails: Search must surface the error, not
	// panic or spin.
	ds := smallDataset(t, WithBackend(failingBackend{}))
	_, err := ds.Search(Query{Class: "car", Limit: 5}, Options{Seed: 1})
	if err == nil || !errors.Is(err, errBackendDown) {
		t.Fatalf("Search = %v, want errBackendDown", err)
	}
}

var errBackendDown = errors.New("backend down")

type failingBackend struct{}

func (failingBackend) DetectBatch(ctx context.Context, class string, frames []int64) ([][]backend.Detection, error) {
	return nil, errBackendDown
}

func (failingBackend) Hints() backend.Hints { return backend.Hints{CostSeconds: 0.01} }

// flakyBackend answers through inner until its k-th DetectBatch call, then
// fails every call with errBackendDown until healed.
type flakyBackend struct {
	inner  backend.Backend
	k      int64
	calls  atomic.Int64
	served atomic.Int64 // frames answered
	healed atomic.Bool
}

func (b *flakyBackend) DetectBatch(ctx context.Context, class string, frames []int64) ([][]backend.Detection, error) {
	if b.calls.Add(1) >= b.k && !b.healed.Load() {
		return nil, errBackendDown
	}
	dets, err := b.inner.DetectBatch(ctx, class, frames)
	if err == nil {
		b.served.Add(int64(len(frames)))
	}
	return dets, err
}

func (b *flakyBackend) Hints() backend.Hints { return b.inner.Hints() }

// TestDriversOnBackendFailure: a backend failing from its fifth call ends
// each synchronous driver the way its contract says. Search returns the
// error and no report, batched or not. TrackSearch returns the error with a
// partial report holding exactly the frames served before the failure — no
// partial round applied. Session.Step returns the error with nothing
// charged or applied, and steps on once the backend recovers.
func TestDriversOnBackendFailure(t *testing.T) {
	const k = 5
	searchFails := func(opts Options) func(*testing.T, *Dataset, *flakyBackend) {
		return func(t *testing.T, ds *Dataset, _ *flakyBackend) {
			rep, err := ds.Search(Query{Class: "car", Limit: 1000}, opts)
			if rep != nil || !errors.Is(err, errBackendDown) {
				t.Fatalf("Search = (%v, %v), want (<nil>, %v)", rep, err, errBackendDown)
			}
		}
	}
	cases := []struct {
		name  string
		scene func(*testing.T, ...DatasetOption) *Dataset
		check func(*testing.T, *Dataset, *flakyBackend)
	}{
		{"search", smallDataset, searchFails(Options{Seed: 1})},
		{"search batched", smallDataset, searchFails(Options{Seed: 1, BatchSize: 8})},
		{"track search", trackScene, func(t *testing.T, ds *Dataset, b *flakyBackend) {
			rep, err := ds.TrackSearch(trackPred(), TrackOptions{Seed: 3})
			if rep == nil || !errors.Is(err, errBackendDown) {
				t.Fatalf("TrackSearch = (%v, %v), want a partial report and %v", rep, err, errBackendDown)
			}
			if rep.FramesProcessed != b.served.Load() {
				t.Fatalf("report holds %d frames, the backend served %d", rep.FramesProcessed, b.served.Load())
			}
		}},
		{"session step", smallDataset, func(t *testing.T, ds *Dataset, b *flakyBackend) {
			s, err := ds.NewSession(Query{Class: "car"}, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < k; i++ {
				if _, ok, err := s.Step(); !ok || err != nil {
					t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
				}
			}
			frames, seconds, found := s.Frames(), s.Seconds(), len(s.Results())
			if _, ok, err := s.Step(); ok || !errors.Is(err, errBackendDown) {
				t.Fatalf("failing step: ok=%v err=%v, want %v", ok, err, errBackendDown)
			}
			if s.Frames() != frames || s.Seconds() != seconds || len(s.Results()) != found {
				t.Fatalf("failed step changed the session: frames %d -> %d, seconds %v -> %v, results %d -> %d",
					frames, s.Frames(), seconds, s.Seconds(), found, len(s.Results()))
			}
			b.healed.Store(true)
			if _, ok, err := s.Step(); !ok || err != nil || s.Frames() != frames+1 {
				t.Fatalf("step after recovery: ok=%v err=%v frames=%d, want %d", ok, err, s.Frames(), frames+1)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := &flakyBackend{inner: tc.scene(t).Backend(), k: k}
			tc.check(t, tc.scene(t, WithBackend(b)), b)
		})
	}
}
