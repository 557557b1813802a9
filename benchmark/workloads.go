package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	exsample "github.com/exsample/exsample"
	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/backend/httpbatch"
	"github.com/exsample/exsample/backend/router"
	"github.com/exsample/exsample/cachestore"
	"github.com/exsample/exsample/cachestore/httpcache"
)

// config is what one benchmark run is parameterized by. Everything else —
// dataset sizes, op counts, round sizes — is fixed in this file, so count
// metrics repeat exactly for a seed.
type config struct {
	seed uint64
	// clients is C, the closed loop's client goroutine count; it is also
	// EngineOptions.Workers and the cap on in-flight loopback connections.
	clients int
	// short selects the smoke-test sizes used by benchmark_test.go.
	short bool
}

func (c config) n(full, short int) int {
	if c.short {
		return short
	}
	return full
}

// mix derives an independent 64-bit seed from the run seed, a stream tag and
// an index (splitmix64 finalizer), so every SynthSpec.Seed and Options.Seed
// is a pure function of -seed.
func mix(seed, stream, i uint64) uint64 {
	x := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + i*0x94d049bb133111eb + 0x632be59bd9b4e019
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

type opKind uint8

const (
	opSearch opKind = iota // Engine.Submit → Wait
	opTrack                // Engine.SubmitTrack → Wait
	opAppend               // StreamSource.Append → standing query parked again
)

// op is one seeded operation of a workload's fixed list. It holds plain
// values only, so op lists compare with ==.
type op struct {
	Kind opKind
	// Src indexes world.sources (search, track) or is the owning client's
	// stream (append).
	Src  int
	Seed uint64
	// Limit and MaxFrames bound a search op (0 = unbounded).
	Limit     int
	MaxFrames int64
	// Seg is the pre-synthesized segment an append op attaches.
	Seg int
}

// workload is one named entry of the benchmark.
type workload struct {
	name string
	// why is the one-sentence reason the workload exists (BENCHMARK.json
	// carries the same text).
	why string
	// framesPerRound is EngineOptions.FramesPerRound for the workload.
	framesPerRound int
	// eventBuffer is EngineOptions.EventBuffer. It is sized to hold every
	// event an op can emit: with the engine's default of 256 a client that
	// the 2-core box deschedules for a few milliseconds loses events, and a
	// workload on which ops fail by chance cannot gate anything.
	eventBuffer int
	// budgeted marks workloads whose ops end on an exact frame budget or
	// by exhaustion, so every detected frame is applied; limit-bounded ops
	// may discard the tail of their last round.
	budgeted bool
	class    string
	build    func(w *world) error
}

// world is a workload's fixed, seed-generated state: everything built
// before the first timed op (the setup_s metric) and shared by all reps.
type world struct {
	cfg  config
	spec *workload
	p    *probe
	ops  []op
	// sources are what search and track ops query, indexed by op.Src.
	sources []exsample.Source
	// segs are live_stream's pre-synthesized segments per client; segs[c][0]
	// primes client c's stream.
	segs [][]*exsample.Dataset
	// chunks is the sampler's arm count and shardFrames the shard layout,
	// for the layer drivers; recSpec is the spec of the dataset whose
	// detections the recorder keeps.
	chunks      int
	shardFrames []int64
	recSpec     exsample.SynthSpec

	transport *http.Transport
	// fleet is remote_fleet's detector: the replica clients live as long as
	// the world, the router over them is rebuilt for every rep.
	fleet    *fleet
	replicas []*httpbatch.Client
	// cacheURL is tier_warm's persistent, pre-populated cache server; tier_fill
	// starts a fresh one per rep.
	cacheURL string
	tier     bool
	closers  []func()
}

func (w *world) close() {
	for i := len(w.closers) - 1; i >= 0; i-- {
		w.closers[i]()
	}
	if w.transport != nil {
		w.transport.CloseIdleConnections()
	}
}

// httpClient returns an http.Client over the world's transport with the
// benchmark's byte-counting, scope-forwarding RoundTripper interposed.
func (w *world) httpClient(cacheTraffic bool) *http.Client {
	if w.transport == nil {
		w.transport = &http.Transport{MaxIdleConnsPerHost: w.cfg.clients}
	}
	tap := &wireTap{p: w.p, inner: w.transport, bytes: &w.p.detectWireBytes}
	if cacheTraffic {
		tap.bytes = &w.p.cacheWireBytes
	}
	return &http.Client{Transport: tap}
}

// serve starts a loopback server that lives as long as the world.
func (w *world) serve(h http.Handler) string {
	srv := httptest.NewServer(h)
	w.closers = append(w.closers, srv.Close)
	return srv.URL
}

// synth builds one dataset whose detector is reached through the
// benchmark's seams: backend seam → detect seam → simulated detector. The
// simulated detector belongs to an identical twin, which is how a dataset's
// own detector becomes a public backend.Backend. record marks the dataset
// whose detections the layer drivers replay. A non-nil fleet builds what
// sits between the two seams (and places the detect seams itself).
func (w *world) synth(spec exsample.SynthSpec, record bool, fleet func(sim backend.Backend) (backend.Backend, error)) (*exsample.Dataset, error) {
	twin, err := exsample.Synthesize(spec)
	if err != nil {
		return nil, err
	}
	if record {
		w.recSpec = spec
	}
	var be backend.Backend
	if fleet != nil {
		if be, err = fleet(twin.Backend()); err != nil {
			return nil, err
		}
	} else {
		be = w.p.detectSeam(twin.Backend(), record)
	}
	return exsample.Synthesize(spec, exsample.WithBackend(w.p.backendSeam(be)))
}

// sharded builds a ShardedSource of n equal synthetic shards.
func (w *world) sharded(name string, n int, spec exsample.SynthSpec, stream uint64) (*exsample.ShardedSource, error) {
	shards := make([]*exsample.Dataset, n)
	for i := range shards {
		s := spec
		s.Seed = mix(w.cfg.seed, stream, uint64(i))
		ds, err := w.synth(s, i == 0, nil)
		if err != nil {
			return nil, err
		}
		shards[i] = ds
		w.shardFrames = append(w.shardFrames, s.NumFrames)
	}
	src, err := exsample.NewShardedSource(name, shards...)
	if err != nil {
		return nil, err
	}
	w.chunks = src.NumChunks()
	return src, nil
}

// searchOps fills the op list with n search ops over the world's sources,
// round-robin.
func (w *world) searchOps(n, limit int, maxFrames int64, stream uint64) {
	for i := 0; i < n; i++ {
		w.ops = append(w.ops, op{
			Kind:      opSearch,
			Src:       i % len(w.sources),
			Seed:      mix(w.cfg.seed, stream, uint64(i)),
			Limit:     limit,
			MaxFrames: maxFrames,
		})
	}
}

// unbounded is the Limit of a frame-budgeted query: Query.Validate wants a
// limit, and this one is never reached.
const unbounded = 1 << 30

var workloads = []*workload{
	{
		name:           "search_few_chunks",
		why:            "Distinct-object queries over 64 chunks with a free in-process detector: the query pipeline (apply, discriminator, rounds, event emit) does the work, the sampler little.",
		framesPerRound: 8,
		eventBuffer:    1 << 10,
		class:          "car",
		build: func(w *world) error {
			src, err := w.sharded("few", 4, exsample.SynthSpec{
				NumFrames:    int64(w.cfg.n(80_000, 16_000)),
				NumInstances: w.cfg.n(400, 80),
				Class:        "car",
				MeanDuration: 120,
				SkewFraction: 1.0 / 8,
				ChunkFrames:  int64(w.cfg.n(5000, 1000)),
			}, 1)
			if err != nil {
				return err
			}
			w.sources = []exsample.Source{src}
			w.searchOps(w.cfg.n(64, 8), w.cfg.n(600, 40), 0, 2)
			return nil
		},
	},
	{
		name:           "search_many_chunks",
		why:            "The same query class over 1000 chunks: one Gamma draw per chunk per pick makes the sampler the blocking step on the scheduler goroutine.",
		framesPerRound: 8,
		eventBuffer:    1 << 10,
		class:          "car",
		build: func(w *world) error {
			src, err := w.sharded("many", 4, exsample.SynthSpec{
				NumFrames:    int64(w.cfg.n(500_000, 20_000)),
				NumInstances: w.cfg.n(1500, 60),
				Class:        "car",
				MeanDuration: 100,
				SkewFraction: 1.0 / 8,
				ChunkFrames:  int64(w.cfg.n(2000, 400)),
			}, 1)
			if err != nil {
				return err
			}
			w.sources = []exsample.Source{src}
			w.searchOps(w.cfg.n(64, 4), w.cfg.n(200, 10), 0, 2)
			return nil
		},
	},
	{
		name:           "remote_fleet",
		why:            "Frame-budgeted queries whose detector is a router over three loopback HTTP replicas with simulated service times: wire codec, transport and replica pick do the CPU work.",
		framesPerRound: 64,
		eventBuffer:    1 << 10,
		budgeted:       true,
		class:          "car",
		build:          buildRemoteFleet,
	},
	{
		name:           "tier_fill",
		why:            "Write side of the shared result tier: every frame misses L1 and a fresh remote L2, is detected once and written through to both.",
		framesPerRound: 32,
		eventBuffer:    1 << 9,
		budgeted:       true,
		class:          "car",
		build:          func(w *world) error { return buildTier(w, false) },
	},
	{
		name:           "tier_warm",
		why:            "Read side of the shared result tier: a fresh engine replays ops whose frames a previous run left in the remote L2, so the detector never fires.",
		framesPerRound: 32,
		eventBuffer:    1 << 9,
		budgeted:       true,
		class:          "car",
		build:          func(w *world) error { return buildTier(w, true) },
	},
	{
		name:           "live_stream",
		why:            "Standing queries over growing segment rings: append, motion gate, shard attach and drain, park and wake, one alert event per new object.",
		framesPerRound: 4,
		eventBuffer:    1 << 15,
		budgeted:       true,
		class:          "car",
		build:          buildLiveStream,
	},
	{
		name:           "track_search",
		why:            "Track-predicate queries over sparse moving-object scenes: the accelerate/refine plan, SORT association and Kalman smoothing do the work, the discriminator none.",
		framesPerRound: 8,
		budgeted:       true,
		class:          "car",
		build: func(w *world) error {
			scenes := w.cfg.n(16, 2)
			for i := 0; i < scenes; i++ {
				spec := exsample.SynthSpec{
					NumFrames:    int64(w.cfg.n(40_000, 8000)),
					NumInstances: 8,
					Class:        "car",
					MeanDuration: 300,
					ChunkFrames:  1000,
					TravelX:      300,
					Seed:         mix(w.cfg.seed, 1, uint64(i)),
				}
				ds, err := w.synth(spec, i == 0, nil)
				if err != nil {
					return err
				}
				w.sources = append(w.sources, ds)
				w.chunks = ds.NumChunks()
				w.shardFrames = []int64{spec.NumFrames}
			}
			for i := 0; i < w.cfg.n(48, 4); i++ {
				w.ops = append(w.ops, op{Kind: opTrack, Src: i % scenes, Seed: mix(w.cfg.seed, 2, uint64(i))})
			}
			return nil
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// The simulated service times of remote_fleet's replicas: one fast, two slow.
var replicaService = [3]struct{ overhead, perFrame time.Duration }{
	{300 * time.Microsecond, 4 * time.Microsecond},
	{300 * time.Microsecond, 8 * time.Microsecond},
	{300 * time.Microsecond, 8 * time.Microsecond},
}

const remoteMaxBatch = 64

func buildRemoteFleet(w *world) error {
	spec := exsample.SynthSpec{
		NumFrames:    int64(w.cfg.n(200_000, 20_000)),
		NumInstances: w.cfg.n(300, 30),
		Class:        "car",
		MeanDuration: 150,
		SkewFraction: 1.0 / 16,
		ChunkFrames:  int64(w.cfg.n(4000, 400)),
		Seed:         mix(w.cfg.seed, 1, 0),
	}
	ds, err := w.synth(spec, true, func(sim backend.Backend) (backend.Backend, error) {
		// The replicas are equivalent by construction: they serve the same
		// simulated detector, each behind its own service time. The detect
		// seam sits outside the sleep, so detect.* is the simulated service.
		w.fleet = &fleet{specs: make([]router.ReplicaSpec, len(replicaService))}
		for i, svc := range replicaService {
			served := w.p.detectSeam(&sleepBackend{inner: sim, overhead: svc.overhead, perFrame: svc.perFrame, maxBatch: remoteMaxBatch}, i == 0)
			url := w.serve(w.p.handlerSeam(spanDetectHandler, httpbatch.Handler(served)))
			client, err := httpbatch.New(httpbatch.Config{
				Endpoint:      url,
				HTTPClient:    w.httpClient(false),
				MaxConcurrent: w.cfg.clients,
				MaxBatch:      remoteMaxBatch,
			})
			if err != nil {
				return nil, err
			}
			w.replicas = append(w.replicas, client)
			w.fleet.specs[i] = router.ReplicaSpec{Backend: w.p.replicaSeam(i, client), Name: fmt.Sprintf("replica-%d", i)}
		}
		return w.fleet, w.fleet.reset()
	})
	if err != nil {
		return err
	}
	w.sources = []exsample.Source{ds}
	w.chunks = ds.NumChunks()
	w.shardFrames = []int64{spec.NumFrames}
	w.searchOps(w.cfg.n(24, 4), unbounded, int64(w.cfg.n(1024, 256)), 2)
	return nil
}

// fleet is the dataset's view of remote_fleet's replicas: a backend that
// forwards to a router which reset replaces. A router remembers — latency
// averages, round-robin credits, breaker state — and a replica it once
// measured slow is never measured again, so a router kept across reps would
// make each rep's routing depend on the reps before it. Every rep starts
// from a cold router instead, like it starts from a cold engine.
type fleet struct {
	specs []router.ReplicaSpec
	cur   atomic.Pointer[router.Router]
}

func (f *fleet) reset() error {
	r, err := router.New(router.Config{Specs: f.specs})
	if err != nil {
		return err
	}
	f.cur.Store(r)
	return nil
}

func (f *fleet) DetectBatch(ctx context.Context, class string, frames []int64) ([][]backend.Detection, error) {
	return f.cur.Load().DetectBatch(ctx, class, frames)
}

func (f *fleet) DetectBatchCost(ctx context.Context, class string, frames []int64) ([][]backend.Detection, []float64, error) {
	return f.cur.Load().DetectBatchCost(ctx, class, frames)
}

func (f *fleet) Hints() backend.Hints { return f.cur.Load().Hints() }

// buildTier builds the shared-tier workloads. Every op queries its own small
// dataset, so no two ops of a rep share a cache key: tier_fill's frames all
// miss both tiers and are detected exactly once, tier_warm's all come from
// the remote tier, and the invariants hold exactly rather than on average.
func buildTier(w *world, warm bool) error {
	w.tier = true
	n := w.cfg.n(48, 4)
	for i := 0; i < n; i++ {
		spec := exsample.SynthSpec{
			NumFrames:    16_000,
			NumInstances: 30,
			Class:        "car",
			MeanDuration: 60,
			SkewFraction: 1.0 / 4,
			ChunkFrames:  1000,
			Seed:         mix(w.cfg.seed, 1, uint64(i)),
		}
		ds, err := w.synth(spec, i == 0, nil)
		if err != nil {
			return err
		}
		w.sources = append(w.sources, ds)
		w.chunks = ds.NumChunks()
		w.shardFrames = []int64{spec.NumFrames}
	}
	w.searchOps(n, unbounded, int64(w.cfg.n(512, 128)), 2)
	if !warm {
		return nil
	}
	// Populate the persistent L2 by running the op list once, as the
	// "previous user" whose detector bill this workload's reps inherit.
	w.cacheURL = w.serve(w.p.handlerSeam(spanCacheHandler, httpcache.Handler(w.p.serverStoreSeam(cachestore.NewLocal(1<<16)))))
	r, err := w.startRep()
	if err != nil {
		return err
	}
	defer r.close()
	for i, o := range w.ops {
		if res := w.runOp(context.Background(), r, o); res.err != nil {
			return fmt.Errorf("populate op %d: %w", i, res.err)
		}
	}
	return nil
}

// streamRetention and streamGate are live_stream's ring parameters.
const (
	streamRetention = 4
	streamGate      = 0.12
)

// deadSegment reports whether a client's a-th append is a dead (motionless)
// segment. One in three is: the motion gate fences them at append and the
// detector never sees their frames. Segment 0 primes the stream and is dead
// too, so every rep starts parked with nothing processed.
func deadSegment(a int) bool { return a%3 == 0 }

func buildLiveStream(w *world) error {
	appends := w.cfg.n(24, 4)
	segmentFrames := int64(w.cfg.n(1000, 200))
	for c := 0; c < w.cfg.clients; c++ {
		segs := make([]*exsample.Dataset, appends+1)
		for a := range segs {
			spec := exsample.SynthSpec{
				NumFrames:    segmentFrames,
				NumInstances: 40,
				Class:        "car",
				MeanDuration: 100,
				SkewFraction: 1.0 / 8,
				ChunkFrames:  segmentFrames / 8,
				Seed:         mix(w.cfg.seed, 1+uint64(c), uint64(a)),
			}
			if deadSegment(a) {
				spec.NumInstances, spec.MeanDuration = 1, 1
			}
			ds, err := w.synth(spec, c == 0 && a == 1, nil)
			if err != nil {
				return err
			}
			segs[a] = ds
		}
		w.segs = append(w.segs, segs)
		for a := 1; a <= appends; a++ {
			w.ops = append(w.ops, op{Kind: opAppend, Src: c, Seg: a, Seed: mix(w.cfg.seed, 100, uint64(c))})
		}
	}
	w.chunks = streamRetention * 8
	for i := 0; i < streamRetention; i++ {
		w.shardFrames = append(w.shardFrames, segmentFrames)
	}
	return nil
}
