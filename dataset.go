package exsample

import (
	"fmt"
	"hash/fnv"
	"sort"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/internal/baseline"
	"github.com/exsample/exsample/internal/costmodel"
	"github.com/exsample/exsample/internal/datasets"
	"github.com/exsample/exsample/internal/detect"
	"github.com/exsample/exsample/internal/discrim"
	"github.com/exsample/exsample/internal/synth"
	"github.com/exsample/exsample/internal/track"
	"github.com/exsample/exsample/internal/video"
)

// Dataset is a searchable video repository with known ground truth: a frame
// layout, a chunking, per-class object instances, a simulated detector and
// the cost model that converts frame counts into query time.
//
// Real deployments would wire a decoder and a DNN here; the paper's sampler
// only ever sees frame indices, detections and costs, which is exactly what
// Dataset provides.
type Dataset struct {
	inner *datasets.Dataset
	noise detect.NoiseModel
	cost  costmodel.Model
	dec   video.DecodeCostModel
	seed  uint64
	// be is the attached custom detector backend; nil runs the simulated
	// detector (the default Backend).
	be backend.Backend
	// qs is the dataset's query-pipeline plumbing, built after options are
	// applied (see Source).
	qs *querySource
}

// DatasetOption customizes dataset construction.
type DatasetOption func(*Dataset)

// WithPerfectDetector removes all detector noise.
func WithPerfectDetector() DatasetOption {
	return func(d *Dataset) {
		d.noise = detect.NoiseModel{MinScore: 1, MaxScore: 1}
	}
}

// WithBackend attaches a custom detector backend: every query against the
// dataset runs its inference through b instead of the simulated detector.
// The sampler and cost accounting are unchanged — the backend is the
// paper's black box, and the pipeline charges whatever cost it reports
// (Hints().CostSeconds per frame, or the measured per-call cost for
// backend.BatchCoster implementations such as httpbatch).
//
// The discriminator is not: it simulates the paper's tracker from each
// detection's TruthID, and a detection with TruthID -1 gets a one-frame
// track that nothing later matches. A backend that reports no truth ids
// therefore turns every detection into a new result, and ExSample's N1
// counts every detection, not new objects. On a 300-object synthetic
// dataset that over-counts 8x at 500 frames and 81x at 8000 (ROADMAP
// item 17).
//
// In a ShardedSource each shard keeps its own backend, so a fleet can route
// every shard to its own endpoint. Backends used with the Engine's memo
// cache must be deterministic per (class, frame); see the backend package's
// determinism caveat.
func WithBackend(b backend.Backend) DatasetOption {
	return func(d *Dataset) { d.be = b }
}

// Backend returns the dataset's detector as a public backend.Backend: the
// attached custom backend when one was configured, otherwise the simulated
// detector, the default backend every query detects through. Serving the
// returned backend over backend/httpbatch.Handler turns the dataset into a
// remote detection endpoint — the loopback setup the end-to-end tests and
// exserve's -backend http mode use.
//
// This is the public boundary: the returned simulated detector rejects a
// class the dataset has no ground truth for, where a query's own detector
// (a shard lacking the query's class) detects nothing.
func (d *Dataset) Backend() backend.Backend {
	if d.be != nil {
		return d.be
	}
	return &simBackend{d: d, strict: true}
}

// ProfileNames lists the built-in dataset profiles (the paper's six
// evaluation datasets).
func ProfileNames() []string {
	ps := datasets.Profiles()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// OpenProfile builds one of the six built-in synthetic datasets at the given
// scale (1 = paper size; e.g. 0.1 shrinks frames and populations 10x while
// preserving density and skew). seed drives ground-truth generation and the
// detector's noise.
func OpenProfile(name string, scale float64, seed uint64, opts ...DatasetOption) (*Dataset, error) {
	p, err := datasets.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	inner, err := datasets.Build(p, scale, seed)
	if err != nil {
		return nil, err
	}
	return newDataset(inner, seed, opts...), nil
}

func newDataset(inner *datasets.Dataset, seed uint64, opts ...DatasetOption) *Dataset {
	d := &Dataset{
		inner: inner,
		noise: detect.DefaultNoise(),
		cost:  costmodel.Default(),
		dec:   video.DefaultDecodeCost(),
		seed:  seed,
	}
	for _, o := range opts {
		o(d)
	}
	d.qs = &querySource{
		id:        sourceIDs.Add(1),
		contentID: datasetContentID(inner, seed, d.noise),
		name:      inner.Profile.Name,
		numFrames: inner.Repo.NumFrames(),
		fps:       inner.Profile.FPS,
		chunks:    inner.Chunks,
		numShards: 1,
		maxBatch: func() int {
			if d.be == nil {
				return 0 // the simulated detector batches without bound
			}
			return d.be.Hints().MaxBatch
		},
		breakerOpens: func() int64 {
			if sig, ok := d.be.(capacitySignaler); ok {
				return sig.BreakerOpens()
			}
			return 0
		},
		decodeCost:  d.dec.Cost,
		scanSeconds: func(start, end int64) float64 { return d.cost.ScanSeconds(end - start) },
		groundTruth: d.GroundTruthCount,
		newDetector: d.newBatchDetector,
		newExtender: func() (discrim.Extender, error) {
			return discrim.NewTruthExtender(d.inner.Index, 1)
		},
		newScorer: func(class string, seed uint64) func(int64) float64 {
			return baseline.NewProxyScorer(d.inner.Index, class, seed).Score
		},
	}
	return d
}

// datasetContentID computes the stable content address of a dataset: an
// FNV-1a hash over every construction input that determines detector output
// — profile name, scale, generation seed, frame count, recording rate, the
// noise model and the per-class populations. Unlike the per-process source
// id, the value is identical across processes (and restarts) that opened
// the same data, which is what keys the shared result tier (cachestore).
func datasetContentID(inner *datasets.Dataset, seed uint64, noise detect.NoiseModel) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%g|%d|%d|%g|%+v|",
		inner.Profile.Name, inner.Scale, seed, inner.Repo.NumFrames(), inner.Profile.FPS, noise)
	classes := make([]string, 0, len(inner.CountByClass))
	for c := range inner.CountByClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(h, "%s=%d|", c, inner.CountByClass[c])
	}
	return h.Sum64()
}

// newBatchDetector builds the per-query batched detector — the single
// construction point shared by Search, Session and Engine, and the one
// detect path: the attached backend, or the simulated detector as the
// default backend, adapted for the query's class.
func (d *Dataset) newBatchDetector(class string) detect.BatchDetector {
	b := d.be
	if b == nil {
		b = &simBackend{d: d}
	}
	return newBackendDetector(b, class)
}

// SynthSpec describes a custom single-class synthetic dataset.
type SynthSpec struct {
	// NumFrames is the repository size.
	NumFrames int64
	// NumInstances is the distinct object population.
	NumInstances int
	// Class names the objects (default "object").
	Class string
	// MeanDuration is the mean visibility in frames.
	MeanDuration float64
	// SkewFraction concentrates 95% of objects into this fraction of the
	// repository (0 = uniform).
	SkewFraction float64
	// ChunkFrames is the chunk length (0 = 1/64 of the repository).
	ChunkFrames int64
	// FPS is the recording rate (0 = 30).
	FPS float64
	// Seed drives generation.
	Seed uint64
	// TravelX and TravelY, when either is nonzero, give every object a net
	// displacement of (TravelX, TravelY) pixels over its lifetime, so speed
	// and direction predicates have something to discriminate on. Both zero
	// keeps the legacy slight drift.
	TravelX, TravelY float64
}

// Synthesize builds a custom dataset from a SynthSpec.
func Synthesize(spec SynthSpec, opts ...DatasetOption) (*Dataset, error) {
	if spec.FPS == 0 {
		spec.FPS = 30
	}
	if spec.Class == "" {
		spec.Class = "object"
	}
	if spec.ChunkFrames == 0 {
		spec.ChunkFrames = spec.NumFrames / 64
		if spec.ChunkFrames < 1 {
			spec.ChunkFrames = 1
		}
	}
	instances, err := synth.Generate(synth.GridSpec{
		NumInstances: spec.NumInstances,
		NumFrames:    spec.NumFrames,
		SkewFraction: spec.SkewFraction,
		MeanDuration: spec.MeanDuration,
		Class:        spec.Class,
		Seed:         spec.Seed,
		TravelX:      spec.TravelX,
		TravelY:      spec.TravelY,
	})
	if err != nil {
		return nil, err
	}
	repo, err := video.NewRepository(spec.FPS, spec.NumFrames)
	if err != nil {
		return nil, err
	}
	chunks, err := repo.ChunkByDuration(spec.ChunkFrames)
	if err != nil {
		return nil, err
	}
	idx, err := track.NewIndex(instances, spec.NumFrames, 0)
	if err != nil {
		return nil, err
	}
	inner := &datasets.Dataset{
		Profile: datasets.Profile{
			Name:        "custom",
			NumFrames:   spec.NumFrames,
			FPS:         spec.FPS,
			ChunkFrames: spec.ChunkFrames,
			Queries: []datasets.QuerySpec{{
				Class:        spec.Class,
				NumInstances: spec.NumInstances,
				MeanDuration: spec.MeanDuration,
				SkewFraction: spec.SkewFraction,
			}},
		},
		Scale:        1,
		Repo:         repo,
		Chunks:       chunks,
		Instances:    instances,
		Index:        idx,
		CountByClass: map[string]int{spec.Class: len(instances)},
	}
	d := newDataset(inner, spec.Seed, opts...)
	// The shared profile name "custom" under-determines a synthetic dataset
	// (TravelX/TravelY, duration, skew all shape detector output), so fold
	// the full spec into the content address.
	h := fnv.New64a()
	fmt.Fprintf(h, "%x|%+v", d.qs.contentID, spec)
	d.qs.contentID = h.Sum64()
	return d, nil
}

// Name returns the dataset profile name.
func (d *Dataset) Name() string { return d.inner.Profile.Name }

// NumFrames returns the repository size in frames.
func (d *Dataset) NumFrames() int64 { return d.inner.Repo.NumFrames() }

// NumChunks returns the native chunk count.
func (d *Dataset) NumChunks() int { return len(d.inner.Chunks) }

// Hours returns the repository length in hours of video.
func (d *Dataset) Hours() float64 { return d.inner.Repo.Hours() }

// Classes lists the searchable object classes, sorted.
func (d *Dataset) Classes() []string {
	out := make([]string, 0, len(d.inner.CountByClass))
	for c := range d.inner.CountByClass {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// GroundTruthCount returns the number of distinct instances of a class.
func (d *Dataset) GroundTruthCount(class string) (int, error) {
	n, ok := d.inner.CountByClass[class]
	if !ok {
		return 0, fmt.Errorf("exsample: dataset %q has no class %q", d.Name(), class)
	}
	return n, nil
}

// ScanSeconds returns the time a proxy-model scoring pass over the whole
// dataset costs under the dataset's cost model — the upfront price of the
// proxy baseline (Table I's "proxy (scan)" column).
func (d *Dataset) ScanSeconds() float64 {
	return d.cost.ScanSeconds(d.NumFrames())
}

// NumShards implements Source: a local dataset is a single shard.
func (d *Dataset) NumShards() int { return 1 }

// querySource implements Source. It is nil-receiver-safe and returns nil
// for a zero-value Dataset, so the pipeline can reject uninitialized
// sources with a clear error instead of a panic.
func (d *Dataset) querySource() *querySource {
	if d == nil {
		return nil
	}
	return d.qs
}
