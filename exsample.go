// Package exsample is a Go implementation of ExSample (Moll et al., ICDE
// 2022): adaptive sampling for distinct-object limit queries over large,
// un-indexed video repositories.
//
// A distinct-object query asks for a number of different objects of a class
// ("find 20 traffic lights in my dashcam archive"), where repeated
// detections of the same physical object count once. Running an object
// detector on every frame is prohibitively expensive; ExSample instead
// splits the repository into temporal chunks, estimates per chunk how likely
// the next sampled frame is to reveal a new object (R̂ = N1/n), and uses
// Thompson sampling over Gamma(N1+α0, n+β0) beliefs to decide where to
// sample next. Chunks that keep producing new objects get more samples;
// chunks that are exhausted or empty are visited less.
//
// # Quick start
//
//	ds, err := exsample.OpenProfile("dashcam", 0.1, 42)
//	if err != nil { ... }
//	report, err := ds.Search(
//		exsample.Query{Class: "traffic light", Limit: 20},
//		exsample.Options{Strategy: exsample.StrategyExSample},
//	)
//	for _, r := range report.Results {
//		fmt.Printf("object %d at frame %d\n", r.ObjectID, r.Frame)
//	}
//
// # Concurrent queries
//
// Engine serves many simultaneous queries — across one or more open
// Datasets — over one bounded detector worker pool, scheduling rounds
// fair-share across queries while Thompson sampling still decides the
// frame within each query:
//
//	eng, err := exsample.NewEngine(exsample.EngineOptions{Workers: 4})
//	if err != nil { ... }
//	defer eng.Close()
//	h, err := eng.Submit(ctx, ds,
//		exsample.Query{Class: "traffic light", Limit: 20},
//		exsample.Options{Seed: 42},
//	)
//	for ev := range h.Events() { // streamed incremental results
//		for _, r := range ev.New {
//			fmt.Printf("object %d at frame %d\n", r.ObjectID, r.Frame)
//		}
//	}
//	report, err := h.Wait()
//
// Each query gets a handle with context cancellation, an event stream and
// a final Report. A seeded query through the Engine is byte-identical to
// Dataset.Search with the same options: the pool parallelizes only the
// stateless detector, never the sampler or discriminator bookkeeping.
// Session exposes the same step loop for single-query incremental use.
//
// # Sources, sharding and caching
//
// Search, Session and Engine all run against a Source — the seam between
// the query pipeline and a repository. A Source is either a single local
// Dataset or a ShardedSource composing N datasets into one global frame
// space:
//
//	shards := []*exsample.Dataset{day1, day2, day3}
//	archive, err := exsample.NewShardedSource("archive", shards...)
//	if err != nil { ... }
//	rep, err := archive.Search(
//		exsample.Query{Class: "truck", Limit: 40},
//		exsample.Options{Seed: 7},
//	)
//
// Shard chunk ids are remapped into one sampler space, so a query's
// Thompson sampler treats every shard's chunks as arms of the same bandit
// while detector calls route back to the owning shard (the Engine groups
// each scheduling round's inference batch by shard). A seeded query over a
// 1-shard source is byte-identical to Dataset.Search on the underlying
// dataset.
//
// EngineOptions.CacheEntries enables a bounded cross-query memo cache of
// detector outputs keyed by (source, class, frame): overlapping concurrent
// queries stop paying for duplicate inference, with hits charged
// decode-only cost and Results unchanged from an uncached run.
//
// # Pluggable detector backends
//
// The detector is pluggable: the backend package defines the public
// batched, context-aware Backend contract, WithBackend attaches an
// implementation to a Dataset at open time (per shard in a ShardedSource,
// so each shard can route to its own endpoint), and backend/httpbatch
// ships a production-shaped remote HTTP batch client:
//
//	client, err := httpbatch.New(httpbatch.Config{Endpoint: "http://gpu-7:8080/detect"})
//	if err != nil { ... }
//	ds, err := exsample.OpenProfile("dashcam", 0.1, 42, exsample.WithBackend(client))
//
// The engine dispatches each scheduling round as one DetectBatch call per
// shard-affinity group — the access pattern a real GPU fleet wants — and
// charges the cost the backend reports. The simulated detector is just the
// default Backend behind an adapter; Dataset.Backend exposes it, and
// httpbatch.Handler serves any Backend over the wire protocol.
//
// The package ships six synthetic dataset profiles mirroring the paper's
// evaluation datasets, a simulated object detector and SORT-style
// discriminator (real video and DNN inference are out of scope — the
// sampler treats both as black boxes, exactly as the paper does), the
// paper's baselines (sequential, random, random+, and a BlazeIt-style proxy
// with its mandatory full-scan phase), and benchmark harnesses regenerating
// every table and figure in the paper's evaluation.
package exsample

import (
	"fmt"
	"math"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/internal/core"
	"github.com/exsample/exsample/internal/lab"
)

// Box is an axis-aligned bounding box in pixel coordinates; (X1, Y1) is the
// top-left corner. It is an alias of the backend package's stable wire
// type, so detections cross the public Backend API without conversion.
type Box = backend.Box

// Detection is one object detector output on a frame — an alias of the
// backend package's stable wire type (see backend.Detection for the field
// contract, including TruthID's -1-when-unknown convention).
type Detection = backend.Detection

// Strategy selects the frame-sampling method for a search.
type Strategy int

const (
	// StrategyExSample is the paper's chunk-based adaptive sampler.
	StrategyExSample Strategy = iota
	// StrategyRandom samples frames uniformly without replacement.
	StrategyRandom
	// StrategyRandomPlus stratifies random samples to avoid early temporal
	// clustering (§III-F).
	StrategyRandomPlus
	// StrategySequential scans frames in order (the naive baseline).
	StrategySequential
	// StrategyProxy scores every frame with a cheap proxy model first
	// (paying a full sequential scan), then runs the detector on frames in
	// descending score order — the BlazeIt-style baseline.
	StrategyProxy
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case StrategyExSample:
		return "exsample"
	case StrategyRandom:
		return "random"
	case StrategyRandomPlus:
		return "random+"
	case StrategySequential:
		return "sequential"
	case StrategyProxy:
		return "proxy"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Query describes what to search for and when to stop.
type Query struct {
	// Class is the object class to search for; it must exist in the
	// dataset.
	Class string
	// Limit stops the search after this many distinct objects (0 = no
	// limit).
	Limit int
	// RecallTarget stops the search once this fraction of the ground-truth
	// distinct instances has been found (0 = ignore). Only synthetic
	// datasets know their ground truth.
	RecallTarget float64
}

// Validate reports an error for a malformed query.
func (q Query) Validate() error { return q.validate(true) }

// validate is Validate with the stopping-condition requirement optional:
// a standing query may run open-ended.
func (q Query) validate(needStop bool) error {
	if q.Class == "" {
		return fmt.Errorf("exsample: query needs a class")
	}
	if q.Limit < 0 {
		return fmt.Errorf("exsample: negative limit %d", q.Limit)
	}
	if !(q.RecallTarget >= 0 && q.RecallTarget <= 1) {
		return fmt.Errorf("exsample: recall target %v outside [0,1]", q.RecallTarget)
	}
	if needStop && q.Limit == 0 && q.RecallTarget == 0 {
		return fmt.Errorf("exsample: query needs a limit or a recall target")
	}
	return nil
}

// Options tunes the search. The zero value runs ExSample with the paper's
// defaults (Thompson sampling, α0=0.1, β0=1, random+ within chunks, the
// dataset's native chunking).
type Options struct {
	// Strategy selects the sampling method (default StrategyExSample).
	Strategy Strategy
	// NumChunks overrides the dataset's native chunk layout with an even
	// split into this many chunks (0 = native layout).
	NumChunks int
	// Alpha0 and Beta0 override the belief prior (0 = paper defaults).
	Alpha0, Beta0 float64
	// BatchSize processes frames in rounds of this size with deferred
	// state updates, emulating GPU batch inference (§III-F): a round's
	// picks are all drawn before any of its updates apply, and its frames
	// reach the detector as one batch per shard. 0 or 1 is unbatched, and
	// only StrategyExSample batches; other strategies step one frame at a
	// time.
	BatchSize int
	// Seed drives all randomness in the search.
	Seed uint64
	// MaxFrames caps the number of frames processed (0 = repository size).
	MaxFrames int64
	// MaxSeconds caps the charged query time (0 = no cap).
	MaxSeconds float64
	// IoUThreshold is the discriminator match threshold (default 0.5).
	IoUThreshold float64
	// policy is the ExSample decision rule (zero value Thompson) and
	// within the frame order inside a chunk (zero value random+). Only the
	// ablation experiment (internal/bench, through internal/lab) and this
	// package's tests set them.
	policy core.Policy
	within core.WithinChunk
}

func init() {
	lab.WithSampler = func(opts any, s lab.Sampler) any {
		o := opts.(Options)
		o.policy, o.within = s.Policy, s.Within
		return o
	}
}

// Validate reports an error for out-of-range options.
func (o Options) Validate() error {
	switch o.Strategy {
	case StrategyExSample, StrategyRandom, StrategyRandomPlus, StrategySequential, StrategyProxy:
	default:
		return fmt.Errorf("exsample: unknown strategy %d", int(o.Strategy))
	}
	if o.NumChunks < 0 {
		return fmt.Errorf("exsample: negative NumChunks %d", o.NumChunks)
	}
	// A non-finite prior would hang the sampler's first Gamma draw.
	if !(o.Alpha0 >= 0 && o.Beta0 >= 0) || math.IsInf(o.Alpha0, 1) || math.IsInf(o.Beta0, 1) {
		return fmt.Errorf("exsample: negative prior")
	}
	if o.BatchSize < 0 {
		return fmt.Errorf("exsample: negative BatchSize %d", o.BatchSize)
	}
	if o.MaxFrames < 0 {
		return fmt.Errorf("exsample: negative MaxFrames %d", o.MaxFrames)
	}
	if !(o.MaxSeconds >= 0) {
		return fmt.Errorf("exsample: negative MaxSeconds %v", o.MaxSeconds)
	}
	if !(o.IoUThreshold >= 0 && o.IoUThreshold <= 1) {
		return fmt.Errorf("exsample: IoUThreshold %v outside [0,1]", o.IoUThreshold)
	}
	return nil
}

// Result is one distinct object found by a search.
type Result struct {
	// ObjectID is the discriminator-assigned distinct-object id in
	// discovery order.
	ObjectID int
	// Frame is where the object was first detected.
	Frame int64
	// Class is the object class.
	Class string
	// Box is the first detection's bounding box.
	Box Box
	// Score is the first detection's confidence.
	Score float64
}

// Report summarizes a finished search.
type Report struct {
	// Strategy that produced the report.
	Strategy Strategy
	// Results lists the distinct objects found, in discovery order.
	Results []Result
	// FramesProcessed counts detector invocations.
	FramesProcessed int64
	// DetectSeconds is the charged detector time.
	DetectSeconds float64
	// DecodeSeconds is the charged random-read+decode time.
	DecodeSeconds float64
	// ScanSeconds is the proxy scoring pre-pass time (zero for other
	// strategies).
	ScanSeconds float64
	// Recall is the fraction of ground-truth distinct instances found
	// (synthetic datasets only).
	Recall float64
	// CacheHits and CacheMisses count memo-cache outcomes for the query's
	// frames when an Engine-level detector cache is enabled (both zero
	// otherwise). Hits are charged decode-only cost.
	CacheHits, CacheMisses int64
	// RemoteCacheHits counts the subset of CacheHits served by the shared
	// remote tier (EngineOptions.RemoteCache) rather than the local cache —
	// frames some other process (or an earlier run of this one) paid the
	// detector for. Zero without a remote tier.
	RemoteCacheHits int64
	// CurveSamples/CurveSeconds/CurveFound trace discovery progress: after
	// CurveSamples[i] frames (CurveSeconds[i] charged seconds, including
	// any scan), CurveFound[i] distinct true instances had been found.
	CurveSamples []int64
	CurveSeconds []float64
	CurveFound   []int
}

// TotalSeconds is the full charged query time.
func (r *Report) TotalSeconds() float64 {
	return r.DetectSeconds + r.DecodeSeconds + r.ScanSeconds
}

// SecondsToRecall returns the charged time at which the search first reached
// recall target r, and whether it did.
func (r *Report) SecondsToRecall(target float64) (float64, bool) {
	if len(r.CurveFound) == 0 || target <= 0 {
		return 0, false
	}
	// Recall is measured against the dataset's ground truth; CurveFound
	// holds absolute counts, so derive the needed count from the final
	// recall/count pair.
	total := r.groundTruthTotal()
	if total == 0 {
		return 0, false
	}
	need := int(target*float64(total) + 0.9999)
	if need < 1 {
		need = 1
	}
	for i, f := range r.CurveFound {
		if f >= need {
			return r.CurveSeconds[i], true
		}
	}
	return 0, false
}

func (r *Report) groundTruthTotal() int {
	if r.Recall <= 0 || len(r.CurveFound) == 0 {
		return 0
	}
	final := r.CurveFound[len(r.CurveFound)-1]
	return int(float64(final)/r.Recall + 0.5)
}
