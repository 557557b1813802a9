// Package backend defines the public, pluggable detector backend API.
//
// The paper treats the object detector as a costly black box (§II-A): the
// sampler only ever observes the boxes a detector emits on the frames it is
// asked about and the time each call takes. Nothing in the algorithm
// requires the simulated detector the exsample package ships — any system
// that can answer "what objects are in these frames?" can sit behind a
// query. This package is that seam: a Backend answers batched,
// context-aware detection requests, and the query pipeline (Search,
// Session, Engine) drives it through an adapter, charging whatever cost the
// backend reports.
//
// The contract is deliberately batched. The engine's scheduler already
// groups each round's detector work by shard affinity, so a Backend
// receives exactly the access pattern a real GPU fleet wants: one
// DetectBatch call per scheduling round per shard, with as many frames as
// the round proposed. Hints lets a backend bound the batch size and declare
// its nominal per-frame cost; BatchCoster lets it report the measured cost
// of each call instead (a remote backend charging server-reported latency).
//
// Detection is the one in-memory detection type: the pipeline, the memo
// cache and the shared result tier hold the slices a Backend returns as they
// are, without converting or copying them. A returned detection slice is
// therefore read-only for both sides after the call — the backend may hand
// out the same slice again (a replaying or caching backend), and must not
// write to one it has returned.
//
// Determinism caveat: the exsample memo cache and the byte-identical
// reproducibility guarantees assume detector output is a pure function of
// (source, class, frame) — true for any stateless network, and required of
// a Backend that is used with EngineOptions.CacheEntries or compared across
// runs. A backend that is not deterministic still works; its queries are
// simply not reproducible.
package backend

import (
	"context"
	"math"
)

// Box is an axis-aligned bounding box in pixel coordinates. X1,Y1 is the
// top-left corner and X2,Y2 the bottom-right; a valid box has X1 <= X2 and
// Y1 <= Y2.
type Box struct {
	X1, Y1, X2, Y2 float64
}

// Valid reports whether the box is well-formed (non-negative extent and no
// NaN coordinates).
func (b Box) Valid() bool {
	if math.IsNaN(b.X1) || math.IsNaN(b.Y1) || math.IsNaN(b.X2) || math.IsNaN(b.Y2) {
		return false
	}
	return b.X1 <= b.X2 && b.Y1 <= b.Y2
}

// Width returns the horizontal extent of the box.
func (b Box) Width() float64 { return b.X2 - b.X1 }

// Height returns the vertical extent of the box.
func (b Box) Height() float64 { return b.Y2 - b.Y1 }

// Area returns the area of the box; it is zero for degenerate boxes.
func (b Box) Area() float64 {
	if !b.Valid() {
		return 0
	}
	return b.Width() * b.Height()
}

// Center returns the box's center point.
func (b Box) Center() (x, y float64) {
	return (b.X1 + b.X2) / 2, (b.Y1 + b.Y2) / 2
}

// Intersect returns the intersection of two boxes. If the boxes do not
// overlap the result has zero area (and may be invalid).
func (b Box) Intersect(o Box) Box {
	return Box{
		X1: math.Max(b.X1, o.X1),
		Y1: math.Max(b.Y1, o.Y1),
		X2: math.Min(b.X2, o.X2),
		Y2: math.Min(b.Y2, o.Y2),
	}
}

// Union returns the smallest box containing both boxes.
func (b Box) Union(o Box) Box {
	return Box{
		X1: math.Min(b.X1, o.X1),
		Y1: math.Min(b.Y1, o.Y1),
		X2: math.Max(b.X2, o.X2),
		Y2: math.Max(b.Y2, o.Y2),
	}
}

// Translate returns the box shifted by (dx, dy).
func (b Box) Translate(dx, dy float64) Box {
	return Box{X1: b.X1 + dx, Y1: b.Y1 + dy, X2: b.X2 + dx, Y2: b.Y2 + dy}
}

// Scale returns the box scaled about its center by factor s (> 0).
func (b Box) Scale(s float64) Box {
	cx, cy := b.Center()
	hw := b.Width() / 2 * s
	hh := b.Height() / 2 * s
	return Box{X1: cx - hw, Y1: cy - hh, X2: cx + hw, Y2: cy + hh}
}

// Clip returns the box clipped to the frame [0,w]x[0,h].
func (b Box) Clip(w, h float64) Box {
	c := Box{
		X1: math.Max(0, math.Min(b.X1, w)),
		Y1: math.Max(0, math.Min(b.Y1, h)),
		X2: math.Max(0, math.Min(b.X2, w)),
		Y2: math.Max(0, math.Min(b.Y2, h)),
	}
	return c
}

// Detection is one object detector output on a frame. It is the stable
// wire- and API-level result type and the only in-memory one: the exsample
// package's public Detection and the pipeline's internal detection are
// aliases of this type, and the httpbatch protocol serializes it.
type Detection struct {
	// Frame is the frame index the detection was computed on, in the
	// coordinate space of the DetectBatch call that produced it.
	Frame int64
	// Class is the detected object class.
	Class string
	// Box is the detected bounding box.
	Box Box
	// Score is the detector confidence in [0, 1].
	Score float64
	// TruthID is the ground-truth instance id when the backend knows it
	// (simulated or replayed backends; it is what makes recall measurable),
	// or -1 when unknown — the value real detectors report.
	TruthID int
}

// Hints are a backend's static scheduling hints. The zero value means "no
// preference": unbounded batches and an unknown (zero) nominal cost.
type Hints struct {
	// CostSeconds is the nominal charged inference cost per frame. It is
	// used when the backend does not implement BatchCoster.
	CostSeconds float64
	// MaxBatch bounds the number of frames per DetectBatch call; the
	// pipeline splits larger batches before they reach the backend
	// (0 = unlimited).
	MaxBatch int
}

// Backend is the pluggable black-box detector contract. Implementations
// must be safe for concurrent use: the engine runs one DetectBatch per
// shard-affinity group per scheduling round, and groups from different
// shards (or different queries) run concurrently on the worker pool.
type Backend interface {
	// DetectBatch runs the detector on every frame of the batch for one
	// object class and returns one detection slice per frame, aligned with
	// frames (results[i] holds frame frames[i]'s detections; an empty or
	// nil slice is a valid "nothing found"). The call honors ctx: when the
	// context is cancelled mid-batch the backend abandons the work and
	// returns ctx's error, which the engine surfaces through
	// QueryHandle.Wait alongside a consistent partial report. The returned
	// detection slices are read-only for both sides after the call: the
	// pipeline shares them between its caches and queries and never writes
	// to them, and the backend must not either.
	DetectBatch(ctx context.Context, class string, frames []int64) ([][]Detection, error)
	// Hints returns the backend's scheduling hints. It must be cheap and
	// concurrency-safe; the pipeline may call it once per query.
	Hints() Hints
}

// BatchCoster is an optional Backend refinement for backends whose charged
// cost is measured per call rather than fixed — a remote batch endpoint
// that reports the server-side inference cost of each request. When a
// backend implements it, the pipeline calls DetectBatchCost instead of
// DetectBatch and charges the reported per-frame seconds in place of
// Hints().CostSeconds. Costs are per frame (not one batch scalar) so a
// backend that knows the exact charge — a server echoing its nominal rate,
// a fully-cached zero — reports it without a lossy divide-by-batch-size
// round trip; a backend that only measures batch latency spreads it across
// the frames itself.
type BatchCoster interface {
	// DetectBatchCost behaves exactly like Backend.DetectBatch (the
	// returned detection slices are read-only for both sides after the
	// call) and additionally returns the charged inference seconds for each
	// frame, aligned with frames.
	DetectBatchCost(ctx context.Context, class string, frames []int64) ([][]Detection, []float64, error)
}
