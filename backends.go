package exsample

import (
	"context"
	"fmt"
	"sync"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/internal/batchwire"
	"github.com/exsample/exsample/internal/detect"
)

// This file is the bridge between the public backend API and the internal
// query pipeline. backend.Backend is the one detector contract a query
// runs on: every Dataset query detects through backendDetector, over the
// attached backend or, by default, simBackend — the dataset's simulated
// detector exposed as a Backend. Unknown classes are rejected only by the
// Backend that Dataset.Backend returns: a query's own detector answers a
// class its dataset lacks with no detections.

// backendDetector adapts a public backend.Backend to the internal batched
// detector contract for one query's class. It honors the backend's MaxBatch
// hint by splitting oversized batches, and charges either the measured
// per-frame cost (BatchCoster backends) or the nominal Hints().CostSeconds
// per frame.
type backendDetector struct {
	b      backend.Backend
	coster backend.BatchCoster // non-nil when b measures per-call cost
	class  string
	hints  backend.Hints
}

func newBackendDetector(b backend.Backend, class string) *backendDetector {
	bd := &backendDetector{b: b, class: class, hints: b.Hints()}
	if c, ok := b.(backend.BatchCoster); ok {
		bd.coster = c
	}
	return bd
}

// DetectBatch implements detect.BatchDetector over the public backend.
// It appends to dst and needs no scratch.
func (bd *backendDetector) DetectBatch(ctx context.Context, frames []int64, dst []detect.FrameOutput, _ *detect.Scratch) ([]detect.FrameOutput, error) {
	max := bd.hints.MaxBatch
	for start := 0; start < len(frames); {
		end := len(frames)
		if max > 0 && end-start > max {
			end = start + max
		}
		chunk := frames[start:end]
		var (
			dets  [][]backend.Detection
			costs []float64
			err   error
		)
		if bd.coster != nil {
			dets, costs, err = bd.coster.DetectBatchCost(ctx, bd.class, chunk)
			if err == nil && len(costs) != len(chunk) {
				err = fmt.Errorf("exsample: backend returned %d costs for a %d-frame batch", len(costs), len(chunk))
			}
		} else {
			dets, err = bd.b.DetectBatch(ctx, bd.class, chunk)
		}
		if err != nil {
			return nil, err
		}
		if len(dets) != len(chunk) {
			return nil, fmt.Errorf("exsample: backend returned %d results for a %d-frame batch", len(dets), len(chunk))
		}
		for i, frame := range chunk {
			cost := bd.hints.CostSeconds
			if costs != nil {
				cost = costs[i]
			}
			dst = append(dst, detect.FrameOutput{Dets: batchwire.PinFrame(frame, dets[i]), Cost: cost})
		}
		start = end
	}
	return dst, nil
}

// simBackend exposes a Dataset's simulated detector through the public
// Backend API: per-class detectors (with the dataset's noise and cost) are
// built lazily and shared across calls. It is the default backend of every
// query, what Dataset.Backend returns when no backend is attached, and what
// an httpbatch.Handler serves when a synthetic dataset stands in for a real
// GPU fleet.
type simBackend struct {
	d *Dataset
	// strict rejects classes the dataset has no ground truth for — the
	// public boundary's check, set on what Dataset.Backend returns. A
	// query's own detector leaves it unset, so a shard lacking the query's
	// class detects nothing instead of failing the query.
	strict bool
	mu     sync.Mutex
	sims   map[string]*detect.Sim
}

func (b *simBackend) detector(class string) (*detect.Sim, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if sim, ok := b.sims[class]; ok {
		return sim, nil
	}
	if b.strict {
		if _, err := b.d.GroundTruthCount(class); err != nil {
			return nil, err
		}
	}
	sim, err := detect.NewSim(b.d.inner.Index, b.d.seed^0xdecade,
		detect.WithClass(class),
		detect.WithNoise(b.d.noise),
		detect.WithCost(1/b.d.cost.DetectFPS),
	)
	if err != nil {
		return nil, err
	}
	if b.sims == nil {
		b.sims = make(map[string]*detect.Sim)
	}
	b.sims[class] = sim
	return sim, nil
}

// DetectBatch implements backend.Backend over the simulated detector.
func (b *simBackend) DetectBatch(ctx context.Context, class string, frames []int64) ([][]backend.Detection, error) {
	det, err := b.detector(class)
	if err != nil {
		return nil, err
	}
	out := make([][]backend.Detection, len(frames))
	for i, frame := range frames {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = det.Detect(frame)
	}
	return out, nil
}

// Hints implements backend.Backend: the dataset's configured per-frame
// inference cost, with no batch-size bound.
func (b *simBackend) Hints() backend.Hints {
	return backend.Hints{CostSeconds: 1 / b.d.cost.DetectFPS}
}
