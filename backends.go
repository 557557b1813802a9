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
// query pipeline: backendDetector drives a backend.Backend through the
// internal detect.BatchDetector contract, and simBackend exposes a
// Dataset's simulated detector as a backend.Backend — making the simulated
// detector just the default Backend behind an adapter.

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
func (bd *backendDetector) DetectBatch(ctx context.Context, frames []int64) ([]detect.FrameOutput, error) {
	out := make([]detect.FrameOutput, 0, len(frames))
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
			out = append(out, detect.FrameOutput{Dets: batchwire.PinFrame(frame, dets[i]), Cost: cost})
		}
		start = end
	}
	return out, nil
}

// simBackend exposes a Dataset's simulated detector through the public
// Backend API: per-class detectors (with the dataset's noise, cost and
// failure-injection configuration) are built lazily and shared across
// calls. It is what Dataset.Backend returns by default, and what an
// httpbatch.Handler serves when a synthetic dataset stands in for a real
// GPU fleet.
type simBackend struct {
	d    *Dataset
	mu   sync.Mutex
	dets map[string]detect.Detector
}

func (b *simBackend) detector(class string) (detect.Detector, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if det, ok := b.dets[class]; ok {
		return det, nil
	}
	if _, err := b.d.GroundTruthCount(class); err != nil {
		return nil, err
	}
	det, err := b.d.newDetector(Query{Class: class})
	if err != nil {
		return nil, err
	}
	if b.dets == nil {
		b.dets = make(map[string]detect.Detector)
	}
	b.dets[class] = det
	return det, nil
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
