// Package sorttrack implements a SORT-style multi-object tracker (Bewley et
// al., the paper's reference [15]): per-frame association of detections to
// Kalman-predicted track positions by IoU via the Hungarian algorithm, with
// the usual track lifecycle (tentative until minHits, dropped after maxAge
// frames without a match).
//
// The paper uses exactly this machinery twice: to build ground truth by
// scanning every frame with a reference detector and matching boxes across
// adjacent frames (§V-A), and as the model for the query-time discriminator
// (§II-B). The ground-truth builder in this package reproduces the former
// end to end.
package sorttrack

import (
	"fmt"

	"github.com/exsample/exsample/internal/assign"
	"github.com/exsample/exsample/internal/geom"
	"github.com/exsample/exsample/internal/kalman"
	"github.com/exsample/exsample/internal/track"
)

// Config tunes the tracker.
type Config struct {
	// IoUThreshold is the minimum overlap for a detection to match a track
	// prediction (SORT default 0.3).
	IoUThreshold float64
	// MaxAge is how many frames a track survives without a matched
	// detection before being finalized.
	MaxAge int64
	// MinHits is how many matched detections a track needs before it is
	// emitted at all (suppresses one-frame false positives).
	MinHits int
}

// DefaultConfig returns SORT's usual operating point.
func DefaultConfig() Config {
	return Config{IoUThreshold: 0.3, MaxAge: 3, MinHits: 2}
}

// Validate reports an error for out-of-range parameters.
func (c Config) Validate() error {
	if c.IoUThreshold <= 0 || c.IoUThreshold > 1 {
		return fmt.Errorf("sorttrack: IoUThreshold %v outside (0,1]", c.IoUThreshold)
	}
	if c.MaxAge < 1 {
		return fmt.Errorf("sorttrack: MaxAge %d < 1", c.MaxAge)
	}
	if c.MinHits < 1 {
		return fmt.Errorf("sorttrack: MinHits %d < 1", c.MinHits)
	}
	return nil
}

// PathPoint is one matched observation along a track.
type PathPoint struct {
	Frame int64
	Box   geom.Box
}

// Track is one finished object track.
type Track struct {
	ID    int
	Class string
	// Start and End are the first and last frames with matched detections.
	Start, End int64
	// StartBox and EndBox are the boxes at those frames.
	StartBox, EndBox geom.Box
	// Hits is the number of matched detections.
	Hits int
	// Path lists every matched observation in frame order (raw detection
	// boxes, not Kalman estimates). Consumers that need a denoised
	// trajectory — the track-predicate evaluator does — smooth it with
	// kalman.Smooth.
	Path []PathPoint
}

// Duration returns the track's length in frames.
func (t Track) Duration() int64 { return t.End - t.Start + 1 }

// liveTrack is the tracker's internal per-object state.
type liveTrack struct {
	id        int
	class     string
	filter    *kalman.BoxFilter
	start     int64
	lastHit   int64
	startBox  geom.Box
	lastBox   geom.Box
	hits      int
	predicted geom.Box
	path      []PathPoint
}

// Tracker ingests detections frame by frame and emits finished tracks.
// Frames must be fed in strictly ascending order; frames with no detections
// may be skipped (tracks age by the frame gap).
type Tracker struct {
	cfg       Config
	lastFrame int64
	nextID    int
	live      []*liveTrack
	finished  []Track

	// Association scratch, reused by every Observe: the solver, the cost
	// matrix's cells (flat) and row views, and which detections matched.
	solver     assign.Solver
	costCells  []float64
	costRows   [][]float64
	matchedDet []bool
}

// New creates a tracker. A zero Config selects DefaultConfig.
func New(cfg Config) (*Tracker, error) {
	if cfg == (Config{}) {
		cfg = DefaultConfig()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tracker{cfg: cfg, lastFrame: -1}, nil
}

// Observe feeds one frame's detections. Detections of different classes
// never match the same track.
func (t *Tracker) Observe(frame int64, dets []track.Detection) error {
	if frame <= t.lastFrame {
		return fmt.Errorf("sorttrack: frame %d not after %d", frame, t.lastFrame)
	}
	dt := float64(frame - t.lastFrame)
	if t.lastFrame < 0 {
		dt = 1
	}
	t.lastFrame = frame

	// Predict all live tracks forward.
	for _, lt := range t.live {
		lt.predicted = lt.filter.Predict(dt)
	}

	// Build the association cost matrix: rows = detections, cols = live
	// tracks; cost = 1 - IoU, infeasible below the gate or across classes.
	if cap(t.matchedDet) < len(dets) {
		t.matchedDet = make([]bool, len(dets))
	}
	matchedDet := t.matchedDet[:len(dets)]
	clear(matchedDet)
	if len(dets) > 0 && len(t.live) > 0 {
		cost := t.costMatrix(len(dets), len(t.live))
		for i, det := range dets {
			for j, lt := range t.live {
				iou := geom.IoU(det.Box, lt.predicted)
				if det.Class != lt.class || iou < t.cfg.IoUThreshold {
					cost[i][j] = assign.Infeasible
				} else {
					cost[i][j] = 1 - iou
				}
			}
		}
		rowTo, _, err := t.solver.Solve(cost)
		if err != nil {
			return err
		}
		for i, j := range rowTo {
			if j < 0 {
				continue
			}
			lt := t.live[j]
			lt.filter.Update(dets[i].Box)
			lt.lastHit = frame
			lt.lastBox = dets[i].Box
			lt.hits++
			lt.path = append(lt.path, PathPoint{Frame: frame, Box: dets[i].Box})
			matchedDet[i] = true
		}
	}

	// Unmatched detections start new tracks.
	for i, det := range dets {
		if matchedDet[i] {
			continue
		}
		bf, err := kalman.NewBoxFilter(det.Box, 0, 0)
		if err != nil {
			return err
		}
		t.live = append(t.live, &liveTrack{
			id:       t.nextID,
			class:    det.Class,
			filter:   bf,
			start:    frame,
			lastHit:  frame,
			startBox: det.Box,
			lastBox:  det.Box,
			hits:     1,
			path:     []PathPoint{{Frame: frame, Box: det.Box}},
		})
		t.nextID++
	}

	// Retire tracks that exceeded max age.
	kept := t.live[:0]
	for _, lt := range t.live {
		if frame-lt.lastHit > t.cfg.MaxAge {
			t.finalize(lt)
			continue
		}
		kept = append(kept, lt)
	}
	t.live = kept
	return nil
}

// costMatrix returns the tracker's n×m association matrix scratch, its rows
// carved from one flat slab. Every cell is the caller's to set.
func (t *Tracker) costMatrix(n, m int) [][]float64 {
	if cap(t.costCells) < n*m {
		t.costCells = make([]float64, n*m)
	}
	cells := t.costCells[:n*m]
	t.costRows = t.costRows[:0]
	for i := 0; i < n; i++ {
		t.costRows = append(t.costRows, cells[i*m:(i+1)*m:(i+1)*m])
	}
	return t.costRows
}

func (t *Tracker) finalize(lt *liveTrack) {
	if lt.hits < t.cfg.MinHits {
		return // suppressed (likely a false positive)
	}
	t.finished = append(t.finished, Track{
		ID:       lt.id,
		Class:    lt.class,
		Start:    lt.start,
		End:      lt.lastHit,
		StartBox: lt.startBox,
		EndBox:   lt.lastBox,
		Hits:     lt.hits,
		Path:     lt.path,
	})
}

// Flush finalizes all live tracks (call after the last frame) and returns
// every finished track in creation order.
func (t *Tracker) Flush() []Track {
	for _, lt := range t.live {
		t.finalize(lt)
	}
	t.live = nil
	return t.finished
}
