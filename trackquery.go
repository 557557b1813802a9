package exsample

import (
	"errors"
	"fmt"
	"math"

	"github.com/exsample/exsample/internal/geom"
	"github.com/exsample/exsample/internal/trackquery"
)

// ErrInvalidPredicate is the sentinel every track-predicate validation
// failure wraps: match it with errors.Is, and unwrap the individual
// field-level failures with errors.As into *PredicateError. A rejected
// predicate reports every bad field at once, not just the first.
var ErrInvalidPredicate = errors.New("exsample: invalid track predicate")

// PredicateError is one field-level track-predicate validation failure.
type PredicateError struct {
	// Field names the offending TrackPredicate field ("From", "Crosses",
	// "MinDuration", ...).
	Field string
	// Reason says what is wrong with it.
	Reason string
}

// Error implements error.
func (e *PredicateError) Error() string {
	return fmt.Sprintf("%v: %s: %s", ErrInvalidPredicate, e.Field, e.Reason)
}

// Is matches ErrInvalidPredicate, so errors.Is works on a single field
// error and on the joined bundle Validate returns alike.
func (e *PredicateError) Is(target error) bool { return target == ErrInvalidPredicate }

// Point is a pixel coordinate in frame space.
type Point struct {
	X, Y float64
}

// Region is a simple polygon in pixel coordinates (≥ 3 vertices, nonzero
// area; either winding). Boundary points count as inside.
type Region []Point

// Segment is a line segment in pixel coordinates, used for crossing
// clauses (a virtual tripwire).
type Segment struct {
	A, B Point
}

// DirectionRange constrains a track's net-motion heading to the arc from
// MinDeg to MaxDeg, degrees in [0, 360) measured from +x toward +y (screen
// coordinates: 0 = rightward, 90 = downward). The arc may wrap through 0 —
// {MinDeg: 315, MaxDeg: 45} accepts "roughly rightward".
type DirectionRange struct {
	MinDeg, MaxDeg float64
}

// TrackPredicate describes which object trajectories a track query should
// return: a MIRIS-style conjunction of spatial, temporal and kinematic
// clauses evaluated over each smoothed track. Class is required; every
// other clause is optional (zero value = unconstrained).
type TrackPredicate struct {
	// Class is the object class whose tracks are searched.
	Class string
	// From requires the track to start inside the region (its first
	// observed center point); To requires it to end inside; Visits
	// requires some observed center point inside.
	From, To, Visits Region
	// Crosses requires the track's center path to intersect the segment.
	Crosses *Segment
	// Direction constrains the net-motion heading.
	Direction *DirectionRange
	// MinDuration and MaxDuration bound the track's observed span in
	// frames, inclusive (0 = unbounded). MinDuration also informs the
	// default coarse stride — see TrackOptions.Stride.
	MinDuration, MaxDuration int64
	// MinSpeed and MaxSpeed bound the track's average speed in pixels per
	// frame over the smoothed path (0 MaxSpeed = unbounded).
	MinSpeed, MaxSpeed float64
}

// validRegion appends field errors for one region clause.
func validRegion(errs []error, field string, r Region) []error {
	if r == nil {
		return errs
	}
	if len(r) < 3 {
		return append(errs, &PredicateError{Field: field, Reason: fmt.Sprintf("polygon needs at least 3 vertices, got %d", len(r))})
	}
	for i, p := range r {
		if !finite(p.X) || !finite(p.Y) {
			return append(errs, &PredicateError{Field: field, Reason: fmt.Sprintf("vertex %d has a non-finite coordinate", i)})
		}
	}
	if !r.poly().Valid() {
		errs = append(errs, &PredicateError{Field: field, Reason: "polygon has zero area"})
	}
	return errs
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate checks every field and returns nil or a joined error bundling
// one *PredicateError per offense; the bundle (and each member) matches
// errors.Is(err, ErrInvalidPredicate).
func (p TrackPredicate) Validate() error {
	var errs []error
	if p.Class == "" {
		errs = append(errs, &PredicateError{Field: "Class", Reason: "must be set"})
	}
	errs = validRegion(errs, "From", p.From)
	errs = validRegion(errs, "To", p.To)
	errs = validRegion(errs, "Visits", p.Visits)
	if s := p.Crosses; s != nil {
		switch {
		case !finite(s.A.X) || !finite(s.A.Y) || !finite(s.B.X) || !finite(s.B.Y):
			errs = append(errs, &PredicateError{Field: "Crosses", Reason: "endpoint has a non-finite coordinate"})
		case s.A == s.B:
			errs = append(errs, &PredicateError{Field: "Crosses", Reason: "segment has zero length"})
		}
	}
	if d := p.Direction; d != nil {
		for _, deg := range []struct {
			name string
			v    float64
		}{{"MinDeg", d.MinDeg}, {"MaxDeg", d.MaxDeg}} {
			if !finite(deg.v) || deg.v < 0 || deg.v >= 360 {
				errs = append(errs, &PredicateError{Field: "Direction", Reason: fmt.Sprintf("%s %v outside [0, 360)", deg.name, deg.v)})
			}
		}
	}
	if p.MinDuration < 0 {
		errs = append(errs, &PredicateError{Field: "MinDuration", Reason: fmt.Sprintf("negative duration %d", p.MinDuration)})
	}
	if p.MaxDuration < 0 {
		errs = append(errs, &PredicateError{Field: "MaxDuration", Reason: fmt.Sprintf("negative duration %d", p.MaxDuration)})
	}
	if p.MaxDuration > 0 && p.MinDuration > p.MaxDuration {
		errs = append(errs, &PredicateError{Field: "MinDuration", Reason: fmt.Sprintf("bounds inverted: MinDuration %d > MaxDuration %d", p.MinDuration, p.MaxDuration)})
	}
	if p.MinSpeed < 0 || !finite(p.MinSpeed) {
		errs = append(errs, &PredicateError{Field: "MinSpeed", Reason: fmt.Sprintf("speed %v not a non-negative finite value", p.MinSpeed)})
	}
	if p.MaxSpeed < 0 || !finite(p.MaxSpeed) {
		errs = append(errs, &PredicateError{Field: "MaxSpeed", Reason: fmt.Sprintf("speed %v not a non-negative finite value", p.MaxSpeed)})
	}
	if p.MaxSpeed > 0 && p.MinSpeed > p.MaxSpeed {
		errs = append(errs, &PredicateError{Field: "MinSpeed", Reason: fmt.Sprintf("bounds inverted: MinSpeed %v > MaxSpeed %v", p.MinSpeed, p.MaxSpeed)})
	}
	return errors.Join(errs...)
}

// poly lowers a Region to the internal polygon type.
func (r Region) poly() geom.Polygon {
	if r == nil {
		return nil
	}
	out := make(geom.Polygon, len(r))
	for i, p := range r {
		out[i] = geom.Point{X: p.X, Y: p.Y}
	}
	return out
}

// lower converts the validated public predicate into the internal
// evaluator input.
func (p TrackPredicate) lower() trackquery.Predicate {
	ip := trackquery.Predicate{
		Class:       p.Class,
		From:        p.From.poly(),
		To:          p.To.poly(),
		Visits:      p.Visits.poly(),
		MinDuration: p.MinDuration,
		MaxDuration: p.MaxDuration,
		MinSpeed:    p.MinSpeed,
		MaxSpeed:    p.MaxSpeed,
	}
	if p.Crosses != nil {
		ip.Crosses = &geom.Segment{
			A: geom.Point{X: p.Crosses.A.X, Y: p.Crosses.A.Y},
			B: geom.Point{X: p.Crosses.B.X, Y: p.Crosses.B.Y},
		}
	}
	if p.Direction != nil {
		ip.HasDirection = true
		ip.DirMinDeg = p.Direction.MinDeg
		ip.DirMaxDeg = p.Direction.MaxDeg
	}
	return ip
}

// TrackOptions tunes a track query. The zero value picks a stride from the
// predicate, pads intervals by one stride, and runs the full
// accelerate/refine loop with the default SORT tracker.
type TrackOptions struct {
	// Seed has no effect: the coarse phase is a fixed walk of the grid.
	Seed uint64
	// Stride is the coarse-grid spacing in frames. 0 derives it from the
	// predicate: MinDuration/2 (an object visible for MinDuration frames
	// cannot fall through a gap of half that), clamped to [1, 64], or 16
	// when the predicate has no MinDuration. A stride past the source's
	// frame count acts as that count: the grid is frame 0 alone.
	Stride int64
	// Limit stops the query after this many matching tracks (0 = none).
	Limit int
	// MaxFrames caps detector frames processed (0 = no cap).
	MaxFrames int64
	// MaxSeconds caps the charged query time (0 = no cap).
	MaxSeconds float64
}

// Validate reports an error for out-of-range track options.
func (o TrackOptions) Validate() error {
	if o.Stride < 0 {
		return fmt.Errorf("exsample: negative Stride %d", o.Stride)
	}
	if o.Limit < 0 {
		return fmt.Errorf("exsample: negative Limit %d", o.Limit)
	}
	if o.MaxFrames < 0 {
		return fmt.Errorf("exsample: negative MaxFrames %d", o.MaxFrames)
	}
	if !(o.MaxSeconds >= 0) {
		return fmt.Errorf("exsample: negative MaxSeconds %v", o.MaxSeconds)
	}
	return nil
}

// strideFor resolves the effective coarse stride for a predicate.
func (o TrackOptions) strideFor(p TrackPredicate) int64 {
	if o.Stride > 0 {
		return o.Stride
	}
	if p.MinDuration >= 2 {
		s := p.MinDuration / 2
		if s > 64 {
			s = 64
		}
		return s
	}
	return 16
}

// TrackResult is one object track matching the predicate.
type TrackResult struct {
	// TrackID numbers matched tracks in emission order (deterministic for
	// a fixed predicate, options and source).
	TrackID int
	// Class is the object class.
	Class string
	// Start and End are the first and last frames the object was observed
	// on (inclusive).
	Start, End int64
	// StartBox and EndBox are the smoothed bounding boxes at those frames.
	StartBox, EndBox Box
	// Hits is the number of detections associated into the track.
	Hits int
	// AvgSpeed is the mean center speed along the smoothed path, pixels
	// per frame.
	AvgSpeed float64
}

// TrackReport summarizes a finished track query.
type TrackReport struct {
	// Predicate is the query as submitted.
	Predicate TrackPredicate
	// Results lists the matching tracks in emission order.
	Results []TrackResult
	// FramesProcessed counts detector invocations (coarse + refine).
	FramesProcessed int64
	// CoarseFrames and RefineFrames split FramesProcessed by phase.
	CoarseFrames, RefineFrames int64
	// Intervals is the number of candidate intervals phase 1 localized;
	// IntervalFrames is their total frame span.
	Intervals      int
	IntervalFrames int64
	// DenseFrames is what a dense scan of the chunks active at submit
	// would have cost in detector frames — the baseline the accelerate
	// loop is saving against.
	DenseFrames int64
	// DetectSeconds and DecodeSeconds are the charged costs.
	DetectSeconds, DecodeSeconds float64
	// CacheHits and CacheMisses count memo-cache outcomes when an
	// Engine-level detector cache is enabled (both zero otherwise).
	CacheHits, CacheMisses int64
	// RemoteCacheHits counts the subset of CacheHits served by the shared
	// remote tier (EngineOptions.RemoteCache). Zero without a remote tier.
	RemoteCacheHits int64
}

// TotalSeconds is the full charged query time.
func (r *TrackReport) TotalSeconds() float64 {
	return r.DetectSeconds + r.DecodeSeconds
}

// Speedup returns DenseFrames / FramesProcessed — how many detector frames
// the dense baseline spends per frame this query spent (1 when the query
// degenerated to a dense scan; 0 before any frame was processed).
func (r *TrackReport) Speedup() float64 {
	if r.FramesProcessed == 0 {
		return 0
	}
	return float64(r.DenseFrames) / float64(r.FramesProcessed)
}
