// Package trackquery implements the MIRIS-style accelerate/refine loop
// behind track-predicate queries (SNIPPETS.md; Bastani et al., SIGMOD'20):
// phase 1 samples the repository at a coarse stride — a fixed round-robin
// walk over the chunks, since the grid always runs to completion — to
// localize candidate intervals; phase 2 densifies only those intervals,
// associates the dense detections into tracks (internal/sorttrack), smooths
// them (internal/kalman) and evaluates a compiled trajectory predicate.
//
// The package is deliberately engine-agnostic: Plan is a pure frame-picking
// state machine and Evaluator is a pure function of a smoothed path, so the
// root package can drive them from the sequential TrackSearch loop and the
// concurrent engine scheduler with byte-identical results.
package trackquery

import (
	"fmt"
	"math"

	"github.com/exsample/exsample/internal/geom"
	"github.com/exsample/exsample/internal/sorttrack"
)

// Predicate is the compiled-facing trajectory predicate: every clause is
// optional (zero value = unconstrained) and clauses conjoin. The public
// TrackPredicate in the root package validates user input and lowers to
// this struct.
type Predicate struct {
	// Class restricts which detections participate at all (enforced
	// upstream by the per-class detector; kept here for report labeling).
	Class string
	// From and To constrain the smoothed track's first and last observed
	// center point; Visits requires some observed center inside.
	From, To, Visits geom.Polygon
	// Crosses requires the smoothed center path to intersect the segment.
	Crosses *geom.Segment
	// MinDuration/MaxDuration bound the observed span in frames
	// (inclusive; 0 = unbounded).
	MinDuration, MaxDuration int64
	// MinSpeed/MaxSpeed bound the average speed in pixels per frame over
	// the smoothed path (0 MaxSpeed = unbounded).
	MinSpeed, MaxSpeed float64
	// DirMinDeg/DirMaxDeg (active when HasDirection) bound the net-motion
	// heading, degrees in [0, 360) measured from +x toward +y (screen
	// coordinates: 0 = rightward, 90 = downward). The arc may wrap through
	// 0 (e.g. min 315, max 45 accepts "roughly rightward").
	DirMinDeg, DirMaxDeg float64
	HasDirection         bool
}

// Evaluator is a compiled Predicate. Compile precomputes nothing heavy
// today — the value of the type is the checked construction and a stable
// seam for future acceleration (polygon bounding boxes, clause reordering).
type Evaluator struct {
	p          Predicate
	fromB, toB geom.Box // polygon bounds, cheap reject
	visitsB    geom.Box
}

// Compile validates the clauses' internal consistency and returns the
// evaluator. User-facing field validation (degenerate regions, inverted
// bounds) happens in the root package before lowering; Compile re-checks
// the invariants it relies on so a bad internal caller fails loudly.
func Compile(p Predicate) (*Evaluator, error) {
	for _, r := range []struct {
		name string
		poly geom.Polygon
	}{{"From", p.From}, {"To", p.To}, {"Visits", p.Visits}} {
		if r.poly != nil && !r.poly.Valid() {
			return nil, fmt.Errorf("trackquery: %s region is degenerate", r.name)
		}
	}
	if p.Crosses != nil && !p.Crosses.Valid() {
		return nil, fmt.Errorf("trackquery: Crosses segment is degenerate")
	}
	if p.MaxDuration > 0 && p.MinDuration > p.MaxDuration {
		return nil, fmt.Errorf("trackquery: MinDuration %d > MaxDuration %d", p.MinDuration, p.MaxDuration)
	}
	if p.MaxSpeed > 0 && p.MinSpeed > p.MaxSpeed {
		return nil, fmt.Errorf("trackquery: MinSpeed %v > MaxSpeed %v", p.MinSpeed, p.MaxSpeed)
	}
	e := &Evaluator{p: p}
	if p.From != nil {
		e.fromB = p.From.Bounds()
	}
	if p.To != nil {
		e.toB = p.To.Bounds()
	}
	if p.Visits != nil {
		e.visitsB = p.Visits.Bounds()
	}
	return e, nil
}

// center returns the path point's box center.
func center(p sorttrack.PathPoint) geom.Point {
	x, y := p.Box.Center()
	return geom.Point{X: x, Y: y}
}

// Match evaluates the predicate over one smoothed track path (ascending
// frames). An empty path never matches.
func (e *Evaluator) Match(path []sorttrack.PathPoint) bool {
	if len(path) == 0 {
		return false
	}
	p := e.p
	dur := path[len(path)-1].Frame - path[0].Frame + 1
	if dur < p.MinDuration {
		return false
	}
	if p.MaxDuration > 0 && dur > p.MaxDuration {
		return false
	}
	if p.From != nil {
		c := center(path[0])
		if !p.From.Contains(c.X, c.Y) {
			return false
		}
	}
	if p.To != nil {
		c := center(path[len(path)-1])
		if !p.To.Contains(c.X, c.Y) {
			return false
		}
	}
	if p.Visits != nil {
		found := false
		for _, pt := range path {
			c := center(pt)
			if p.Visits.Contains(c.X, c.Y) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if p.Crosses != nil {
		crossed := false
		for i := 1; i < len(path); i++ {
			seg := geom.Segment{A: center(path[i-1]), B: center(path[i])}
			if p.Crosses.Intersects(seg) {
				crossed = true
				break
			}
		}
		if !crossed {
			return false
		}
	}
	if p.MinSpeed > 0 || p.MaxSpeed > 0 {
		speed := AvgSpeed(path)
		if speed < p.MinSpeed {
			return false
		}
		if p.MaxSpeed > 0 && speed > p.MaxSpeed {
			return false
		}
	}
	if p.HasDirection {
		heading, ok := Heading(path)
		if !ok || !inArc(heading, p.DirMinDeg, p.DirMaxDeg) {
			return false
		}
	}
	return true
}

// AvgSpeed returns the path's mean speed in pixels per frame: total center
// travel divided by the observed frame span. Single-point paths have speed
// 0.
func AvgSpeed(path []sorttrack.PathPoint) float64 {
	if len(path) < 2 {
		return 0
	}
	span := path[len(path)-1].Frame - path[0].Frame
	if span <= 0 {
		return 0
	}
	var dist float64
	for i := 1; i < len(path); i++ {
		a, b := center(path[i-1]), center(path[i])
		dist += math.Hypot(b.X-a.X, b.Y-a.Y)
	}
	return dist / float64(span)
}

// Heading returns the net-motion heading in degrees in [0, 360), measured
// from +x toward +y. ok is false when the path has no net displacement (a
// stationary object has no heading).
func Heading(path []sorttrack.PathPoint) (float64, bool) {
	if len(path) < 2 {
		return 0, false
	}
	a, b := center(path[0]), center(path[len(path)-1])
	dx, dy := b.X-a.X, b.Y-a.Y
	if dx == 0 && dy == 0 {
		return 0, false
	}
	deg := math.Atan2(dy, dx) * 180 / math.Pi
	if deg < 0 {
		deg += 360
	}
	return deg, true
}

// inArc reports whether heading h lies on the arc from min to max (degrees,
// wrapping through 0 when min > max).
func inArc(h, min, max float64) bool {
	if min <= max {
		return h >= min && h <= max
	}
	return h >= min || h <= max
}
