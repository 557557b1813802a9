// Package geom provides the 2-D bounding-box primitives used by the
// simulated object detector and the SORT-style IoU discriminator: boxes,
// intersection-over-union, interpolation, and jitter.
package geom

import "github.com/exsample/exsample/backend"

// Box is the public backend.Box: the simulated detector, the discriminator
// and the Backend API share one box type, whose methods live with it.
type Box = backend.Box

// Rect constructs a box from a corner plus width and height.
func Rect(x, y, w, h float64) Box {
	return Box{X1: x, Y1: y, X2: x + w, Y2: y + h}
}

// IoU returns the intersection-over-union of two boxes, in [0, 1]. Two
// degenerate (zero-area) boxes have IoU 0.
func IoU(a, b Box) float64 {
	inter := a.Intersect(b)
	if !inter.Valid() {
		return 0
	}
	ia := inter.Area()
	if ia == 0 {
		return 0
	}
	union := a.Area() + b.Area() - ia
	if union <= 0 {
		return 0
	}
	return ia / union
}

// Overlap reports whether boxes a and b share an interior: both are
// non-inverted and their intervals cross with positive length on both axes.
// It is the cheap pre-test of IoU, with the contract
//
//	IoU(a, b) > 0 ⟺ Overlap(a, b)
//
// for every pair whose areas neither underflow to 0 nor overflow to +Inf.
// The direction a caller skipping IoU relies on, IoU(a, b) > 0 ⟹
// Overlap(a, b), holds for all inputs. Every test is a plain <, so a NaN
// coordinate makes Overlap false, as it makes IoU 0.
func Overlap(a, b *Box) bool {
	return a.X1 < b.X2 && b.X1 < a.X2 && a.Y1 < b.Y2 && b.Y1 < a.Y2 &&
		a.X1 < a.X2 && b.X1 < b.X2 && a.Y1 < a.Y2 && b.Y1 < b.Y2
}

// Lerp linearly interpolates between boxes a and b; t=0 gives a, t=1 gives
// b. Used by the track model to place an object's box in frames between its
// endpoints.
func Lerp(a, b Box, t float64) Box {
	return Box{
		X1: a.X1 + (b.X1-a.X1)*t,
		Y1: a.Y1 + (b.Y1-a.Y1)*t,
		X2: a.X2 + (b.X2-a.X2)*t,
		Y2: a.Y2 + (b.Y2-a.Y2)*t,
	}
}
