// Package kalman implements the constant-velocity Kalman filtering used by
// the SORT-style tracker: each tracked box is modeled by four independent
// position+velocity filters over (center-x, center-y, width, height). SORT
// proper uses a joint 7-dimensional state; the per-coordinate decomposition
// is the standard simplification and keeps every step in closed form.
package kalman

import (
	"fmt"
	"math"

	"github.com/exsample/exsample/internal/geom"
)

// Filter1D is a scalar constant-velocity Kalman filter: state (x, v) with
// x' = x + v·dt, observed x only.
type Filter1D struct {
	X, V float64 // state estimate
	// Covariance (symmetric 2x2): [[Pxx, Pxv], [Pxv, Pvv]].
	Pxx, Pxv, Pvv float64
	// Q scales process noise; R is measurement noise variance.
	Q, R float64
}

// NewFilter1D initializes a filter at position x with uncertain velocity.
func NewFilter1D(x, q, r float64) (*Filter1D, error) {
	if q <= 0 || r <= 0 {
		return nil, fmt.Errorf("kalman: noise parameters must be positive (q=%v r=%v)", q, r)
	}
	return &Filter1D{
		X: x, V: 0,
		Pxx: r, Pxv: 0, Pvv: 100 * q, // velocity unknown at start
		Q: q, R: r,
	}, nil
}

// Predict advances the state by dt time steps.
func (f *Filter1D) Predict(dt float64) {
	f.X += f.V * dt
	// P = F P Fᵀ + Q_d with F = [[1, dt], [0, 1]] and a discrete
	// white-acceleration process noise.
	pxx := f.Pxx + dt*(2*f.Pxv+dt*f.Pvv)
	pxv := f.Pxv + dt*f.Pvv
	dt2 := dt * dt
	f.Pxx = pxx + f.Q*dt2*dt2/4
	f.Pxv = pxv + f.Q*dt2*dt/2
	f.Pvv += f.Q * dt2
}

// Update incorporates a measurement of x.
func (f *Filter1D) Update(z float64) {
	s := f.Pxx + f.R
	kx := f.Pxx / s
	kv := f.Pxv / s
	innov := z - f.X
	f.X += kx * innov
	f.V += kv * innov
	// Joseph-free standard update (numerically fine at this scale).
	pxx := (1 - kx) * f.Pxx
	pxv := (1 - kx) * f.Pxv
	pvv := f.Pvv - kv*f.Pxv
	f.Pxx, f.Pxv, f.Pvv = pxx, pxv, pvv
}

// BoxFilter tracks a bounding box with four independent 1D filters.
type BoxFilter struct {
	cx, cy, w, h *Filter1D
}

// DefaultQ and DefaultR are reasonable tracking noise scales in pixels.
const (
	DefaultQ = 1.0
	DefaultR = 10.0
)

// NewBoxFilter initializes a box tracker at the given box.
func NewBoxFilter(b geom.Box, q, r float64) (*BoxFilter, error) {
	if !b.Valid() {
		return nil, fmt.Errorf("kalman: invalid initial box %+v", b)
	}
	if q == 0 {
		q = DefaultQ
	}
	if r == 0 {
		r = DefaultR
	}
	cx, cy := b.Center()
	fcx, err := NewFilter1D(cx, q, r)
	if err != nil {
		return nil, err
	}
	fcy, err := NewFilter1D(cy, q, r)
	if err != nil {
		return nil, err
	}
	fw, err := NewFilter1D(b.Width(), q/4, r)
	if err != nil {
		return nil, err
	}
	fh, err := NewFilter1D(b.Height(), q/4, r)
	if err != nil {
		return nil, err
	}
	return &BoxFilter{cx: fcx, cy: fcy, w: fw, h: fh}, nil
}

// Predict advances the tracked box by dt frames and returns the prediction.
func (bf *BoxFilter) Predict(dt float64) geom.Box {
	bf.cx.Predict(dt)
	bf.cy.Predict(dt)
	bf.w.Predict(dt)
	bf.h.Predict(dt)
	return bf.Box()
}

// Update incorporates an observed box.
func (bf *BoxFilter) Update(b geom.Box) {
	cx, cy := b.Center()
	bf.cx.Update(cx)
	bf.cy.Update(cy)
	bf.w.Update(b.Width())
	bf.h.Update(b.Height())
}

// Box returns the current box estimate. Width and height are floored at a
// pixel so the box stays valid even if the size filters drift negative.
func (bf *BoxFilter) Box() geom.Box {
	w := math.Max(bf.w.X, 1)
	h := math.Max(bf.h.X, 1)
	return geom.Box{
		X1: bf.cx.X - w/2,
		Y1: bf.cy.X - h/2,
		X2: bf.cx.X + w/2,
		Y2: bf.cy.X + h/2,
	}
}
