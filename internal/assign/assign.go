// Package assign solves the linear assignment problem (minimum-cost
// bipartite matching) with the Hungarian algorithm. The SORT-style tracker
// uses it to associate detections with predicted track positions each frame
// (the paper's ground-truth construction matches detection boxes across
// adjacent frames by IoU, §V-A).
package assign

import (
	"fmt"
	"math"
)

// Infeasible marks a forbidden pairing in the cost matrix; the solver never
// selects it unless a row has no feasible column at all, in which case the
// row is reported unassigned.
var Infeasible = math.Inf(1)

// Solve finds the assignment of rows to columns minimizing total cost.
// cost[i][j] is the cost of assigning row i to column j; the matrix may be
// rectangular. It returns rowTo, where rowTo[i] is the column assigned to
// row i or -1, and the total cost over feasible assignments. Solve uses a
// fresh Solver; callers solving one matrix after another keep a Solver.
func Solve(cost [][]float64) (rowTo []int, total float64, err error) {
	var s Solver
	return s.Solve(cost)
}

// Solver is a reusable assignment solver: its scratch — the padded square
// matrix, kept flat, and the potentials and path vectors — survives between
// calls, so a warmed Solver allocates nothing for a matrix no larger than
// one it has already solved. A Solver is not safe for concurrent use; the
// zero value is ready.
type Solver struct {
	a          []float64 // (size+1)² padded costs, row-major
	u, v, minv []float64
	p, way     []int
	used       []bool
	rowTo      []int
}

// Solve is the package-level Solve on the solver's scratch. The returned
// rowTo is the solver's own buffer, valid until its next Solve.
//
// The implementation is the O(n³) Hungarian algorithm with potentials
// (Jonker–Volgenant style shortest augmenting paths).
func (s *Solver) Solve(cost [][]float64) (rowTo []int, total float64, err error) {
	n := len(cost)
	if n == 0 {
		return nil, 0, nil
	}
	m := len(cost[0])
	for i, row := range cost {
		if len(row) != m {
			return nil, 0, fmt.Errorf("assign: ragged cost matrix at row %d", i)
		}
		// Negative costs are fine; +Inf (Infeasible) is the only special
		// value.
		for _, c := range row {
			if math.IsNaN(c) {
				return nil, 0, fmt.Errorf("assign: NaN cost at row %d", i)
			}
		}
	}

	// Pad to a square problem of size N = max(n, m) with Infeasible cells,
	// then run the potentials algorithm on the padded matrix. Work in a
	// "large but finite" surrogate for Inf so arithmetic stays sane.
	big := maxFinite(cost)*float64(n+m+1) + 1
	if big == 1 {
		big = 1 // all-infeasible matrix
	}
	size := max(n, m)
	w := size + 1
	a := resize(&s.a, w*w)
	for i := 1; i <= size; i++ {
		for j := 1; j <= size; j++ {
			v := big
			if i <= n && j <= m && !math.IsInf(cost[i-1][j-1], 1) {
				v = cost[i-1][j-1]
			}
			a[i*w+j] = v
		}
	}

	u, v := resize(&s.u, w), resize(&s.v, w)
	p, way := resize(&s.p, w), resize(&s.way, w) // p[j] = row matched to column j
	minv, used := resize(&s.minv, w), resize(&s.used, w)
	clear(u)
	clear(v)
	clear(p)
	clear(way)
	for i := 1; i <= size; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		clear(used)
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := 0
			for j := 1; j <= size; j++ {
				if used[j] {
					continue
				}
				cur := a[i0*w+j] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= size; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
			if j0 == 0 {
				break
			}
		}
	}

	rowTo = resize(&s.rowTo, n)
	for i := range rowTo {
		rowTo[i] = -1
	}
	for j := 1; j <= size; j++ {
		i := p[j]
		if i >= 1 && i <= n && j <= m {
			// Reject padded/infeasible matches.
			if !math.IsInf(cost[i-1][j-1], 1) {
				rowTo[i-1] = j - 1
				total += cost[i-1][j-1]
			}
		}
	}
	return rowTo, total, nil
}

// resize returns *buf resized to n, reallocating only when its capacity is
// short. Contents are unspecified.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func maxFinite(cost [][]float64) float64 {
	mx := 0.0
	for _, row := range cost {
		for _, c := range row {
			if !math.IsInf(c, 1) && math.Abs(c) > mx {
				mx = math.Abs(c)
			}
		}
	}
	return mx
}
