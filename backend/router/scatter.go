package router

import (
	"context"
	"fmt"
	"sync"

	"github.com/exsample/exsample/backend"
)

// scatterBatch splits one batch across several healthy replicas
// proportional to their capacity weights: contiguous frame slices
// dispatched concurrently, reassembled in frame order. A failed slice
// fails over onto untried siblings (each at most once, same as a whole
// batch); a slice that exhausts its retries cancels the remaining
// slices and fails the whole batch — callers keep the exact
// all-or-nothing semantics of single-replica routing, so engine
// determinism is untouched.
//
// Returns ok=false when the batch is not worth splitting (too few
// frames, fewer than two healthy replicas) or while a healthy replica
// without an explicit Weight is still cold: its stand-in weight (1 or its
// MaxBatch) against its warmed siblings' 1/perFrame would round its slice
// to zero, so it would never warm, and a dead one would never trip its
// breaker. The caller falls back to the single-replica path, which ranks
// cold replicas first and also owns half-open trials and degraded fleets.
func (r *Router) scatterBatch(ctx context.Context, class string, frames []int64) (_ [][]backend.Detection, _ []float64, ok bool, _ error) {
	type member struct {
		i      int
		weight float64
		max    int
	}
	var members []member
	for i, rep := range r.replicas {
		rep.mu.Lock()
		healthy, cold := rep.state == Healthy, rep.weight == 0 && rep.requests < coldRequests
		m := member{i, capacityWeightLocked(rep), rep.maxBatch}
		rep.mu.Unlock()
		if !healthy {
			continue
		}
		if cold {
			return nil, nil, false, nil
		}
		members = append(members, m)
	}
	width := len(frames) / scatterMinSlice
	if width > len(members) {
		width = len(members)
	}
	if width < 2 {
		return nil, nil, false, nil
	}
	// Keep the `width` heaviest members when the batch cannot feed
	// everyone a worthwhile slice.
	for len(members) > width {
		drop := 0
		for k := 1; k < len(members); k++ {
			if members[k].weight < members[drop].weight {
				drop = k
			}
		}
		members = append(members[:drop], members[drop+1:]...)
	}
	weights := make([]float64, len(members))
	caps := make([]int, len(members))
	for k, m := range members {
		weights[k] = m.weight
		caps[k] = m.max
	}
	shares := scatterShares(len(frames), weights, caps)
	if shares == nil {
		// The healthy fleet's aggregate MaxBatch cannot absorb the batch;
		// let the single path route it whole (MaxBatch is a hint).
		return nil, nil, false, nil
	}

	dets := make([][]backend.Detection, len(frames))
	costs := make([]float64, len(frames))
	// One slice's terminal failure cancels its siblings: their aborted
	// calls read as context cancellation inside call(), so the healthy
	// replicas they ran on are not charged a failure.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	start := 0
	for k, m := range members {
		share := shares[k]
		if share == 0 {
			continue
		}
		lo, hi := start, start+share
		start = hi
		wg.Add(1)
		go func(first, lo, hi int) {
			defer wg.Done()
			d, c, err := r.scatterSlice(sctx, first, class, frames[lo:hi])
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				cancel()
				return
			}
			copy(dets[lo:hi], d)
			if c != nil {
				copy(costs[lo:hi], c)
			}
		}(m.i, lo, hi)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, true, err
	}
	if firstErr != nil {
		return nil, nil, true, fmt.Errorf("router: scatter slice failed: %w", firstErr)
	}
	r.mu.Lock()
	r.scatters++
	r.mu.Unlock()
	return dets, costs, true, nil
}

// scatterSlice runs one slice, first on its assigned replica and then,
// on failure, on untried siblings chosen by pick — the per-slice
// equivalent of DetectBatchCost's failover loop.
func (r *Router) scatterSlice(ctx context.Context, first int, class string, frames []int64) ([][]backend.Detection, []float64, error) {
	tried := make(map[int]bool)
	var lastErr error
	for attempt := range r.replicas {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		i := first
		if attempt > 0 {
			var ok bool
			i, ok = r.pick(tried)
			if !ok {
				break
			}
		}
		tried[i] = true
		rep := r.replicas[i]
		dets, costs, err := r.call(ctx, rep, class, frames)
		if err == nil {
			rep.mu.Lock()
			rep.slices++
			rep.mu.Unlock()
			if attempt > 0 {
				r.mu.Lock()
				r.failovers++
				r.mu.Unlock()
			}
			return dets, costs, nil
		}
		if ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("%w (all %d cooling down)", ErrNoHealthyReplicas, len(r.replicas))
	}
	return nil, nil, lastErr
}

// scatterShares splits n frames across members proportional to their
// weights by largest remainder, respecting each member's MaxBatch cap
// (0 = unbounded). Returns nil when the caps cannot absorb n frames.
func scatterShares(n int, weights []float64, caps []int) []int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return nil
	}
	shares := make([]int, len(weights))
	fracs := make([]float64, len(weights))
	assigned := 0
	for k, w := range weights {
		ideal := float64(n) * w / total
		s := int(ideal)
		if caps[k] > 0 && s > caps[k] {
			s = caps[k]
		}
		shares[k] = s
		fracs[k] = ideal - float64(s)
		assigned += s
	}
	// Hand out the remainder one frame at a time to the member with the
	// largest unmet ideal share that still has cap headroom — ties break
	// by lowest index, so the split is deterministic.
	for assigned < n {
		best := -1
		for k := range shares {
			if caps[k] > 0 && shares[k] >= caps[k] {
				continue
			}
			if best < 0 || fracs[k] > fracs[best] {
				best = k
			}
		}
		if best < 0 {
			return nil
		}
		shares[best]++
		fracs[best]--
		assigned++
	}
	return shares
}
