package exsample

import (
	"context"
	"fmt"
)

// Session is the incremental counterpart to Search: the caller drives the
// loop one frame at a time and observes results as they stream in. This is
// the natural shape for interactive use ("keep going until I like what I
// see") and for integrating ExSample into a larger pipeline that
// interleaves other work between detector calls.
//
// A Session never stops on its own: Step processes one frame and reports
// what it found; the caller decides when to stop. Sessions are not safe for
// concurrent use. To run many queries concurrently over a shared detector
// worker pool, use Engine — Session and Engine drive the same underlying
// step loop, so both reproduce Search exactly for the same seed.
type Session struct {
	run *queryRun
	// scr and one are Step's detect buffers: each Step is a one-frame batch
	// through the same scratch, so the steady-state step loop allocates
	// nothing between detector calls.
	scr detectScratch
	one [1]int64
	// alloc is the reused per-poll buffer behind ChunkStats' Allocation
	// column — stats polling every step must not allocate per call.
	alloc []float64
}

// StepInfo reports what one Step did.
type StepInfo struct {
	// Frame is the frame that was processed.
	Frame int64
	// Chunk is the chunk it came from (-1 for non-chunked strategies).
	Chunk int
	// New lists the distinct objects discovered by this frame (often
	// empty). It is read-only: it may share storage with the session's
	// Results, of which it is a window.
	New []Result
	// SecondSightings counts objects re-confirmed by this frame.
	SecondSightings int
}

// NewSession prepares an incremental search over any Source — a local
// Dataset or a ShardedSource. The query's Limit/RecallTarget are advisory
// for Session (exposed via Done) — Step keeps working as long as frames
// remain.
func NewSession(src Source, q Query, opts Options) (*Session, error) {
	if err := q.validate(false); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.BatchSize > 1 {
		return nil, fmt.Errorf("exsample: sessions are single-frame; use Search for batching")
	}
	run, err := newQueryRun(src, q, opts, cacheConfig{}, false)
	if err != nil {
		return nil, err
	}
	return &Session{run: run}, nil
}

// NewSession prepares an incremental search against the dataset.
func (d *Dataset) NewSession(q Query, opts Options) (*Session, error) {
	return NewSession(d, q, opts)
}

// Step processes one frame. ok is false when the repository is exhausted.
// A detector backend error (network failure, cancelled endpoint) surfaces
// as err: the drawn frame is neither charged nor applied, so Frames,
// Seconds and Results are unchanged, but the pick is spent — the next Step
// draws a new one.
func (s *Session) Step() (info StepInfo, ok bool, err error) {
	p, ok := s.run.next()
	if !ok {
		return StepInfo{}, false, nil
	}
	s.one[0] = p.Frame
	res, err := s.run.detectBatchInto(context.Background(), s.one[:], &s.scr)
	if err != nil {
		return StepInfo{}, false, err
	}
	info, err = s.run.apply(p, res[0])
	if err != nil {
		return StepInfo{}, false, err
	}
	return info, true, nil
}

// Done reports whether the query's stopping condition (Limit and/or
// RecallTarget) is satisfied.
func (s *Session) Done() bool { return s.run.stopRequested() }

// Results returns all distinct objects found so far (shared slice; do not
// mutate).
func (s *Session) Results() []Result { return s.run.rep.Results }

// Recall returns the fraction of ground-truth instances found so far.
func (s *Session) Recall() float64 { return s.run.curve.Recall() }

// Frames returns the number of frames processed.
func (s *Session) Frames() int64 { return s.run.rep.FramesProcessed }

// Seconds returns the charged query time so far, including any scan.
func (s *Session) Seconds() float64 { return s.run.rep.TotalSeconds() }

// ChunkStats exposes the live per-chunk sampler statistics (N1, n) for
// StrategyExSample sessions; it returns nil for other strategies. Useful for
// visualizing how the sampler's attention shifts.
func (s *Session) ChunkStats() []ChunkStat {
	sampler := s.run.pick.belief()
	if sampler == nil {
		return nil
	}
	// The allocation fractions come through the session's reused buffer
	// (core.AllocationInto): live dashboards poll ChunkStats every few
	// steps, and the per-chunk share is the §IV-A weight vector they plot.
	s.alloc = sampler.AllocationInto(s.alloc)
	out := make([]ChunkStat, sampler.NumChunks())
	for j := range out {
		n1, n := sampler.Stats(j)
		c := sampler.Chunks()[j]
		out[j] = ChunkStat{Chunk: j, Start: c.Start, End: c.End, N1: n1, N: n,
			Estimate: sampler.PointEstimate(j), Allocation: s.alloc[j]}
	}
	return out
}

// ChunkStat is one chunk's live sampling statistics.
type ChunkStat struct {
	Chunk      int
	Start, End int64
	N1         int64
	N          int64
	Estimate   float64
	// Allocation is the fraction of all samples drawn from this chunk so
	// far — the de-facto weight vector the sampler has converged to
	// (§IV-A); the fractions sum to 1 once sampling has started.
	Allocation float64
}
