package exsample

import (
	"fmt"

	"github.com/exsample/exsample/internal/core"
	"github.com/exsample/exsample/internal/geom"
	"github.com/exsample/exsample/internal/kalman"
	"github.com/exsample/exsample/internal/sorttrack"
	"github.com/exsample/exsample/internal/track"
	"github.com/exsample/exsample/internal/trackquery"
	"github.com/exsample/exsample/internal/video"
)

// trackRun is the step state machine behind TrackSearch and
// Engine.SubmitTrack — the track-query sibling of queryRun, built around
// internal/trackquery's accelerate/refine plan instead of the distinct-
// object sampler. The same next/detect/apply discipline holds: only apply
// mutates state and must run in pick order on one goroutine; detect calls
// may fan out across workers between a round's picks and its applies.
//
// Determinism: while every shard stays active, the coarse phase runs its
// stride grid to completion, so the hit set — and therefore the candidate
// intervals, the refine schedule, the per-interval tracker inputs and the
// emitted TrackResults — is a pure function of (source contents,
// predicate, options), independent of the engine's round size and worker
// count, and the shard layout (a ShardedSource presents the same global
// frame space as the equivalent Dataset).
type trackRun struct {
	runCore
	pred TrackPredicate
	eval *trackquery.Evaluator
	opts TrackOptions
	plan *trackquery.Plan

	// grid and window hold every processed frame's detections until the
	// interval containing the frame is assembled. grid has one entry per
	// grid point of the plan, indexed by frame/stride (coarse frames
	// outside every interval stay until the run ends — the grid is small by
	// design); window holds the processed refine frames in ascending frame
	// order, which is their issue order. With the plan's bitset of
	// NumFrames bits, that is the run's whole per-frame state.
	stride int64
	grid   []gridFrame
	window []refineFrame

	rep            *TrackReport
	intervalsNoted bool
}

// gridFrame is one grid point's slot in trackRun.grid; present marks a
// processed frame, with or without detections.
type gridFrame struct {
	dets    []track.Detection
	present bool
}

// refineFrame is one processed refine frame in trackRun.window.
type refineFrame struct {
	frame int64
	dets  []track.Detection
}

// newTrackRun validates the predicate and options and builds the full
// track-query pipeline over a Source. The plan's coarse arms are the
// source's chunks at submit. The run follows the topology as queryRun
// does: arms of draining or gated shards are fenced, and a refine frame on
// such a shard is skipped uncharged. Shards attached after submit stay out
// of a running track query (submit another one).
func newTrackRun(s Source, p TrackPredicate, o TrackOptions, cc cacheConfig) (*trackRun, error) {
	rc, err := openRun(s, p.Class, cc, false)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	eval, err := trackquery.Compile(p.lower())
	if err != nil {
		return nil, err
	}
	if _, err := rc.src.groundTruth(p.Class); err != nil {
		return nil, err
	}
	chunks := rc.chunksNow()
	numFrames := rc.numFramesNow()
	// A stride past the repository's length lays out the same one-point
	// grid {0} and pads it over the same whole repository as a stride of
	// exactly that length; clamping keeps the grid and the pad in range.
	stride := min(o.strideFor(p), numFrames)
	// A pad of one stride densifies a track touching one grid point
	// across its whole neighborhood.
	plan, err := trackquery.NewPlan(trackquery.Config{
		NumFrames: numFrames,
		Chunks:    chunks,
		Stride:    stride,
		Pad:       stride,
	})
	if err != nil {
		return nil, err
	}
	var dense int64
	for _, c := range chunks {
		if rc.activeFrame(c.Start) {
			dense += c.Len()
		}
	}
	r := &trackRun{
		runCore: rc,
		pred:    p,
		eval:    eval,
		opts:    o,
		plan:    plan,
		stride:  stride,
		grid:    make([]gridFrame, trackquery.CeilDiv(numFrames, stride)),
		rep:     &TrackReport{Predicate: p, DenseFrames: dense},
	}
	// Fence the shards already draining or gated at submit.
	r.fence()
	return r, nil
}

// fence enables exactly the plan's coarse arms on an active shard of the
// synced topology.
func (r *trackRun) fence() {
	if r.snap != nil {
		r.plan.Fence(func(c video.Chunk) bool { return spanActive(r.snap, c) })
	}
}

// next draws the next frame from the plan. Chunk is the coarse arm
// during phase 1 and -1 during refine. ok is false when the plan has
// nothing to issue — terminal once done() holds, transient while a round's
// coarse observes are outstanding. A drawn frame of a draining or gated
// shard is observed as a miss and never charged or tracked. next runs on
// the same goroutine as step (the one applying the engine's round), so it
// may drain intervals the plan just readied.
func (r *trackRun) next() (core.Pick, bool) {
	for r.ready() {
		f, c, ok := r.plan.Next()
		// Next may have run the coarse→refine transition, readying every
		// interval the coarse grid already covered; assemble them now or
		// they would never surface (in a stride-1 run that is the entire
		// result set).
		if r.drain() != nil || !ok || r.done() {
			break
		}
		if r.activeFrame(f) {
			return core.Pick{Frame: f, Chunk: c}, true
		}
		r.observe(f, c, false)
	}
	return core.Pick{}, false
}

// ready fences the plan if the topology moved and reports whether the run
// can still pick: it has neither finished nor latched a failure.
func (r *trackRun) ready() bool {
	if r.err == nil && r.moved() {
		r.fence()
	}
	return r.err == nil && !r.done()
}

// marginalValue exposes the plan's expected-value estimate to the engine's
// global budget planner, on the same scale distinct-object queries use.
func (r *trackRun) marginalValue() float64 {
	if !r.ready() {
		return 0
	}
	return r.plan.MarginalValue()
}

// step charges the frame's costs, records its detections, feeds the plan,
// and assembles any interval the observation completed (see drain). Must be
// called in pick order from one goroutine.
func (r *trackRun) step(p core.Pick, fr frameResult) error {
	if r.err != nil {
		return r.err
	}
	rep := r.rep
	rep.DecodeSeconds += r.src.decodeCost(p.Frame)
	rep.DetectSeconds += fr.cost
	r.tally(fr, &rep.CacheHits, &rep.RemoteCacheHits, &rep.CacheMisses)
	rep.FramesProcessed++
	if p.Chunk >= 0 {
		rep.CoarseFrames++
	} else {
		rep.RefineFrames++
	}
	if err := r.keep(p, fr.dets); err != nil {
		r.err = err
		return err
	}
	return r.observe(p.Frame, p.Chunk, len(fr.dets) > 0)
}

// keep stores a processed frame's detections until assemble: a coarse
// frame in its grid slot, a refine frame at the end of the window.
func (r *trackRun) keep(p core.Pick, dets []track.Detection) error {
	if p.Chunk >= 0 {
		r.grid[p.Frame/r.stride] = gridFrame{dets: dets, present: true}
		return nil
	}
	if n := len(r.window); n > 0 && r.window[n-1].frame >= p.Frame {
		return fmt.Errorf("exsample: refine frame %d processed after frame %d", p.Frame, r.window[n-1].frame)
	}
	r.window = append(r.window, refineFrame{frame: p.Frame, dets: dets})
	return nil
}

// observe feeds one frame's verdict to the plan and assembles any interval
// it completed (see drain).
func (r *trackRun) observe(frame int64, chunk int, hit bool) error {
	if err := r.plan.Observe(frame, chunk, hit); err != nil {
		r.err = err
		return err
	}
	return r.drain()
}

// drain records the interval set once the plan leaves the coarse phase and
// assembles every interval that became ready; under the engine each
// matching interval then becomes one event, stamped with its last frame and
// the running totals after the whole drain. Runs from step and from next —
// both on the driver's apply goroutine.
func (r *trackRun) drain() error {
	if r.err != nil {
		return r.err
	}
	if !r.intervalsNoted && r.plan.Phase() != trackquery.PhaseCoarse {
		r.intervalsNoted = true
		ivs := r.plan.Intervals()
		r.rep.Intervals = len(ivs)
		for _, iv := range ivs {
			r.rep.IntervalFrames += iv.Len()
		}
	}
	var matched []QueryEvent
	for _, iv := range r.plan.TakeReady() {
		res, err := r.assemble(iv)
		if err != nil {
			r.err = err
			return err
		}
		if len(res) > 0 && r.out != nil {
			matched = append(matched, QueryEvent{Frame: iv.End, Chunk: -1, Tracks: res})
		}
	}
	for _, ev := range matched {
		ev.FramesProcessed = r.rep.FramesProcessed
		ev.Found = len(r.rep.Results)
		ev.Seconds = r.rep.TotalSeconds()
		r.out.emit(ev)
	}
	return nil
}

// assemble runs the tracker over one completed interval's stored
// detections, smooths each track, evaluates the predicate and emits the
// matches. Interval frames are released from the store afterwards.
func (r *trackRun) assemble(iv trackquery.Interval) ([]TrackResult, error) {
	defer r.release(iv)
	if r.opts.Limit > 0 && len(r.rep.Results) >= r.opts.Limit {
		return nil, nil
	}
	tr, err := sorttrack.New(sorttrack.DefaultConfig())
	if err != nil {
		return nil, err
	}
	// Processed frames with no detections still age live tracks — a
	// confirmed absence separates two objects sharing a lane.
	if err := r.eachStored(iv, tr.Observe); err != nil {
		return nil, err
	}
	var out []TrackResult
	for _, t := range tr.Flush() {
		if r.opts.Limit > 0 && len(r.rep.Results) >= r.opts.Limit {
			break
		}
		frames := make([]int64, len(t.Path))
		boxes := make([]geom.Box, len(t.Path))
		for i, pp := range t.Path {
			frames[i] = pp.Frame
			boxes[i] = pp.Box
		}
		sm, err := kalman.Smooth(frames, boxes, 0, 0)
		if err != nil {
			return nil, err
		}
		smPath := make([]sorttrack.PathPoint, len(sm))
		for i := range sm {
			smPath[i] = sorttrack.PathPoint{Frame: frames[i], Box: sm[i]}
		}
		if !r.eval.Match(smPath) {
			continue
		}
		first, last := sm[0], sm[len(sm)-1]
		res := TrackResult{
			TrackID:  len(r.rep.Results),
			Class:    r.pred.Class,
			Start:    t.Start,
			End:      t.End,
			StartBox: Box{X1: first.X1, Y1: first.Y1, X2: first.X2, Y2: first.Y2},
			EndBox:   Box{X1: last.X1, Y1: last.Y1, X2: last.X2, Y2: last.Y2},
			Hits:     t.Hits,
			AvgSpeed: trackquery.AvgSpeed(smPath),
		}
		r.rep.Results = append(r.rep.Results, res)
		out = append(out, res)
	}
	return out, nil
}

// eachStored calls fn, in frame order, with every processed frame of iv
// and its detections: the window's frames up to iv.End merged with the
// interval's grid points. A grid point whose arm stayed fenced was
// refined: it sits in the window and its grid slot is empty. A frame in
// neither — a fenced refine frame (its shard drained or gated) observed as
// a miss — was never processed.
func (r *trackRun) eachStored(iv trackquery.Interval, fn func(frame int64, dets []track.Detection) error) error {
	win := r.window[:r.prefix(iv.End)]
	k, kEnd := r.gridSpan(iv)
	for len(win) > 0 || k <= kEnd {
		var err error
		if len(win) > 0 && (k > kEnd || win[0].frame < k*r.stride) {
			err = fn(win[0].frame, win[0].dets)
			win = win[1:]
		} else {
			if g := r.grid[k]; g.present {
				err = fn(k*r.stride, g.dets)
			}
			k++
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// gridSpan returns the grid indexes [k, kEnd] of the grid points inside iv
// (k > kEnd when there is none).
func (r *trackRun) gridSpan(iv trackquery.Interval) (k, kEnd int64) {
	return trackquery.CeilDiv(iv.Start, r.stride), iv.End / r.stride
}

// prefix returns how many window frames are at or before frame.
func (r *trackRun) prefix(frame int64) int {
	n := 0
	for n < len(r.window) && r.window[n].frame <= frame {
		n++
	}
	return n
}

// release drops an assembled interval's frames: its grid slots are
// cleared and the window's prefix up to iv.End is cut, its backing array
// reused for the frames still to come.
func (r *trackRun) release(iv trackquery.Interval) {
	k, kEnd := r.gridSpan(iv)
	clear(r.grid[k : kEnd+1])
	m := copy(r.window, r.window[r.prefix(iv.End):])
	clear(r.window[m:])
	r.window = r.window[:m]
}

// done is the track query's stopping condition: the plan finished, the
// result limit was reached, or an explicit frame/time budget is spent.
func (r *trackRun) done() bool {
	if r.opts.Limit > 0 && len(r.rep.Results) >= r.opts.Limit {
		return true
	}
	if r.plan.Done() {
		return true
	}
	if r.opts.MaxFrames > 0 && r.rep.FramesProcessed >= r.opts.MaxFrames {
		return true
	}
	if r.opts.MaxSeconds > 0 && r.rep.TotalSeconds() >= r.opts.MaxSeconds {
		return true
	}
	return false
}

// TrackSearch runs a track-predicate query against a source — a local
// Dataset or a ShardedSource — and returns its report. It runs the
// engine's round, one frame per round, on the calling goroutine over the
// same trackRun step machine Engine.SubmitTrack schedules concurrently, so
// both produce identical Results for the same predicate and options. A
// detector error returns with the report as of the last applied frame.
//
// The query runs the MIRIS-style accelerate/refine loop: phase 1 samples
// the repository at a coarse stride (a fixed round-robin walk over the
// chunks) to localize candidate intervals, phase 2 densifies only those
// intervals and evaluates the predicate over the smoothed tracks found
// there. On sparse scenes this charges a small fraction of a dense scan's
// detector frames — TrackReport.Speedup reports the realized ratio.
func TrackSearch(src Source, p TrackPredicate, o TrackOptions) (*TrackReport, error) {
	run, err := newTrackRun(src, p, o, cacheConfig{})
	if err != nil {
		return nil, err
	}
	err = runInline(run, run.src, 1)
	return run.rep, err
}

// TrackSearch runs a track-predicate query against this dataset; see the
// package-level TrackSearch.
func (d *Dataset) TrackSearch(p TrackPredicate, o TrackOptions) (*TrackReport, error) {
	return TrackSearch(d, p, o)
}
