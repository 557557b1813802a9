package exsample

import "context"

// SubmitTrack registers a track-predicate query against a source and
// returns its handle; the query starts immediately and is scheduled
// against every other in-flight query — distinct-object and track alike —
// through the same rounds, worker pool, affinity grouping, memo cache and
// (when enabled) global marginal-value budget and adaptive round sizing.
// The context cancels the query, not the engine.
//
// The query runs the accelerate/refine loop documented on TrackSearch, and
// for the same predicate and options produces the same Results. Events
// stream one QueryEvent per completed candidate interval that matched
// tracks, with the matches in QueryEvent.Tracks; the final TrackReport
// comes from TrackHandle.Wait.
//
// Elastic sources are sampled over their chunks at submit. A running track
// query fences drained and gated shards as distinct-object queries do: it
// issues no grid point there and skips their refine frames uncharged. Shards
// attached later are not folded into a running track query (submit another
// one).
func (e *Engine) SubmitTrack(ctx context.Context, src Source, p TrackPredicate, opts TrackOptions) (*TrackHandle, error) {
	run, err := newTrackRun(src, p, opts, e.cacheCfg())
	if err != nil {
		return nil, err
	}
	h := &TrackHandle{rep: run.rep}
	run.out = &h.handleCore
	if err := e.submitRun(ctx, src, run, &h.handleCore, false); err != nil {
		return nil, err
	}
	return h, nil
}

// TrackHandle tracks one submitted track query.
type TrackHandle struct {
	handleCore
	rep *TrackReport
}

// Wait blocks until the query finishes and returns its report — complete
// on success, partial (but internally consistent) on cancellation or
// failure.
func (h *TrackHandle) Wait() (*TrackReport, error) { return h.rep, h.wait() }
