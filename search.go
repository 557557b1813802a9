package exsample

import (
	"context"

	"github.com/exsample/exsample/internal/engine"
)

// Search runs a distinct-object query against the dataset and returns a
// report. It implements the full Algorithm 1 pipeline: pick a frame (by the
// configured strategy), read+decode it (charged via the decode cost model),
// run the object detector (charged per frame), pass detections through the
// SORT-style discriminator, and — for ExSample — feed the (d0, d1) split
// back into the per-chunk statistics.
//
// Search runs the Engine's own scheduling round on the calling goroutine,
// over the same queryRun step machine Session and Engine drive, so all
// three produce byte-identical reports for the same seed.
func (d *Dataset) Search(q Query, opts Options) (*Report, error) {
	return SearchSource(d, q, opts)
}

// SearchSource is Search over any Source — a local Dataset or a
// ShardedSource. The pipeline is identical; only frame routing differs.
func SearchSource(src Source, q Query, opts Options) (*Report, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	run, err := newQueryRun(src, q, opts, cacheConfig{}, false)
	if err != nil {
		return nil, err
	}
	// Only the batched ExSample loop (§III-F) defers updates across a round;
	// every other strategy steps one frame at a time.
	round := 1
	if opts.Strategy == StrategyExSample && !opts.AutoChunk && opts.BatchSize > 1 {
		round = opts.BatchSize
	}
	if err := runInline(run, run.src, round); err != nil {
		return nil, err
	}
	run.rep.Recall = run.curve.Recall()
	return run.rep, nil
}

// runInline runs a bounded run to completion through the engine's round
// (engine.Run) on the calling goroutine, round frames per round: a round's
// picks are all drawn before any of its updates apply, its frames reach
// the detector as one batch per shard, and the tail of the round after the
// stopping condition fires is discarded uncharged. No goroutine is started
// and no event is published. It returns the error that ended the run: the
// detector's, an apply's, or a pipeline failure the run latched.
func runInline(run engineRun, src *querySource, round int) error {
	eq := &engineQuery{run: run, src: src, ctx: context.Background()}
	if _, err := engine.Run(eq, engine.Config{FramesPerRound: round}); err != nil {
		return err
	}
	return run.failure()
}
