package exsample

import (
	"fmt"

	"github.com/exsample/exsample/internal/baseline"
	"github.com/exsample/exsample/internal/core"
	"github.com/exsample/exsample/internal/shard"
	"github.com/exsample/exsample/internal/video"
	"github.com/exsample/exsample/internal/xrand"
)

// picker is a run's strategy: which frame comes next, and what the
// discriminator's verdict on an applied frame teaches it. A queryRun holds
// exactly one, chosen once by newPicker; discrimination, cost accounting,
// stopping and publication are the same for every strategy.
//
// The implementations cover the paper's method and its baselines:
// thompsonPicker (ExSample over an elastic source's native chunks),
// frozenPicker (over a layout frozen at submission) and orderPicker
// (Random, Random+, Sequential and the proxy's scored scan).
type picker interface {
	// next draws the next frame (Chunk -1 for non-chunked pickers). ok is
	// false when the picker has nothing left to draw; err reports a
	// pipeline rebuild failure, which the run latches.
	next() (p core.Pick, ok bool, err error)
	// feedback reports an applied frame's (d0, d1) split: the number of
	// objects it discovered and the number it saw for the second time.
	feedback(chunk, d0, d1 int) error
	// value is the expected new results per frame, the global budget
	// planner's marginal value.
	value() float64
	// sync follows a moved topology: arms appear for attached shards and
	// arms lying wholly on draining or gated shards are fenced. Frames of
	// such shards that a picker still draws are discarded by the run.
	sync(snap *shard.Snapshot) error
	// belief is the per-chunk sampler Session.ChunkStats reads; nil for
	// non-chunked pickers.
	belief() *core.Sampler
}

// newPicker builds the picker for the run's strategy over the repository
// as the run's topology snapshot sees it at submission.
func (r *queryRun) newPicker() (picker, error) {
	opts := r.opts
	n := r.numFramesNow()
	var (
		order video.FrameOrder
		err   error
	)
	switch opts.Strategy {
	case StrategyExSample:
		chunks := r.chunksNow()
		if opts.NumChunks > 0 {
			if chunks, err = video.SplitRange(0, n, opts.NumChunks); err != nil {
				return nil, err
			}
		}
		s, err := core.New(chunks, core.Config{
			Alpha0: opts.Alpha0,
			Beta0:  opts.Beta0,
			Policy: opts.policy,
			Within: opts.within,
			Seed:   opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		var p picker = frozenPicker{thompsonPicker{s}}
		if r.elastic {
			p = thompsonPicker{s}
		}
		return r.fenced(p)
	case StrategyRandom:
		order, err = video.NewUniformOrder(0, n, xrand.New(opts.Seed))
	case StrategyRandomPlus:
		order, err = video.NewRandomPlusOrder(0, n, int64(r.src.fps*3600), xrand.New(opts.Seed))
	case StrategySequential:
		order, err = video.NewSequentialOrder(0, n, 1)
	case StrategyProxy:
		order, err = r.proxyScan()
	default:
		return nil, fmt.Errorf("exsample: step loop does not support strategy %v", opts.Strategy)
	}
	return &orderPicker{order: order, rep: r.rep}, err
}

// fenced syncs a freshly built picker to the run's topology snapshot, so a
// shard already draining or gated at submission is fenced from the first
// pick.
func (r *queryRun) fenced(p picker) (picker, error) {
	if r.snap == nil {
		return p, nil
	}
	return p, p.sync(r.snap)
}

// proxyScan builds the proxy's scored scan order over the repository,
// charging the full upfront scoring pass (§II-B): the scan is paid before
// the first post-scan detector call.
func (r *queryRun) proxyScan() (video.FrameOrder, error) {
	score := r.src.newScorer(r.query.Class, r.opts.Seed^0xbead)
	order, err := baseline.NewProxyOrder(score, 0, r.numFramesNow())
	if err != nil {
		return nil, err
	}
	r.rep.ScanSeconds = r.src.scanSeconds(0, r.numFramesNow())
	return order, nil
}

// thompsonPicker is ExSample proper: the configured policy over per-chunk
// Gamma beliefs (Eq. III.4), with arms that are an elastic source's native
// global chunks, which follow shard churn arm for arm. Its one field keeps
// it pointer-shaped, so holding it in a picker allocates nothing.
type thompsonPicker struct{ s *core.Sampler }

func (t thompsonPicker) next() (core.Pick, bool, error) {
	p, ok := t.s.Next()
	return p, ok, nil
}

func (t thompsonPicker) feedback(chunk, d0, d1 int) error { return t.s.Update(chunk, d0, d1) }

// value is the best enabled arm's prior-smoothed point estimate.
func (t thompsonPicker) value() float64 { return t.s.MaxPointEstimate() }

// sync gives the sampler fresh prior arms for attached chunks, then fences.
// Per-chunk statistics carry across, because the global address space is
// append-only.
func (t thompsonPicker) sync(snap *shard.Snapshot) error {
	if chunks := snap.Map.Chunks(); len(chunks) > t.s.NumChunks() {
		if err := t.s.Append(chunks[t.s.NumChunks():]); err != nil {
			return err
		}
	}
	return t.fence(snap)
}

// fence enables exactly the arms with a frame on an active shard; a fenced
// arm is skipped before the policy draws randomness.
func (t thompsonPicker) fence(snap *shard.Snapshot) error {
	for j, c := range t.s.Chunks() {
		if err := t.s.SetEnabled(j, spanActive(snap, c)); err != nil {
			return err
		}
	}
	return nil
}

func (t thompsonPicker) belief() *core.Sampler { return t.s }

// spanActive reports whether any frame of c lies on an active shard.
func spanActive(snap *shard.Snapshot, c video.Chunk) bool {
	first, _ := snap.Map.Locate(c.Start)
	last, _ := snap.Map.Locate(c.End - 1)
	for i := first; i <= last; i++ {
		if snap.ShardActive(i) && snap.Map.ShardFrames(i) > 0 {
			return true
		}
	}
	return false
}

// frozenPicker is a Thompson picker whose layout is frozen at submission:
// a NumChunks layout, or any layout over a fixed topology. Custom arms
// cannot map onto shards one to one, so a topology change only fences, and
// an arm straddling a draining shard's boundary relies on the run's frame
// filter.
type frozenPicker struct{ thompsonPicker }

func (f frozenPicker) sync(snap *shard.Snapshot) error { return f.fence(snap) }

// orderPicker walks a fixed frame order: the Random, Random+, Sequential
// and proxy baselines. Its orders cover the repository as it was at
// submission, so attached shards stay out of reach and fencing is left to
// the run's frame filter.
type orderPicker struct {
	order video.FrameOrder
	rep   *Report
}

func (o *orderPicker) next() (core.Pick, bool, error) {
	frame, ok := o.order.Next()
	return core.Pick{Frame: frame, Chunk: -1}, ok, nil
}

func (o *orderPicker) feedback(int, int, int) error { return nil }

// value is a whole-run aggregate belief: results over frames, smoothed by
// the paper's prior, so an untouched query starts at the prior exactly
// like a fresh sampler.
func (o *orderPicker) value() float64 {
	return (float64(len(o.rep.Results)) + core.DefaultAlpha0) /
		(float64(o.rep.FramesProcessed) + core.DefaultBeta0)
}

func (o *orderPicker) sync(*shard.Snapshot) error { return nil }

func (o *orderPicker) belief() *core.Sampler { return nil }
