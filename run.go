package exsample

import (
	"context"
	"fmt"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/cachestore"
	"github.com/exsample/exsample/internal/batchwire"
	"github.com/exsample/exsample/internal/core"
	"github.com/exsample/exsample/internal/detect"
	"github.com/exsample/exsample/internal/discrim"
	"github.com/exsample/exsample/internal/metrics"
	"github.com/exsample/exsample/internal/shard"
	"github.com/exsample/exsample/internal/track"
)

// queryRun is the incremental step state machine behind Search, Session and
// Engine: pick a frame (next), run the detector (detectBatchInto — the only
// concurrency-safe method), and feed the detections through the
// discriminator, cost accounting and the picker's feedback (apply). Driving
// next/detect/apply in a loop IS Algorithm 1 — there is exactly one
// implementation of the pipeline, and every entry point delegates to it,
// which is what keeps Search ≡ Session ≡ Engine for the same seed.
//
// queryRun works over any Source (a local Dataset or a ShardedSource); the
// step machine never learns whether its frames live on one shard or many.
// Its strategy — ExSample, a baseline, the §VII auto-chunking pilot or the
// BlazeIt-style proxy training phase — is one picker chosen at
// construction, so drivers need no special cases.
//
// Only apply mutates state, and callers must invoke it in pick order from a
// single goroutine; detectBatchInto may be fanned out across workers
// between a round of next calls and their applies. Search and Engine both
// drive the run through the engine's round (§III-F); Session steps it one
// frame at a time.
type queryRun struct {
	detectStage
	query Query
	opts  Options
	dis   *discrim.Discriminator
	curve *metrics.RecallCurve
	// aware enables the cache-aware sampler tie-break: when Thompson
	// beliefs tie within epsilon, prefer the chunk with the higher cached
	// fraction (see core.Config.CachedFrac).
	aware bool

	// pick is the strategy: the one place the paper's method, its
	// baselines and the §VII extensions differ (see picker).
	pick picker

	// snap is the elastic-topology snapshot the run last synced to (nil
	// for sources with a fixed topology). next compares its generation
	// against the source's current snapshot on every pick — one atomic
	// load when nothing changed — and re-syncs the picker when the
	// topology moved, so belief state carries across shard churn instead
	// of restarting. elastic is true only when the sampler's arms are the
	// source's native global chunks, the one layout that can reach an
	// attached shard (custom layouts — NumChunks, AutoChunk — are frozen
	// at submission and only fence).
	snap    *shard.Snapshot
	elastic bool
	// truthSeen and truthTotal implement reachable-population recall for
	// elastic sources: truthSeen[i] is set once shard i has been observed
	// active by this query, and truthTotal sums those shards' class
	// populations — the recall denominator. An attached shard grows the
	// denominator at the sync that makes it samplable (elastic runs only);
	// a shard attached and drained without ever being seen active
	// contributes nothing, and a drain never shrinks it (recall stays
	// monotonic). nil/0 for fixed topologies, which use the source-wide
	// population.
	truthSeen  []bool
	truthTotal int

	// out, when non-nil, is the engine handle step publishes each applied
	// frame's event to. Bound once at submit; nil under Search and Session.
	out *handleCore

	rep       *Report
	maxFrames int64
	exhausted bool
	// standing marks a live-source query with park-on-exhaustion
	// semantics: next reporting false is a pause (the engine parks the
	// query until the source appends), never a latch, and the repository
	// running dry is not a stopping condition. Standing runs always ride
	// the elastic sampler path.
	standing bool
	// err records a mid-run pipeline rebuild failure (re-chunk, scorer,
	// topology sync); once set, next yields nothing, and apply, Search's
	// driver and the engine handle's Wait all surface it.
	err error
}

// detectStage is the cache-aware batched detect path every run type embeds
// (distinct-object queryRun, track-query trackRun): the per-class detector,
// the cache tier and the identity cache keys are built from.
type detectStage struct {
	src      *querySource
	class    string
	detector detect.BatchDetector
	// tier, when non-nil, memoizes detector output across queries: frames
	// resolve through L1 → remote L2 (when configured) → singleflighted
	// detector fill, and hits are charged decode-only cost. content is the
	// Key.Content of the run's cache keys (see cacheConfig).
	tier    *cachestore.Tiered
	content uint64
}

// newDetectStage builds a run's detect stage for one class. The cache is
// dropped for sources whose detector output is not a pure function of the
// frame (e.g. under failure injection).
func newDetectStage(src *querySource, class string, cc cacheConfig) (detectStage, error) {
	if !src.cacheable {
		cc = cacheConfig{}
	}
	detector, err := src.newDetector(class)
	if err != nil {
		return detectStage{}, err
	}
	d := detectStage{src: src, class: class, detector: detector, tier: cc.tier, content: src.id}
	if cc.shared {
		d.content = src.contentID
	}
	return d, nil
}

// tally classifies one applied frame into its report's counters: a miss, a
// hit, or a hit the remote tier served. An uncached run counts nothing.
func (d *detectStage) tally(fr frameResult, hits, remote, misses *int64) {
	switch {
	case d.tier == nil:
	case !fr.cached:
		*misses++
	default:
		*hits++
		if fr.remote {
			*remote++
		}
	}
}

// frameResult carries one frame's detector output plus the inference cost
// actually incurred — zero on a cache hit, where the query pays decode-only
// cost. remote marks a hit served by the remote L2 rather than locally.
type frameResult struct {
	dets   []track.Detection
	cost   float64
	cached bool
	remote bool
}

// cacheConfig is the cache wiring a run operates under — the engine's one
// decision point. The zero value is an uncached run.
type cacheConfig struct {
	tier *cachestore.Tiered
	// shared marks a tier with a remote L2: keys carry the source's content
	// address, stable across processes. An L1-only tier keys by the
	// per-process source id instead, because the content address does not
	// fold a WithBackend backend and two such datasets of one spec must not
	// share entries.
	shared bool
	// aware opts the sampler into cache-aware tie-breaking; it requires a
	// tier.
	aware bool
}

// detectScratch is a reusable buffer set for one in-flight detectBatch
// call: the per-frame results, the tier's key and outcome buffers, and the
// fill function bound once to the scratch. One scratch serves one call at a
// time; concurrent batches (the engine runs a query's affinity groups in
// parallel) each need their own, which the engine recycles through a
// per-query free list.
type detectScratch struct {
	res []frameResult
	out []any // engine-side boxed view; unused by run.go itself
	// misses is how many of the last call's frames the backend served.
	misses   int
	keys     []cachestore.Key
	tierOuts []cachestore.Outcome
	// fillFn is fill bound once; detector and frames are the current call's,
	// read by fill; fillFrames, fillDets and fillCosts are its buffers.
	fillFn     cachestore.FillFunc
	detector   detect.BatchDetector
	frames     []int64
	fillFrames []int64
	fillDets   [][]backend.Detection
	fillCosts  []float64
}

// results returns the scratch's result buffer resized to n, growing only
// when capacity is short.
func (s *detectScratch) results(n int) []frameResult {
	if cap(s.res) < n {
		s.res = make([]frameResult, n)
	}
	s.res = s.res[:n]
	for i := range s.res {
		s.res[i] = frameResult{}
	}
	return s.res
}

// fill is the tier's FillFunc for the scratch's current call: the frames no
// tier held go to the backend as one DetectBatch, and the results come back
// in the scratch's reused buffers (the tier reads them only until it
// returns).
func (s *detectScratch) fill(ctx context.Context, miss []int) ([][]backend.Detection, []float64, error) {
	s.fillFrames = s.fillFrames[:0]
	for _, i := range miss {
		s.fillFrames = append(s.fillFrames, s.frames[i])
	}
	outs, err := s.detector.DetectBatch(ctx, s.fillFrames)
	if err != nil {
		return nil, nil, err
	}
	if len(outs) != len(miss) {
		return nil, nil, fmt.Errorf("exsample: detector returned %d results for a %d-frame batch", len(outs), len(miss))
	}
	s.fillDets, s.fillCosts = s.fillDets[:0], s.fillCosts[:0]
	for _, fo := range outs {
		s.fillDets = append(s.fillDets, fo.Dets)
		s.fillCosts = append(s.fillCosts, fo.Cost)
	}
	return s.fillDets, s.fillCosts, nil
}

// newQueryRun builds the full per-query pipeline over a Source: detector,
// SORT-style discriminator, recall curve, report, and the strategy's
// sampling state. cc selects the cache tier memoizing detector output
// across queries, if any (see newDetectStage). Callers are responsible for
// validating q and opts first (Session deliberately accepts queries
// without a stopping condition).
//
// standing selects park-on-exhaustion semantics for live sources: the run
// tolerates an empty active shard set and an empty class population at
// submission (both may arrive with a later append), and exhaustion never
// latches. Standing runs require an elastic topology.
func newQueryRun(s Source, q Query, opts Options, cc cacheConfig, standing bool) (*queryRun, error) {
	if s == nil {
		return nil, fmt.Errorf("exsample: nil Source (open a Dataset or compose a ShardedSource first)")
	}
	src := s.querySource()
	if src == nil {
		return nil, fmt.Errorf("exsample: uninitialized Source — construct it with OpenProfile, Synthesize or NewShardedSource, not as a zero value")
	}
	var snap *shard.Snapshot
	if src.topology != nil {
		snap = src.topology()
		if snap.NumActive() == 0 && !standing {
			return nil, fmt.Errorf("exsample: source %q: %w (every shard is draining or gated; attach one with AddShard first)", src.name, ErrNoActiveShards)
		}
	} else if standing {
		return nil, fmt.Errorf("exsample: standing queries need a live source (a ShardedSource or StreamSource); %q has a fixed topology", src.name)
	}
	total, err := src.groundTruth(q.Class)
	if err != nil {
		return nil, err
	}
	// Elastic sources measure recall against the population the query can
	// actually reach: the shards active right now (later syncs add shards
	// that become active while an elastic run samples).
	var truthSeen []bool
	if snap != nil && src.shardTruth != nil {
		truthSeen = make([]bool, snap.Map.NumShards())
		total = 0
		for i := range truthSeen {
			if snap.ShardActive(i) {
				truthSeen[i] = true
				total += src.shardTruth(q.Class, i)
			}
		}
		if total <= 0 && !standing {
			return nil, fmt.Errorf("exsample: class %q has no instances on any active shard of %q", q.Class, src.name)
		}
	}
	stage, err := newDetectStage(src, q.Class, cc)
	if err != nil {
		return nil, err
	}
	coverage := opts.TrackerCoverage
	if coverage == 0 {
		coverage = 1
	}
	extender, err := src.newExtender(coverage)
	if err != nil {
		return nil, err
	}
	dis, err := discrim.New(extender, opts.IoUThreshold)
	if err != nil {
		return nil, err
	}
	curve, err := metrics.NewRecallCurve(total)
	if err != nil {
		return nil, err
	}
	numFrames := src.numFrames
	if snap != nil {
		numFrames = snap.Map.NumFrames()
	}
	maxFrames := opts.MaxFrames
	if maxFrames == 0 || maxFrames > numFrames {
		maxFrames = numFrames
	}
	r := &queryRun{
		detectStage: stage,
		query:       q,
		opts:        opts,
		dis:         dis,
		curve:       curve,
		aware:       cc.aware && stage.tier != nil,
		snap:        snap,
		elastic:     snap != nil && opts.Strategy == StrategyExSample && opts.NumChunks == 0 && !opts.AutoChunk,
		truthSeen:   truthSeen,
		truthTotal:  total,
		rep:         &Report{Strategy: opts.Strategy},
		maxFrames:   maxFrames,
		standing:    standing,
	}
	if r.pick, err = r.newPicker(); err != nil {
		return nil, err
	}
	return r, nil
}

// numFramesNow returns the repository size under the synced topology
// snapshot (the static source size when the topology is fixed).
func (r *queryRun) numFramesNow() int64 {
	if r.snap != nil {
		return r.snap.Map.NumFrames()
	}
	return r.src.numFrames
}

// syncTopology refreshes the run's view of an elastic source. It is one
// generation compare per pick when nothing changed. When the topology
// moved, the picker syncs (see picker.sync); every other piece of query
// state — discriminator, report, cache keys — is untouched, because the
// global address space is append-only. Unbounded runs also widen their
// frame budget so an attached shard's frames stay reachable.
func (r *queryRun) syncTopology() {
	if r.src.topology == nil {
		return
	}
	snap := r.src.topology()
	if snap.Gen == r.snap.Gen {
		return
	}
	r.snap = snap
	// Re-derive the frame budget against the enlarged repository: an
	// unbounded run tracks the source size, and a bounded run whose
	// MaxFrames exceeded the old size regains headroom up to its bound.
	if grown := snap.Map.NumFrames(); grown > r.maxFrames {
		switch {
		case r.opts.MaxFrames == 0:
			r.maxFrames = grown
		case r.opts.MaxFrames > r.maxFrames:
			r.maxFrames = min(r.opts.MaxFrames, grown)
		}
	}
	// Fold newly reachable shards into the recall denominator: a shard
	// observed active for the first time adds its population (so recall
	// and RecallTarget track the enlarged repository); drains subtract
	// nothing, keeping recall monotonic. Only elastic runs grow — every
	// other picker was built over the original range and can never emit
	// an attached shard's frames, so its denominator stays the population
	// active at start.
	if r.elastic && r.truthSeen != nil {
		n := snap.Map.NumShards()
		for len(r.truthSeen) < n {
			r.truthSeen = append(r.truthSeen, false)
		}
		for i := 0; i < n; i++ {
			if !r.truthSeen[i] && snap.ShardActive(i) {
				r.truthSeen[i] = true
				r.truthTotal += r.src.shardTruth(r.query.Class, i)
			}
		}
		r.curve.SetTotal(r.truthTotal)
	}
	if err := r.pick.sync(snap); err != nil {
		r.err = err
	}
}

// activeFrame reports whether a frame is pickable under the synced
// topology (frames of draining or gated shards are not; fixed topologies
// accept everything). It is the one frame filter every picker's draws pass
// through.
func (r *queryRun) activeFrame(frame int64) bool {
	return r.snap == nil || r.snap.FrameActive(frame)
}

// next draws the next frame from the picker. Chunk is -1 for non-chunked
// strategies. ok is false when the repository is exhausted; for bounded
// runs, once false it stays false (an elastic attach does not resurrect an
// exhausted query — the engine has already finalized it). Standing runs
// never latch: the engine parks them on false and a later append makes
// next productive again, because the sampler's arm set grows at the
// syncTopology that follows the wake. A drawn frame of a draining or gated
// shard (one that straddles a frozen arm's boundary) is discarded
// uncharged and never reaches the picker's feedback.
func (r *queryRun) next() (core.Pick, bool) {
	for r.ready() {
		p, ok, err := r.pick.next()
		switch {
		case err != nil:
			r.err = err
		case !ok:
			r.exhausted = !r.standing
			return core.Pick{}, false
		case r.activeFrame(p.Frame):
			return p, true
		}
	}
	return core.Pick{}, false
}

// ready syncs the topology and reports whether the run can still pick: it
// has neither latched exhaustion nor a pipeline failure.
func (r *queryRun) ready() bool {
	if r.exhausted || r.err != nil {
		return false
	}
	r.syncTopology()
	return r.err == nil
}

// marginalValue estimates the query's expected new results per frame for
// the engine's global budget planner (see picker.value). Topology is
// synced first so a standing query woken by an append values its fresh
// prior arms before the plan is drawn, and a finished or failed query
// values 0 — it has nothing left to claim.
func (r *queryRun) marginalValue() float64 {
	if !r.ready() {
		return 0
	}
	return r.pick.value()
}

// detectBatchInto runs the detector on a batch of frames through the
// caller's reusable scratch, consulting the cross-query cache tier first
// when enabled: hits are resolved locally (or by one remote round trip) and
// only the frames no tier held — as one subsequence, in order — reach the
// backend in a single DetectBatch call, singleflighted against concurrent
// queries missing the same frames. It is safe to call concurrently for
// disjoint batches of the same run, each with its own scratch (the detector
// contract requires concurrency safety; the tier is lock-striped). ctx
// cancels the underlying detector call; the error surfaces to the caller
// with no results applied. The returned slice aliases the scratch and is
// valid until the scratch's next use; scr.misses comes back holding how
// many frames the backend served, the sizer's miss accounting.
func (d *detectStage) detectBatchInto(ctx context.Context, frames []int64, scr *detectScratch) ([]frameResult, error) {
	out := scr.results(len(frames))
	if d.tier == nil {
		// Uncached runs: the whole batch is one detector call, no index
		// indirection.
		outs, err := d.detector.DetectBatch(ctx, frames)
		if err != nil {
			return nil, err
		}
		if len(outs) != len(frames) {
			return nil, fmt.Errorf("exsample: detector returned %d results for a %d-frame batch", len(outs), len(frames))
		}
		for i, fo := range outs {
			out[i] = frameResult{dets: fo.Dets, cost: fo.Cost}
		}
		scr.misses = len(frames)
		return out, nil
	}
	if scr.fillFn == nil {
		scr.fillFn = scr.fill
	}
	scr.keys = scr.keys[:0]
	for _, f := range frames {
		scr.keys = append(scr.keys, cachestore.Key{Content: d.content, Class: d.class, Frame: f})
	}
	scr.detector, scr.frames = d.detector, frames
	res, err := d.tier.FetchBatch(ctx, scr.keys, scr.tierOuts, scr.fillFn)
	scr.detector, scr.frames = nil, nil
	if err != nil {
		return nil, err
	}
	scr.tierOuts = res
	scr.misses = 0
	for i, o := range res {
		out[i] = frameResult{
			dets:   batchwire.PinFrame(frames[i], o.Dets),
			cost:   o.Cost, // 0 for every cached tier
			cached: o.Where != cachestore.TierDetector,
			remote: o.Where == cachestore.TierL2,
		}
		if !out[i].cached {
			scr.misses++
		}
	}
	return out, nil
}

// apply charges the frame's decode and inference cost, feeds the detections
// through the discriminator, grows the report and recall curve, and feeds
// the picker. It must be called in pick order from a single goroutine.
func (r *queryRun) apply(p core.Pick, fr frameResult) (StepInfo, error) {
	if r.err != nil {
		return StepInfo{}, r.err
	}
	rep := r.rep
	rep.DecodeSeconds += r.src.decodeCost(p.Frame)
	rep.DetectSeconds += fr.cost
	r.tally(fr, &rep.CacheHits, &rep.RemoteCacheHits, &rep.CacheMisses)
	rep.FramesProcessed++
	newObjs, secondObjs := r.dis.ObserveObjects(p.Frame, fr.dets)

	info := StepInfo{Frame: p.Frame, Chunk: p.Chunk, SecondSightings: len(secondObjs)}
	var truthIDs []int
	for _, obj := range newObjs {
		det := obj.FirstDetection
		res := Result{
			ObjectID: len(rep.Results),
			Frame:    det.Frame,
			Class:    det.Class,
			Box:      det.Box,
			Score:    det.Score,
		}
		rep.Results = append(rep.Results, res)
		info.New = append(info.New, res)
		truthIDs = append(truthIDs, det.TruthID)
	}
	r.curve.Observe(rep.FramesProcessed, rep.TotalSeconds(), truthIDs)
	if len(truthIDs) > 0 {
		rep.CurveSamples = append(rep.CurveSamples, rep.FramesProcessed)
		rep.CurveSeconds = append(rep.CurveSeconds, rep.TotalSeconds())
		rep.CurveFound = append(rep.CurveFound, r.curve.DistinctFound())
	}
	rep.Recall = r.curve.Recall()

	if err := r.pick.feedback(p.Chunk, newObjs, secondObjs); err != nil {
		return StepInfo{}, err
	}
	return info, nil
}

// step is apply as the engine's round drives it: the applied frame's event
// goes to the bound handle, if any, stamped with the running totals after
// the frame.
func (r *queryRun) step(p core.Pick, fr frameResult) error {
	info, err := r.apply(p, fr)
	if err != nil || r.out == nil {
		return err
	}
	r.out.emit(QueryEvent{
		Frame:           info.Frame,
		Chunk:           info.Chunk,
		New:             info.New,
		SecondSightings: info.SecondSightings,
		FramesProcessed: r.rep.FramesProcessed,
		Found:           len(r.rep.Results),
		Seconds:         r.rep.TotalSeconds(),
	})
	return nil
}

// failure is the pipeline failure the run has latched, if any (see err).
func (r *queryRun) failure() error { return r.err }

// stopRequested reports whether the query's own stopping condition (Limit
// and/or RecallTarget) is satisfied — Session's advisory Done.
func (r *queryRun) stopRequested() bool {
	if r.query.Limit > 0 && len(r.rep.Results) >= r.query.Limit {
		return true
	}
	if r.query.RecallTarget > 0 && r.curve.Recall() >= r.query.RecallTarget {
		return true
	}
	return false
}

// done is the full Search stopping condition: query satisfaction plus the
// frame and charged-time budgets. The Engine finalizes a query when this
// reports true. Standing runs answer with standingDone — the
// repository-size-derived frame budget does not apply to a repository that
// grows while the query is registered.
func (r *queryRun) done() bool {
	if r.standing {
		return r.standingDone()
	}
	if r.stopRequested() {
		return true
	}
	if r.rep.FramesProcessed >= r.maxFrames {
		return true
	}
	if r.opts.MaxSeconds > 0 && r.rep.TotalSeconds() >= r.opts.MaxSeconds {
		return true
	}
	return false
}

// standingDone is the standing query's stopping condition: only explicit,
// user-set bounds count. The repository running dry is a pause (the engine
// parks the query), and the repository-size-derived frame budget that
// terminates a bounded run is meaningless when the repository grows while
// the query is registered.
func (r *queryRun) standingDone() bool {
	if r.stopRequested() {
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
