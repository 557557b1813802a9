package exsample

import (
	"context"
	"fmt"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/cachestore"
	"github.com/exsample/exsample/internal/baseline"
	"github.com/exsample/exsample/internal/batchwire"
	"github.com/exsample/exsample/internal/core"
	"github.com/exsample/exsample/internal/detect"
	"github.com/exsample/exsample/internal/discrim"
	"github.com/exsample/exsample/internal/metrics"
	"github.com/exsample/exsample/internal/shard"
	"github.com/exsample/exsample/internal/track"
	"github.com/exsample/exsample/internal/video"
	"github.com/exsample/exsample/internal/xrand"
)

// queryRun is the incremental step state machine behind Search, Session and
// Engine: pick a frame (next), run the detector (detectBatchInto — the only
// concurrency-safe method), and feed the detections through the
// discriminator, cost accounting and sampler bookkeeping (apply). Driving
// next/detect/apply in a loop IS Algorithm 1 — there is exactly one
// implementation of the pipeline, and every entry point delegates to it,
// which is what keeps Search ≡ Session ≡ Engine for the same seed.
//
// queryRun works over any Source (a local Dataset or a ShardedSource); the
// step machine never learns whether its frames live on one shard or many.
// It also carries the §VII auto-chunking pilot and the BlazeIt-style proxy
// training phase as explicit states, so batching drivers need no special
// cases.
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

	sampler *core.Sampler    // StrategyExSample
	order   video.FrameOrder // other strategies
	home    map[int]int      // HomeChunkAccounting: object id -> discovering chunk

	// snap is the elastic-topology snapshot the run last synced to (nil
	// for sources with a fixed topology). next compares its generation
	// against the source's current snapshot on every pick — one atomic
	// load when nothing changed — and re-fences the sampler when the
	// topology moved, so belief state carries across shard churn instead
	// of restarting. elastic is true only when the sampler's arms are the
	// source's native global chunks (custom layouts — NumChunks, AutoChunk
	// — cannot map a shard drain onto their arms and freeze the topology
	// they started with).
	snap    *shard.Snapshot
	elastic bool
	// truthSeen and truthTotal implement reachable-population recall for
	// elastic sources: truthSeen[i] is set once shard i has been observed
	// active by this query, and truthTotal sums those shards' class
	// populations — the recall denominator. An attached shard grows the
	// denominator at the sync that makes it samplable; a shard attached
	// and drained without ever being seen active contributes nothing, and
	// a drain never shrinks it (recall stays monotonic). nil/0 for fixed
	// topologies, which use the source-wide population.
	truthSeen  []bool
	truthTotal int

	// AutoChunk (§VII) pilot state: coarse is non-nil while the pilot
	// phase is sampling the coarse layout; once pilotBudget frames have
	// been processed the sampler is rebuilt on the adaptive layout.
	coarse      []video.Chunk
	pilotBudget int64

	// Proxy training (§II-B) state: while training is true, frames come
	// from trainOrder and every frame discovering a new object counts as
	// a collected label. The phase resolves into the scored scan order
	// (enough labels) or the random fallback (budget exhausted).
	training    bool
	trainNeed   int
	trainBudget int64
	trainSpent  int64
	trainOrder  *video.UniformOrder

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
	// that become active while the query runs). Frozen-layout sampler runs
	// (NumChunks, AutoChunk) keep the classic source-wide denominator —
	// they never fence draining shards, so every shard stays reachable.
	var truthSeen []bool
	frozen := opts.Strategy == StrategyExSample && (opts.NumChunks > 0 || opts.AutoChunk)
	if snap != nil && src.shardTruth != nil && !frozen {
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
		truthSeen:   truthSeen,
		truthTotal:  total,
		rep:         &Report{Strategy: opts.Strategy},
		maxFrames:   maxFrames,
		standing:    standing,
	}
	if err := r.initStrategy(); err != nil {
		return nil, err
	}
	return r, nil
}

// newSampler builds a core sampler over the given chunks with the
// configured policy, within-chunk order and optional §VII fusion (scoring
// charged per chunk on first visit into rep.ScanSeconds).
func (r *queryRun) newSampler(chunks []video.Chunk, seed uint64) (*core.Sampler, error) {
	cfg := core.Config{
		Alpha0: r.opts.Alpha0,
		Beta0:  r.opts.Beta0,
		Policy: r.opts.Policy.toCore(),
		Within: core.WithinRandomPlus,
		Seed:   seed,
	}
	if r.opts.UniformWithinChunk {
		cfg.Within = core.WithinUniform
	}
	if r.aware {
		// Cache-aware tie-breaking: the per-chunk cached fraction comes
		// from the tier L1's presence index — an O(chunk frames / bucket
		// width) read consulted only when Thompson draws actually tie, so
		// the signal is effectively free.
		cfg.CachedFrac = func(j int) float64 {
			c := chunks[j]
			n := c.Len()
			if n <= 0 {
				return 0
			}
			frac := float64(r.tier.CountRange(r.content, r.query.Class, c.Start, c.End)) / float64(n)
			if frac > 1 {
				frac = 1 // presence buckets are coarse; clamp the estimate
			}
			return frac
		}
	}
	if r.opts.FuseProxyWithinChunk {
		quality := r.opts.ProxyQuality
		if quality == 0 {
			quality = 1
		}
		score, err := r.src.newScorer(r.query.Class, quality, r.opts.Seed^0xbead)
		if err != nil {
			return nil, err
		}
		cfg.Within = core.WithinScored
		cfg.Scorer = score
		// Per-chunk scoring is charged on first visit — the fusion's whole
		// point is avoiding the full-dataset scan.
		cfg.OnChunkOpen = func(j int) {
			r.rep.ScanSeconds += r.src.scanSeconds(chunks[j].Start, chunks[j].End)
		}
	}
	return core.New(chunks, cfg)
}

// numFramesNow returns the repository size under the synced topology
// snapshot (the static source size when the topology is fixed).
func (r *queryRun) numFramesNow() int64 {
	if r.snap != nil {
		return r.snap.Map.NumFrames()
	}
	return r.src.numFrames
}

// initStrategy builds the frame-picking state for the configured strategy.
func (r *queryRun) initStrategy() error {
	src := r.src
	opts := r.opts
	switch opts.Strategy {
	case StrategyExSample:
		if opts.AutoChunk {
			return r.initAutoChunk()
		}
		chunks := src.chunks
		if r.snap != nil {
			chunks = r.snap.Map.Chunks()
		}
		if opts.NumChunks > 0 {
			var err error
			chunks, err = video.SplitRange(0, r.numFramesNow(), opts.NumChunks)
			if err != nil {
				return err
			}
		} else if r.snap != nil {
			// Native global chunks: arm j IS global chunk j, so topology
			// changes map directly onto sampler arms and the run follows
			// shard churn live.
			r.elastic = true
		}
		sampler, err := r.newSampler(chunks, opts.Seed)
		if err != nil {
			return err
		}
		if r.elastic {
			// A shard already draining when the query starts is fenced
			// from the first pick.
			for j := range chunks {
				if !r.snap.ChunkActive(j) {
					if err := sampler.SetEnabled(j, false); err != nil {
						return err
					}
				}
			}
		}
		r.sampler = sampler
		if opts.HomeChunkAccounting {
			r.home = make(map[int]int)
		}
	case StrategyRandom:
		order, err := video.NewUniformOrder(0, r.numFramesNow(), xrand.New(opts.Seed))
		if err != nil {
			return err
		}
		r.order = order
	case StrategyRandomPlus:
		hour := int64(src.fps * 3600)
		order, err := video.NewRandomPlusOrder(0, r.numFramesNow(), hour, xrand.New(opts.Seed))
		if err != nil {
			return err
		}
		r.order = order
	case StrategySequential:
		order, err := video.NewSequentialOrder(0, r.numFramesNow(), 1)
		if err != nil {
			return err
		}
		r.order = order
	case StrategyProxy:
		if opts.ProxyTrainPositives > 0 {
			return r.initProxyTraining()
		}
		return r.enterProxyScan()
	default:
		return fmt.Errorf("exsample: step loop does not support strategy %v", opts.Strategy)
	}
	return nil
}

// initAutoChunk starts the §VII "automating chunking" pilot: a coarse
// layout whose statistics decide the adaptive re-chunking.
func (r *queryRun) initAutoChunk() error {
	numFrames := r.numFramesNow()
	coarseM := 16
	if numFrames < int64(coarseM)*4 {
		coarseM = 1
	}
	coarse, err := video.SplitRange(0, numFrames, coarseM)
	if err != nil {
		return err
	}
	sampler, err := r.newSampler(coarse, r.opts.Seed)
	if err != nil {
		return err
	}
	// The pilot needs enough samples to rank coarse chunks but should stay
	// a small fraction of the work.
	pilot := int64(12 * coarseM)
	if pilot > numFrames/4 {
		pilot = numFrames / 4
	}
	if pilot < 1 {
		pilot = 1
	}
	r.sampler = sampler
	r.coarse = coarse
	r.pilotBudget = pilot
	return nil
}

// rechunk ends the pilot: each coarse chunk is re-split proportionally to
// its pilot point estimate and the search resumes on the adaptive layout
// with a fresh sampler. The discriminator and report persist across the
// transition, so objects found during the pilot are never double-counted.
func (r *queryRun) rechunk() error {
	fine := adaptiveChunks(r.sampler, r.coarse, 128)
	sampler, err := r.newSampler(fine, r.opts.Seed+0x5eed)
	if err != nil {
		return err
	}
	r.sampler = sampler
	r.coarse = nil
	return nil
}

// adaptiveChunks splits each coarse chunk into a number of sub-chunks
// proportional to its pilot point estimate, spending ~budget chunks total.
// Every coarse chunk keeps at least one sub-chunk so no region becomes
// unreachable.
func adaptiveChunks(pilot *core.Sampler, coarse []video.Chunk, budget int) []video.Chunk {
	weights := make([]float64, len(coarse))
	var total float64
	for j := range coarse {
		weights[j] = pilot.PointEstimate(j)
		total += weights[j]
	}
	var out []video.Chunk
	for j, c := range coarse {
		k := 1
		if total > 0 {
			k = int(float64(budget)*weights[j]/total + 0.5)
		}
		if k < 1 {
			k = 1
		}
		if int64(k) > c.Len() {
			k = int(c.Len())
		}
		subs, err := video.SplitRange(c.Start, c.End, k)
		if err != nil {
			// Cannot happen for k in [1, len]; keep the coarse chunk.
			subs = []video.Chunk{c}
		}
		out = append(out, subs...)
	}
	for i := range out {
		out[i].ID = i
	}
	return out
}

// initProxyTraining starts the BlazeIt-style label-collection phase
// (§II-B): random frames run the real detector until enough positives are
// found or the budget runs out.
func (r *queryRun) initProxyTraining() error {
	budget := r.opts.ProxyTrainBudget
	if budget == 0 {
		budget = r.numFramesNow() / 50
		if budget < int64(r.opts.ProxyTrainPositives) {
			budget = int64(r.opts.ProxyTrainPositives)
		}
	}
	order, err := video.NewUniformOrder(0, r.numFramesNow(), xrand.New(r.opts.Seed^0x7ea1))
	if err != nil {
		return err
	}
	r.training = true
	r.trainNeed = r.opts.ProxyTrainPositives
	r.trainBudget = budget
	r.trainOrder = order
	return nil
}

// enterProxyScan resolves the proxy strategy into its scored scan order,
// charging the full upfront scoring pass (§II-B).
func (r *queryRun) enterProxyScan() error {
	quality := r.opts.ProxyQuality
	if quality == 0 {
		quality = 1
	}
	score, err := r.src.newScorer(r.query.Class, quality, r.opts.Seed^0xbead)
	if err != nil {
		return err
	}
	order, err := baseline.NewProxyOrderFunc(score, 0, r.numFramesNow(), r.opts.ProxyDupRadius)
	if err != nil {
		return err
	}
	// The scan is paid in full before the first post-scan detector call.
	r.rep.ScanSeconds = r.src.scanSeconds(0, r.numFramesNow())
	r.order = order
	r.training = false
	return nil
}

// syncTopology refreshes the run's view of an elastic source. It is one
// generation compare per pick when nothing changed. When the topology
// moved, the sampler (native-chunk runs only) gains fresh prior arms for
// chunks that appeared and fences arms whose shard is draining; every
// other piece of query state — per-chunk statistics, discriminator,
// report, cache keys — is untouched, because the global address
// space is append-only. Unbounded runs also widen their frame budget so
// an attached shard's frames stay reachable.
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
	// nothing, keeping recall monotonic. Only elastic sampler runs grow —
	// order strategies filter draining frames but their orders were built
	// over the original range and can never emit an attached shard's
	// frames, so their denominator stays the population active at start.
	if r.elastic && r.truthSeen != nil && r.src.shardTruth != nil {
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
	if !r.elastic || r.sampler == nil {
		return
	}
	chunks := snap.Map.Chunks()
	if n := r.sampler.NumChunks(); len(chunks) > n {
		if err := r.sampler.Append(chunks[n:]); err != nil {
			r.err = err
			return
		}
	}
	for j := range chunks {
		if err := r.sampler.SetEnabled(j, snap.ChunkActive(j)); err != nil {
			r.err = err
			return
		}
	}
}

// activeFrame reports whether a frame is pickable under the synced
// topology (frames of draining shards are not; fixed topologies accept
// everything).
func (r *queryRun) activeFrame(frame int64) bool {
	return r.snap == nil || r.snap.FrameActive(frame)
}

// next draws the next frame from the strategy's order. Chunk is -1 for
// non-chunked strategies. ok is false when the repository is exhausted;
// for bounded runs, once false it stays false (an elastic attach does not
// resurrect an exhausted query — the engine has already finalized it).
// Standing runs never latch: the engine parks them on false and a later
// append makes next productive again, because the sampler's arm set grows
// at the syncTopology that follows the wake.
func (r *queryRun) next() (pick core.Pick, ok bool) {
	if r.exhausted || r.err != nil {
		return core.Pick{}, false
	}
	r.syncTopology()
	if r.err != nil {
		return core.Pick{}, false
	}
	if r.training {
		for r.trainNeed > 0 && r.trainSpent < r.trainBudget {
			frame, ook := r.trainOrder.Next()
			if !ook {
				// The whole repository was consumed as training frames.
				r.exhausted = true
				return core.Pick{}, false
			}
			if !r.activeFrame(frame) {
				// Draining shard: the frame is fenced, not charged.
				continue
			}
			r.trainSpent++
			return core.Pick{Frame: frame, Chunk: -1}, true
		}
		if r.training {
			// Budget exhausted without enough labels: degrade to plain
			// random sampling, continuing the training order so frames do
			// not repeat (BlazeIt's rare-class fallback, §II-B). No scan
			// is charged.
			r.training = false
			r.order = r.trainOrder
		}
	}
	if r.sampler != nil {
		if r.coarse != nil && r.rep.FramesProcessed >= r.pilotBudget {
			if err := r.rechunk(); err != nil {
				r.err = err
				return core.Pick{}, false
			}
		}
		p, sok := r.sampler.Next()
		if !sok {
			// A pilot sampler can exhaust before its budget on tiny
			// repositories; resume on the adaptive layout.
			if r.coarse != nil {
				if err := r.rechunk(); err != nil {
					r.err = err
					return core.Pick{}, false
				}
				if p, sok = r.sampler.Next(); sok {
					return p, true
				}
			}
			if !r.standing {
				r.exhausted = true
			}
			return core.Pick{}, false
		}
		return p, true
	}
	for {
		frame, ook := r.order.Next()
		if !ook {
			if !r.standing {
				r.exhausted = true
			}
			return core.Pick{}, false
		}
		if !r.activeFrame(frame) {
			// Draining shard: skip the frame without charging anything.
			continue
		}
		return core.Pick{Frame: frame, Chunk: -1}, true
	}
}

// marginalValue estimates the query's expected new results per frame for
// the engine's global budget planner: the best enabled arm's prior-smoothed
// point estimate under ExSample, or a whole-run aggregate belief for
// non-chunked strategies (results over frames, smoothed by the same paper
// prior, so an untouched query starts at the prior exactly like a fresh
// sampler). Topology is synced first so a standing query woken by an
// append values its fresh prior arms before the plan is drawn, and a
// finished or failed query values 0 — it has nothing left to claim.
func (r *queryRun) marginalValue() float64 {
	if r.exhausted || r.err != nil {
		return 0
	}
	r.syncTopology()
	if r.err != nil {
		return 0
	}
	if r.sampler != nil {
		return r.sampler.MaxPointEstimate()
	}
	return (float64(len(r.rep.Results)) + core.DefaultAlpha0) /
		(float64(r.rep.FramesProcessed) + core.DefaultBeta0)
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
// through the discriminator, grows the report and recall curve, and updates
// the sampler's chunk statistics. It must be called in pick order from a
// single goroutine.
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

	if r.training && len(newObjs) > 0 {
		// A frame containing the class is one collected label; enough
		// labels resolve the phase into the scored scan immediately (the
		// scan is charged even if the query is already satisfied, exactly
		// like the monolithic pipeline did).
		r.trainNeed--
		if r.trainNeed <= 0 {
			if err := r.enterProxyScan(); err != nil {
				return StepInfo{}, err
			}
		}
	}

	if r.sampler != nil {
		if err := r.feedback(p.Chunk, newObjs, secondObjs); err != nil {
			return StepInfo{}, err
		}
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

// feedback applies the (d0, d1) split to the sampler, using the technical
// report's cross-chunk accounting when enabled: the -1 of a second sighting
// is charged to the chunk where the object was discovered.
func (r *queryRun) feedback(chunk int, newObjs, secondObjs []*discrim.Object) error {
	if r.home == nil {
		return r.sampler.Update(chunk, len(newObjs), len(secondObjs))
	}
	for _, o := range newObjs {
		r.home[o.ID] = chunk
	}
	if err := r.sampler.Update(chunk, len(newObjs), 0); err != nil {
		return err
	}
	for _, o := range secondObjs {
		hc, ok := r.home[o.ID]
		if !ok {
			hc = chunk
		}
		if err := r.sampler.Adjust(hc, -1); err != nil {
			return err
		}
	}
	return nil
}

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
