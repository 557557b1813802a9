package exsample

import (
	"fmt"

	"github.com/exsample/exsample/internal/baseline"
	"github.com/exsample/exsample/internal/core"
	"github.com/exsample/exsample/internal/discrim"
	"github.com/exsample/exsample/internal/shard"
	"github.com/exsample/exsample/internal/video"
	"github.com/exsample/exsample/internal/xrand"
)

// picker is a run's strategy: which frame comes next, and what the
// discriminator's verdict on an applied frame teaches it. A queryRun holds
// exactly one, chosen once by newPicker; discrimination, cost accounting,
// stopping and publication are the same for every strategy.
//
// The implementations cover the paper's method, its baselines and the §VII
// extensions: thompsonPicker (ExSample over an elastic source's native
// chunks), frozenPicker (over a layout frozen at submission), homePicker (HomeChunkAccounting around
// either), autoChunkPicker (the pilot, then the adaptive layout),
// orderPicker (Random, Random+, Sequential) and proxyPicker (BlazeIt's
// training phase, then the scored scan or the random fallback).
type picker interface {
	// next draws the next frame (Chunk -1 for non-chunked pickers). ok is
	// false when the picker has nothing left to draw; err reports a
	// pipeline rebuild failure, which the run latches.
	next() (p core.Pick, ok bool, err error)
	// feedback reports an applied frame's (d0, d1) split: the objects it
	// discovered and the objects it saw for the second time.
	feedback(chunk int, newObjs, secondObjs []*discrim.Object) error
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
		if opts.AutoChunk {
			return r.newAutoChunk()
		}
		chunks := r.src.chunks
		if r.snap != nil {
			chunks = r.snap.Map.Chunks()
		}
		if opts.NumChunks > 0 {
			if chunks, err = video.SplitRange(0, n, opts.NumChunks); err != nil {
				return nil, err
			}
		}
		s, err := r.newSampler(chunks, opts.Seed)
		if err != nil {
			return nil, err
		}
		var p picker = frozenPicker{thompsonPicker{s}}
		if r.elastic {
			p = thompsonPicker{s}
		}
		if opts.HomeChunkAccounting {
			p = homePicker{p, make(map[int]int)}
		}
		return r.fenced(p)
	case StrategyRandom:
		order, err = video.NewUniformOrder(0, n, xrand.New(opts.Seed))
	case StrategyRandomPlus:
		order, err = video.NewRandomPlusOrder(0, n, int64(r.src.fps*3600), xrand.New(opts.Seed))
	case StrategySequential:
		order, err = video.NewSequentialOrder(0, n, 1)
	case StrategyProxy:
		p := &proxyPicker{orderPicker: orderPicker{rep: r.rep}, scan: r.proxyScan}
		if opts.ProxyTrainPositives == 0 {
			p.order, err = r.proxyScan()
			return p, err
		}
		p.need, p.budget = opts.ProxyTrainPositives, opts.ProxyTrainBudget
		if p.budget == 0 {
			p.budget = max(n/50, int64(opts.ProxyTrainPositives))
		}
		p.order, err = video.NewUniformOrder(0, n, xrand.New(opts.Seed^0x7ea1))
		return p, err
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
		score, err := r.src.newScorer(r.query.Class, r.proxyQuality(), r.opts.Seed^0xbead)
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

// proxyQuality is the configured proxy score fidelity (1 when unset).
func (r *queryRun) proxyQuality() float64 {
	if r.opts.ProxyQuality == 0 {
		return 1
	}
	return r.opts.ProxyQuality
}

// proxyScan builds the proxy's scored scan order over the repository,
// charging the full upfront scoring pass (§II-B): the scan is paid before
// the first post-scan detector call.
func (r *queryRun) proxyScan() (video.FrameOrder, error) {
	score, err := r.src.newScorer(r.query.Class, r.proxyQuality(), r.opts.Seed^0xbead)
	if err != nil {
		return nil, err
	}
	order, err := baseline.NewProxyOrderFunc(score, 0, r.numFramesNow(), r.opts.ProxyDupRadius)
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

func (t thompsonPicker) feedback(chunk int, newObjs, secondObjs []*discrim.Object) error {
	return t.s.Update(chunk, len(newObjs), len(secondObjs))
}

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
// a custom one (NumChunks, or AutoChunk's), or any layout over a fixed
// topology. Custom arms cannot map onto shards one to one, so a topology
// change only fences, and an arm straddling a draining shard's boundary
// relies on the run's frame filter.
type frozenPicker struct{ thompsonPicker }

func (f frozenPicker) sync(snap *shard.Snapshot) error { return f.fence(snap) }

// homePicker applies the technical report's cross-chunk accounting
// (HomeChunkAccounting): the -1 of a second sighting is charged to the
// chunk where the object was discovered, which home records by object id.
type homePicker struct {
	picker
	home map[int]int
}

func (h homePicker) feedback(chunk int, newObjs, secondObjs []*discrim.Object) error {
	s := h.belief()
	for _, o := range newObjs {
		h.home[o.ID] = chunk
	}
	if err := s.Update(chunk, len(newObjs), 0); err != nil {
		return err
	}
	for _, o := range secondObjs {
		hc, ok := h.home[o.ID]
		if !ok {
			hc = chunk
		}
		if err := s.Adjust(hc, -1); err != nil {
			return err
		}
	}
	return nil
}

// autoChunkPicker is the §VII "automating chunking" pilot: a coarse
// layout whose statistics, once pilot frames have been applied, decide the
// adaptive re-chunking the rest of the run samples.
type autoChunkPicker struct {
	frozenPicker
	r *queryRun
	// coarse is the pilot layout, nil once the run has re-chunked.
	coarse         []video.Chunk
	pilot, applied int64
}

// newAutoChunk starts the pilot on 16 coarse chunks (1 for repositories
// under 64 frames).
func (r *queryRun) newAutoChunk() (picker, error) {
	n := r.numFramesNow()
	coarseM := 16
	if n < int64(coarseM)*4 {
		coarseM = 1
	}
	coarse, err := video.SplitRange(0, n, coarseM)
	if err != nil {
		return nil, err
	}
	s, err := r.newSampler(coarse, r.opts.Seed)
	if err != nil {
		return nil, err
	}
	// The pilot needs enough samples to rank coarse chunks but should stay
	// a small fraction of the work.
	pilot := max(min(int64(12*coarseM), n/4), 1)
	return r.fenced(&autoChunkPicker{frozenPicker: frozenPicker{thompsonPicker{s}}, r: r, coarse: coarse, pilot: pilot})
}

func (a *autoChunkPicker) next() (core.Pick, bool, error) {
	if a.coarse != nil && a.applied >= a.pilot {
		if err := a.rechunk(); err != nil {
			return core.Pick{}, false, err
		}
	}
	p, ok := a.s.Next()
	if !ok && a.coarse != nil {
		// A pilot sampler can exhaust before its budget on tiny
		// repositories; resume on the adaptive layout.
		if err := a.rechunk(); err != nil {
			return core.Pick{}, false, err
		}
		p, ok = a.s.Next()
	}
	return p, ok, nil
}

// rechunk ends the pilot: each coarse chunk is re-split proportionally to
// its pilot point estimate and the search resumes on the adaptive layout
// with a fresh sampler, fenced against the current topology. The
// discriminator and report persist across the transition, so objects found
// during the pilot are never double-counted.
func (a *autoChunkPicker) rechunk() error {
	s, err := a.r.newSampler(adaptiveChunks(a.s, a.coarse, 128), a.r.opts.Seed+0x5eed)
	if err != nil {
		return err
	}
	a.s, a.coarse = s, nil
	_, err = a.r.fenced(a)
	return err
}

func (a *autoChunkPicker) feedback(chunk int, newObjs, secondObjs []*discrim.Object) error {
	a.applied++
	return a.frozenPicker.feedback(chunk, newObjs, secondObjs)
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

// orderPicker walks a fixed frame order: the Random, Random+ and
// Sequential baselines. Its orders cover the repository as it was at
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

func (o *orderPicker) feedback(int, []*discrim.Object, []*discrim.Object) error { return nil }

// value is a whole-run aggregate belief: results over frames, smoothed by
// the paper's prior, so an untouched query starts at the prior exactly
// like a fresh sampler.
func (o *orderPicker) value() float64 {
	return (float64(len(o.rep.Results)) + core.DefaultAlpha0) /
		(float64(o.rep.FramesProcessed) + core.DefaultBeta0)
}

func (o *orderPicker) sync(*shard.Snapshot) error { return nil }

func (o *orderPicker) belief() *core.Sampler { return nil }

// proxyPicker is the BlazeIt proxy baseline (§II-B). With a training
// requirement it first walks a random order with the real detector,
// counting each applied frame that discovers a new distinct object as one
// collected label. Enough labels switch it to the scored scan order (the
// scan is charged even if the query is already satisfied); a spent budget
// leaves it on the random order, which continues so no frame repeats —
// BlazeIt's rare-class fallback, with no scan charged.
type proxyPicker struct {
	orderPicker
	// need counts labels still to collect; training lasts while need > 0
	// and fewer than budget frames have been applied.
	need          int
	spent, budget int64
	scan          func() (video.FrameOrder, error)
}

func (p *proxyPicker) feedback(_ int, newObjs, _ []*discrim.Object) error {
	if p.need <= 0 || p.spent >= p.budget {
		return nil
	}
	p.spent++
	if len(newObjs) == 0 {
		return nil
	}
	if p.need--; p.need > 0 {
		return nil
	}
	order, err := p.scan()
	if err != nil {
		return err
	}
	p.order = order
	return nil
}
