package exsample

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/exsample/exsample/cachestore"
	"github.com/exsample/exsample/internal/core"
	"github.com/exsample/exsample/internal/engine"
	"github.com/exsample/exsample/internal/sizer"
)

// EngineOptions configures a concurrent query engine.
type EngineOptions struct {
	// Workers bounds concurrent DetectBatch calls across every query the
	// engine is running. Any value <= 0 selects the default, NumCPU — the
	// defaulting rule for both sizing knobs is "non-positive means
	// default", so a config file's zero value and a sentinel -1 behave
	// identically. This is the knob that models
	// the shared GPU budget: however many queries are in flight, at most
	// Workers inference batches — one per (query, shard-affinity) group
	// per round, each up to FramesPerRound frames — are outstanding at
	// once. Frames within a batch are the backend's to parallelize, like a
	// GPU batch; concurrency across queries and shards comes from the
	// pool.
	Workers int
	// FramesPerRound is each query's detector quota per scheduling round.
	// Any value <= 0 selects the default, 1 (the same "non-positive means
	// default" rule as Workers). Every active query receives the same quota, which makes
	// scheduling fair-share. Values above 1 trade scheduling freshness for
	// bigger inference batches, with exactly the semantics of Search's
	// BatchSize (§III-F): a round's picks are drawn before any of its
	// updates are applied.
	FramesPerRound int
	// EventBuffer is the per-query capacity of the Events channel
	// (default 256). When a consumer falls behind, further events are
	// dropped (counted by QueryHandle.Dropped) rather than stalling the
	// engine; the final Report is always complete.
	EventBuffer int
	// CacheEntries, when positive, enables a bounded cross-query memo
	// cache of roughly this many detector outputs keyed by (source,
	// class, frame). Overlapping queries stop paying for duplicate
	// inference: a hit is charged decode-only cost, and concurrent misses
	// on the same frame are singleflighted — one query pays for the
	// detector call, the others merge its result at zero cost. Results
	// stay byte-identical to an uncached run for the same seed — only
	// charged costs change (and, for MaxSeconds-budgeted queries, how many
	// frames the budget buys).
	CacheEntries int
	// AdaptiveRounds opts every query into feedback-controlled round
	// sizing: an AIMD controller per (query, backend) grows the per-round
	// detector quota from FramesPerRound toward the backend's
	// Hints.MaxBatch while observed batch latency stays flat, and shrinks
	// it multiplicatively when latency inflates (queueing) or a routed
	// backend's circuit breaker opens (capacity loss). Larger rounds mean
	// fewer, bigger inference batches — exactly Search's BatchSize
	// trade-off (§III-F), picked live instead of up front.
	//
	// Default off: the static engine stays byte-identical to
	// Dataset.Search with BatchSize = FramesPerRound. With adaptive
	// sizing on, the quota schedule (and therefore the pick sequence)
	// depends on measured latency, so reports are reproducible only
	// against the same latency trace; the controller itself is a pure
	// state machine over its observations (see internal/sizer).
	AdaptiveRounds bool
	// RemoteCache, when non-nil, composes the memo cache with a shared
	// remote result tier (normally an httpcache.Client pointed at a fleet
	// cache server) as its L2: lookups go local-first, remote hits write
	// through locally, detector fills write through remotely, and
	// concurrent identical misses stay singleflighted to one detector
	// call. Cache keys switch from the per-process source id to the
	// source's content address, so entries survive restarts and are
	// shared across every process that opened the same data — the second
	// user of a popular video queries it at interactive speed.
	// CacheEntries sizes the local L1 (defaulting to 65536 entries when
	// left zero with a remote tier configured). Results for a fixed seed
	// stay byte-identical to an uncached run; only charged costs change.
	// A failing remote degrades to misses (see cachestore.TierStats) and
	// never fails a query. The content address ignores an attached
	// WithBackend detector: datasets of one spec with different detectors
	// share entries, so give each detector its own remote tier.
	RemoteCache cachestore.Store
	// GlobalBudget, when positive, replaces fair-share scheduling with one
	// engine-level frames-per-round budget divided across the active
	// queries by marginal value — each query's expected new results per
	// frame, read off its Thompson beliefs (the arg-max arm's
	// prior-smoothed point estimate, Eq. III.1). Hot queries get more
	// frames, nearly exhausted ones decay toward one frame per round
	// (the floor every active query is granted, which keeps a zero-value
	// query draining its repository instead of starving), and a
	// standing query that just woke re-enters at its prior belief.
	// FramesPerRound (or, under AdaptiveRounds, the AIMD controller's
	// live quota) becomes each query's per-round *cap*: the budget
	// decides who deserves frames, the cap bounds how many one query's
	// batch may carry. A single query — or any fleet of queries with
	// identical beliefs — receives exactly its fair share, so seeded
	// reports stay byte-identical to the fair-share scheduler whenever
	// the budget covers the fleet's caps.
	GlobalBudget int
}

func (o EngineOptions) withDefaults() EngineOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.FramesPerRound <= 0 {
		o.FramesPerRound = 1
	}
	if o.EventBuffer == 0 {
		o.EventBuffer = 256
	}
	if o.RemoteCache != nil && o.CacheEntries <= 0 {
		o.CacheEntries = 1 << 16
	}
	if o.GlobalBudget < 0 {
		o.GlobalBudget = 0
	}
	return o
}

// Validate reports an error for out-of-range engine options. The sizing
// knobs (Workers, FramesPerRound) are never out of range: any
// non-positive value selects the documented default.
func (o EngineOptions) Validate() error {
	if o.EventBuffer < 0 {
		return fmt.Errorf("exsample: negative EventBuffer %d", o.EventBuffer)
	}
	if o.CacheEntries < 0 {
		return fmt.Errorf("exsample: negative CacheEntries %d", o.CacheEntries)
	}
	return nil
}

// Engine runs many distinct-object queries concurrently — across one or
// more open Datasets — multiplexing their detector invocations onto one
// bounded worker pool. Each query keeps its own Thompson-sampling state,
// discriminator and report; the engine owns only scheduling: in every round
// each active query proposes its quota of frames, the union runs on the
// pool as one inference batch, and results are applied per query in pick
// order on a single goroutine.
//
// Determinism is preserved: a query submitted with a fixed seed produces
// exactly the same Report as Dataset.Search with the same Query and
// Options (plus BatchSize equal to the engine's FramesPerRound), whatever
// Workers is and whatever else the engine is running — the worker pool
// parallelizes only the stateless detector, never the bookkeeping.
//
// Engine is safe for concurrent use.
type Engine struct {
	opts  EngineOptions
	inner *engine.Engine
	memo  *cachestore.Local
	// tier is the one cached detect path (non-nil whenever memo is): the
	// memo cache is its L1, and RemoteCache, when set, its L2.
	tier *cachestore.Tiered
	// quota aggregates adaptive round-sizing adjustments across every
	// AdaptiveRounds query (all zeros when the option is off).
	quota sizer.Counters
}

// NewEngine starts an engine. Callers must Close it to release the
// scheduler and worker goroutines.
func NewEngine(opts EngineOptions) (*Engine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	e := &Engine{
		opts: opts,
		inner: engine.New(engine.Config{
			Workers:        opts.Workers,
			FramesPerRound: opts.FramesPerRound,
			GlobalBudget:   opts.GlobalBudget,
		}),
	}
	if opts.CacheEntries > 0 {
		// withDefaults guarantees the memo cache exists under a RemoteCache.
		e.memo = cachestore.NewLocal(opts.CacheEntries)
		e.tier = cachestore.NewTiered(e.memo, opts.RemoteCache)
	}
	return e, nil
}

// cacheCfg is the cache wiring handed to every run this engine creates.
func (e *Engine) cacheCfg() cacheConfig {
	return cacheConfig{tier: e.tier, shared: e.opts.RemoteCache != nil}
}

// Workers returns the engine's detector concurrency bound.
func (e *Engine) Workers() int { return e.opts.Workers }

// CacheStats reports the shared memo cache's counters; the zero value is
// returned when the cache is disabled.
type CacheStats = cachestore.Stats

// CacheStats snapshots the engine's shared detector memo cache. Every
// frame a cached query looks up counts once: a hit when the memo cache
// held it, a miss otherwise.
func (e *Engine) CacheStats() CacheStats {
	if e.memo == nil {
		return CacheStats{}
	}
	// The tier's L1 counters, not the memo's own: a fill leader re-reads
	// the memo cache before detecting, which would count its misses twice.
	ts, st := e.tier.Stats(), e.memo.Stats()
	return CacheStats{Hits: ts.L1Hits, Misses: ts.L1Misses, Evictions: st.Evictions, Entries: st.Entries}
}

// EngineStats reports aggregate scheduler counters.
type EngineStats struct {
	// Rounds is the number of completed scheduling rounds.
	Rounds int64
	// DetectCalls is the number of detector frames dispatched to the pool
	// (memo-cache hits included — the scheduler dispatches them the same;
	// the hit is resolved inside the batch).
	DetectCalls int64
	// Batches is the number of DetectBatch group calls issued: one per
	// (query, shard-affinity) group per round, however many frames the
	// group carried. Batches ≤ DetectCalls; the ratio is the realized
	// inference batch size.
	Batches int64
	// QuotaGrows and QuotaShrinks count adaptive round-quota adjustments
	// across every AdaptiveRounds query's AIMD controllers (one per
	// backend key): additive increases while batch latency stays flat,
	// multiplicative decreases on latency inflation or capacity loss.
	// Both are 0 when AdaptiveRounds is off.
	QuotaGrows, QuotaShrinks int64
	// CapacityLosses counts the shrinks (or shrink attempts at the floor)
	// forced by a backend circuit breaker opening mid-run: each open edge
	// shrinks every controller of the query, and counts once per
	// controller (once when the query has observed no batch yet).
	CapacityLosses int64
	// PeakQuota is the largest per-round quota any adaptive query reached
	// (0 when AdaptiveRounds is off; at least FramesPerRound otherwise).
	PeakQuota int64
	// Parks and Wakes count standing-query lifecycle transitions: a park
	// is a standing query going dormant after a round in which it had
	// nothing to propose, a wake is a dormant query re-entering the
	// schedule (on append or cancellation). Both are 0 when no standing
	// query was ever submitted.
	Parks, Wakes int64
	// BudgetGranted and BudgetRequested account for the global
	// marginal-value allocator (both 0 when GlobalBudget is off).
	// BudgetGranted sums the frames the planner actually granted across
	// all rounds and queries; BudgetRequested sums the per-round caps the
	// same queries would have received under fair-share. Their ratio is
	// the scheduling pressure: well below 1 means the budget is the
	// binding constraint and frames are being steered by marginal value.
	BudgetGranted, BudgetRequested int64
}

// Stats snapshots the engine's scheduler counters.
func (e *Engine) Stats() EngineStats {
	rounds, detects, batches := e.inner.Counters()
	parks, wakes := e.inner.ParkCounters()
	granted, requested := e.inner.BudgetCounters()
	return EngineStats{
		Rounds:          rounds,
		DetectCalls:     detects,
		Batches:         batches,
		QuotaGrows:      e.quota.Grows.Load(),
		QuotaShrinks:    e.quota.Shrinks.Load(),
		CapacityLosses:  e.quota.CapacityLosses.Load(),
		PeakQuota:       e.quota.Peak.Load(),
		Parks:           parks,
		Wakes:           wakes,
		BudgetGranted:   granted,
		BudgetRequested: requested,
	}
}

// TierStats snapshots the shared result tier's full counter set — per-tier
// hits and misses, remote round-trips and their EWMA latency, singleflight
// merges, degradations. The zero value is returned when the engine runs
// without a RemoteCache.
func (e *Engine) TierStats() cachestore.TierStats {
	if e.opts.RemoteCache == nil {
		return cachestore.TierStats{}
	}
	return e.tier.Stats()
}

// Submit registers a query against a source — a local Dataset or a
// ShardedSource — and returns its handle; the query starts running
// immediately and is scheduled fairly against every other in-flight query.
// Queries over a ShardedSource fan their detector calls out across every
// shard, and the scheduler groups each round's inference batch by shard
// (see internal/engine's affinity grouping). The context cancels the query
// (not the engine): when ctx is done the query is finalized at the next
// round boundary and Wait returns ctx's error alongside the partial report.
//
// Batching belongs to the engine, so opts.BatchSize must be unset.
func (e *Engine) Submit(ctx context.Context, src Source, q Query, opts Options) (*QueryHandle, error) {
	return e.submitQuery(ctx, src, q, opts, false)
}

// SubmitStanding registers a standing query against a live source and
// returns its handle. A standing query never exhausts: when it has sampled
// every active frame it parks — leaving the scheduler's hot loop entirely —
// and wakes when the source appends a segment (sources that grow implement
// an internal append notification; StreamSource and ShardedSource both do).
// Events stream incrementally exactly as for Submit; the query ends only
// when cancelled, its context fires, or an explicit opts.MaxFrames /
// opts.MaxSeconds budget is spent.
//
// Relative to Submit, validation is relaxed and tightened in opposite
// directions: q.Limit and q.RecallTarget are optional (an alert query can
// run open-ended, and its class may have no instances — or no frames at
// all — yet), while opts.NumChunks is rejected because a standing query
// must follow the source's live chunk topology for appended segments to
// become sampler arms. Determinism matches Submit: with a fixed seed, a
// standing query that has consumed a given segment history reports
// byte-identically to an offline Search over the retained segments (see
// StreamSource).
func (e *Engine) SubmitStanding(ctx context.Context, src Source, q Query, opts Options) (*QueryHandle, error) {
	return e.submitQuery(ctx, src, q, opts, true)
}

// submitQuery is Submit and SubmitStanding: validate, build the run, hand
// it to the submit tail.
func (e *Engine) submitQuery(ctx context.Context, src Source, q Query, opts Options, standing bool) (*QueryHandle, error) {
	if err := q.validate(!standing); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.BatchSize > 1 {
		return nil, fmt.Errorf("exsample: the engine schedules batching itself; set EngineOptions.FramesPerRound instead of BatchSize")
	}
	if standing && opts.NumChunks > 0 {
		return nil, fmt.Errorf("exsample: standing queries follow the source's live chunk topology; NumChunks cannot apply")
	}
	run, err := newQueryRun(src, q, opts, e.cacheCfg(), standing)
	if err != nil {
		return nil, err
	}
	h := &QueryHandle{rep: run.rep, static: e.opts.FramesPerRound}
	run.out = &h.handleCore
	if err := e.submitRun(ctx, src, run, &h.handleCore, standing); err != nil {
		return nil, err
	}
	return h, nil
}

// submitRun is the one submit tail behind Submit, SubmitStanding and
// SubmitTrack: it fills in the handle core, builds the scheduler adapter
// (wrapped for adaptive sizing when the engine has it on), subscribes
// standing queries to the source's append notifications, and hands the
// query to the internal scheduler.
func (e *Engine) submitRun(ctx context.Context, src Source, run engineRun, h *handleCore, standing bool) error {
	if ctx == nil {
		ctx = context.Background()
	}
	h.ctx, h.run = ctx, run
	h.events = make(chan QueryEvent, e.opts.EventBuffer)
	eq := &engineQuery{run: run, src: src.querySource(), ctx: ctx, events: h.events, standing: standing}
	h.adapter = eq
	if e.opts.AdaptiveRounds {
		// One AIMD controller per (query, backend): the fleet keys its
		// controllers by the scheduler's shard-affinity key, grows from
		// FramesPerRound toward the source's tightest backend MaxBatch
		// hint, and the counters aggregate into EngineStats.
		fleet, err := sizer.NewFleet(sizer.Config{
			Min: e.opts.FramesPerRound,
			Max: eq.src.backendMaxBatch(),
		}, &e.quota)
		if err != nil {
			return err
		}
		h.adapter = newSizedQuery(eq, fleet)
	}
	var wakeTarget atomic.Pointer[engine.Handle]
	if standing {
		// Subscribe to appends before the scheduler can run (and so before
		// Finalize — which runs the unsubscribe — can possibly fire). The
		// callback routes through an atomic pointer because the inner
		// handle does not exist until Submit returns; a notification in
		// that window is harmless, since a query cannot be parked before
		// its first round and its first round sees all current segments.
		if n, ok := src.(appendNotifier); ok {
			eq.unsub = n.onAppend(func() {
				if ih := wakeTarget.Load(); ih != nil {
					ih.Wake()
				}
			})
		}
	}
	inner, err := e.inner.Submit(h.adapter)
	if err != nil {
		if eq.unsub != nil {
			eq.unsub()
		}
		return err
	}
	wakeTarget.Store(inner)
	h.inner = inner
	return nil
}

// appendNotifier is the structural seam a growing source implements so
// standing queries can be woken when new frames arrive. onAppend registers
// a callback invoked (on the appender's goroutine, after the new topology
// is published) for every segment that becomes samplable, and returns a
// cancel function. ShardedSource and StreamSource implement it.
type appendNotifier interface {
	onAppend(fn func()) (cancel func())
}

// Close cancels every in-flight query and shuts the engine down, blocking
// until all queries are finalized. Pending Wait calls return. Close is
// idempotent; Submit after Close fails.
func (e *Engine) Close() { e.inner.Close() }

// QueryEvent is one streamed increment of a running engine query — the
// Engine counterpart of Session's StepInfo, extended with running totals.
type QueryEvent struct {
	// Frame is the frame that was processed.
	Frame int64
	// Chunk is the chunk it came from (-1 for non-chunked strategies).
	Chunk int
	// New lists the distinct objects this frame discovered (often empty).
	// It is read-only: it may share storage with the query's
	// Report.Results, of which it is a window.
	New []Result
	// Tracks lists the matched track results this frame completed — set
	// only for track queries (SubmitTrack), whose events fire when a
	// densified interval finishes and its tracks pass the predicate. nil
	// for distinct-object queries.
	Tracks []TrackResult
	// SecondSightings counts objects re-confirmed by this frame.
	SecondSightings int
	// FramesProcessed and Found are the query's running totals after this
	// frame.
	FramesProcessed int64
	Found           int
	// Seconds is the charged query time so far, including any scan.
	Seconds float64
}

// handleCore is the part of a submitted query's handle that does not depend
// on the query class; QueryHandle and TrackHandle embed it and add their
// typed report.
type handleCore struct {
	ctx context.Context
	run engineRun
	// adapter is the query as the scheduler sees it: the engineQuery, or
	// the sizedQuery around it under AdaptiveRounds.
	adapter engine.Query
	inner   *engine.Handle
	events  chan QueryEvent
	dropped atomic.Int64
}

// Events streams the query's QueryEvents: one per processed frame for a
// distinct-object query, one per candidate interval that completed with
// matching tracks (QueryEvent.Tracks carries them) for a track query. The
// channel is closed when the query finishes (for any reason); consumers
// that fall behind the EventBuffer lose intermediate events (see Dropped)
// but never stall the engine.
func (h *handleCore) Events() <-chan QueryEvent { return h.events }

// Dropped returns how many events were discarded because the Events
// consumer fell behind.
func (h *handleCore) Dropped() int64 { return h.dropped.Load() }

// Cancel stops the query at the next round boundary. Wait returns
// context.Canceled with the partial report.
func (h *handleCore) Cancel() { h.inner.Cancel() }

// BudgetCounters reports the query's cumulative global-budget accounting:
// granted is the number of frames the marginal-value planner actually
// offered this query across all rounds, requested is what the same rounds
// would have offered under fair-share (the per-round cap). Both are 0 when
// the engine runs without a GlobalBudget.
func (h *handleCore) BudgetCounters() (granted, requested int64) {
	return h.inner.BudgetCounters()
}

// wait blocks until the query finishes and maps how it ended to the error
// Wait reports: nil on success, the context's error for a cancellation, or
// the pipeline failure — whether the scheduler saw it (a detector batch or
// an apply failed) or only the run did (a topology sync or sampler rebuild
// failed between rounds, which the scheduler sees as an empty proposal).
func (h *handleCore) wait() error {
	if err := h.inner.Wait(); err != nil {
		return err
	}
	switch h.inner.Reason() {
	case engine.ReasonCancelled:
		if err := h.ctx.Err(); err != nil {
			return err
		}
		return context.Canceled
	case engine.ReasonDone:
		// Done can mean the budget was reached or the context fired
		// between rounds; report the latter as a cancellation.
		if !h.run.done() {
			if err := h.ctx.Err(); err != nil {
				return err
			}
		}
	}
	return h.run.failure()
}

// emit publishes one event without ever blocking the scheduler.
func (h *handleCore) emit(ev QueryEvent) {
	select {
	case h.events <- ev:
	default:
		h.dropped.Add(1)
	}
}

// QueryHandle tracks one submitted query.
type QueryHandle struct {
	handleCore
	rep    *Report
	static int // the engine's FramesPerRound
}

// Parked reports whether a standing query is currently dormant — it has
// sampled every active frame and left the scheduling loop until the source
// appends. Always false for bounded queries and for finished queries.
func (h *QueryHandle) Parked() bool { return h.inner.Parked() }

// RoundQuota reports the query's current per-round detector quota: the
// adaptive controller's live value under AdaptiveRounds, the engine's
// static FramesPerRound otherwise. It is safe to call while the query
// runs.
func (h *QueryHandle) RoundQuota() int {
	if sq, ok := h.adapter.(*sizedQuery); ok {
		return sq.fleet.Quota()
	}
	return h.static
}

// Wait blocks until the query finishes and returns its report. The report
// is complete on success and partial (but internally consistent) when the
// query was cancelled or failed; err is nil on success, the context's error
// for a cancellation, or the underlying pipeline error.
func (h *QueryHandle) Wait() (*Report, error) { return h.rep, h.wait() }

// engineRun is what the scheduler adapter needs from a run; *queryRun and
// *trackRun both satisfy it. next, step, done, failure and marginalValue
// run on the scheduler goroutine; detectBatchInto runs on pool workers.
type engineRun interface {
	// next draws the next pick; false means nothing to issue right now.
	next() (core.Pick, bool)
	detectBatchInto(ctx context.Context, frames []int64, scr *detectScratch) ([]frameResult, error)
	// step applies one detected frame in pick order and publishes the
	// events it produced to the run's bound handle.
	step(p core.Pick, fr frameResult) error
	// done is the run's own stopping condition.
	done() bool
	// failure is the pipeline failure the run has latched, if any: once
	// non-nil, next yields nothing.
	failure() error
	marginalValue() float64
}

// engineQuery adapts a run — distinct-object or track — to the internal
// scheduler's Query interface, for the Engine and for the rounds Search and
// TrackSearch run inline (see runInline; no events channel then).
// Propose/Apply/Done/Finalize run on the scheduler goroutine; DetectBatch
// runs on pool workers — several at once
// when the round spans multiple affinity groups, which is why the detect
// scratches cycle through a mutex-guarded free list instead of living on
// the run.
//
// It is the only engine.Query in this package, plus sizedQuery which embeds
// it. The split has one reason: a query the scheduler's Sized probe fails
// for gets no clock reads, so with AdaptiveRounds off the static path stays
// clock-free and byte-identical to Search.
type engineQuery struct {
	run    engineRun
	src    *querySource // the run's source
	ctx    context.Context
	events chan QueryEvent // closed by Finalize; nil when run inline
	// standing marks a SubmitStanding query; unsub (non-nil only then, and
	// only for growing sources) cancels the append-wake subscription. It is
	// written before the scheduler can observe the query and read once by
	// Finalize on the scheduler goroutine.
	standing bool
	unsub    func()
	pending  []core.Pick // picks proposed this round, consumed by Apply in order
	applied  int         // how many of pending Apply has consumed
	frames   []int64     // reused Propose buffer (engine reads it only until the next Propose)

	// observed makes DetectBatch record each group's backend-served frame
	// count for sizedQuery.ObserveBatch; false on the static path.
	observed bool

	// scr recycles detect scratches and group observations across rounds;
	// see scratchPool.
	scr scratchPool
}

// groupObs is one group's backend-served frame count this round.
type groupObs struct {
	key    uint64
	misses int
}

// scratchPool is the per-query detect-scratch recycler: DetectBatch pops a
// scratch (one per in-flight affinity group), results stay referenced until
// the round's applies finish, and the next Propose — which by the
// scheduling contract happens strictly after those applies — returns every
// used scratch to the free list.
//
// It also records, per affinity key, how many of the current round's group
// frames actually reached the backend (cache hits resolve locally in
// microseconds and carry no backend-latency signal). Written by
// DetectBatch under mu, consumed by sizedQuery.ObserveBatch on the
// scheduler goroutine, cleared at the next Propose. Only populated when
// the query is adaptive.
type scratchPool struct {
	mu   sync.Mutex
	free []*detectScratch
	used []*detectScratch
	obs  []groupObs
}

// get pops a free detect scratch (or grows the pool) and records it as in
// use for the current round.
func (p *scratchPool) get() *detectScratch {
	p.mu.Lock()
	defer p.mu.Unlock()
	var s *detectScratch
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		s = &detectScratch{}
	}
	p.used = append(p.used, s)
	return s
}

// reclaim returns every scratch used last round to the free list and drops
// any unconsumed backend-frame observations (error paths leave stragglers).
// Called from Propose on the scheduler goroutine, after the previous
// round's applies and before any new DetectBatch can be in flight.
func (p *scratchPool) reclaim() {
	p.mu.Lock()
	p.free = append(p.free, p.used...)
	p.used = p.used[:0]
	p.obs = p.obs[:0]
	p.mu.Unlock()
}

// note records a group's backend-served frame count for the sizer.
func (p *scratchPool) note(key uint64, misses int) {
	p.mu.Lock()
	p.obs = append(p.obs, groupObs{key: key, misses: misses})
	p.mu.Unlock()
}

// take consumes the recorded backend-served frame count for a group key
// (-1 when the group was never recorded, e.g. its call failed).
func (p *scratchPool) take(key uint64) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.obs {
		if p.obs[i].key == key {
			m := p.obs[i].misses
			p.obs[i] = p.obs[len(p.obs)-1]
			p.obs = p.obs[:len(p.obs)-1]
			return m
		}
	}
	return -1
}

// Done also reports true for a failed run, so the scheduler finalizes it
// at the next round boundary and Wait can surface the failure.
func (q *engineQuery) Done() bool {
	return q.ctx.Err() != nil || q.run.failure() != nil || q.run.done()
}

// MarginalValue implements the scheduler's Valued contract: the query's
// expected new results per frame under its current beliefs — the best
// enabled arm's prior-smoothed Thompson point estimate for a distinct-object
// query (and a track query's coarse phase), the remaining hit density during
// a track query's refine phase — so both query classes are directly
// comparable under one GlobalBudget. Called once per round on the scheduler
// goroutine, before Propose, only when the engine runs a GlobalBudget.
func (q *engineQuery) MarginalValue() float64 {
	return q.run.marginalValue()
}

// StandingQuery implements engine.Standing: an empty proposal parks a
// standing query, unless its run has failed — then it must be finalized,
// not left dormant with an error nobody will see.
func (q *engineQuery) StandingQuery() bool {
	return q.standing && q.run.failure() == nil
}

func (q *engineQuery) Propose(max int) []int64 {
	q.scr.reclaim()
	q.pending, q.applied = q.pending[:0], 0
	q.frames = q.frames[:0]
	for len(q.frames) < max {
		p, ok := q.run.next()
		if !ok {
			break
		}
		q.pending = append(q.pending, p)
		q.frames = append(q.frames, p.Frame)
	}
	return q.frames
}

// DetectBatch runs one affinity group's frames through the run's batched
// detector — cache consulted first, the misses issued as a single backend
// call — under the query's own context, so a cancellation mid-batch aborts
// the call and surfaces through the handle's Wait. Results are returned as
// pointers into a recycled scratch buffer (boxing a pointer into an
// interface allocates nothing); the scheduler copies the interface values
// out before the applies, and the scratch stays untouched until the next
// Propose reclaims it.
func (q *engineQuery) DetectBatch(frames []int64) ([]any, error) {
	s := q.scr.get()
	results, err := q.run.detectBatchInto(q.ctx, frames, s)
	if err != nil {
		return nil, err
	}
	if q.observed {
		// Record how many frames the backend actually served: cache hits
		// resolve locally and must not feed their near-zero latency into
		// the AIMD controller as if the backend produced it.
		q.scr.note(q.AffinityKey(frames[0]), s.misses)
	}
	if cap(s.out) < len(results) {
		s.out = make([]any, 0, cap(results))
	}
	s.out = s.out[:0]
	for i := range results {
		s.out = append(s.out, &results[i])
	}
	return s.out, nil
}

// AffinityKey implements engine.Affine: frames of the same (source, shard)
// share a key, so the scheduler can group a round's detect batch by shard
// (a track query's refine interval spanning a shard boundary splits into
// one inference batch per shard). The key is also the adaptive sizer's
// backend key.
func (q *engineQuery) AffinityKey(frame int64) uint64 {
	shard := 0
	if q.src.shardOf != nil {
		shard = q.src.shardOf(frame)
	}
	return q.src.id<<16 | uint64(shard)&0xffff
}

func (q *engineQuery) Apply(frame int64, dets any) (bool, error) {
	p := q.pending[q.applied]
	q.applied++
	if p.Frame != frame {
		return false, fmt.Errorf("exsample: engine applied frame %d out of order (expected %d)", frame, p.Frame)
	}
	if err := q.run.step(p, *dets.(*frameResult)); err != nil {
		return false, err
	}
	return q.run.done(), nil
}

func (q *engineQuery) Finalize() {
	if q.unsub != nil {
		q.unsub()
	}
	if q.events != nil {
		close(q.events)
	}
}

// sizedQuery opts an engineQuery into the scheduler's adaptive round
// sizing (engine.Sized) for either query class.
type sizedQuery struct {
	*engineQuery
	fleet *sizer.Fleet
	// breakerOpens polls the source's cumulative breaker-open count (nil
	// when no backend reports capacity); lastOpens is the edge detector.
	breakerOpens func() int64
	lastOpens    int64
}

// newSizedQuery wires an adapter to its quota fleet: DetectBatch starts
// recording backend-served counts and the breaker edge detector is
// baselined, both before the first round.
func newSizedQuery(eq *engineQuery, fleet *sizer.Fleet) *sizedQuery {
	eq.observed = true
	sq := &sizedQuery{engineQuery: eq, fleet: fleet, breakerOpens: eq.src.breakerOpens}
	if sq.breakerOpens != nil {
		sq.lastOpens = sq.breakerOpens()
	}
	return sq
}

// RoundQuota implements engine.Sized: it folds any breaker-open events
// since the last round into the controller (capacity loss shrinks
// multiplicatively before the next propose) and returns the fleet's
// current quota. An edge shrinks every backend key's controller: the
// aggregate counter cannot say which key lost the server.
func (q *sizedQuery) RoundQuota(base int) int {
	if q.breakerOpens != nil {
		if n := q.breakerOpens(); n > q.lastOpens {
			q.lastOpens = n
			q.fleet.CapacityLossAll()
		}
	}
	return q.fleet.Quota()
}

// ObserveBatch implements engine.Sized: one successfully dispatched
// group's wall latency feeds the (query, backend-key) controller — but
// charged against the frames the backend actually served, not the group
// size. A group resolved partly (or wholly) from a cache would
// otherwise report near-zero per-frame latency, collapse the controller's
// baseline, and make the next genuine backend batch look like queueing.
// All-hit groups carry no backend signal and are skipped outright.
func (q *sizedQuery) ObserveBatch(key uint64, frames int, seconds float64) {
	if misses := q.scr.take(key); misses > 0 {
		q.fleet.Observe(key, misses, seconds)
	}
}
