package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Query is one schedulable unit of work: a distinct-object query whose
// expensive detector calls the engine wants to batch with everybody else's.
// All methods except DetectBatch are called only from the engine's
// scheduler goroutine; DetectBatch runs on pool workers and must be safe
// for concurrent use (the paper's stateless black-box detector contract).
type Query interface {
	// Done reports whether the query wants to stop (budget reached,
	// context cancelled). The engine checks it at every round boundary.
	Done() bool
	// Propose returns up to max frames to run the detector on this round,
	// drawn by the query's own sampling strategy. Returning an empty slice
	// means the repository is exhausted and the query is finalized.
	// Because Propose runs at every round boundary on the scheduler
	// goroutine, it is also where elastic sources sync their topology
	// snapshot: a shard attached or drained between rounds is reflected in
	// the very next round's picks (new affinity groups appear, a drained
	// shard's group retires), while the round in flight when the change
	// lands still applies normally.
	//
	// The engine reads the returned slice only until the next Propose
	// call, so implementations may reuse one backing buffer across rounds
	// — the allocation-free steady state the scheduler itself maintains.
	Propose(max int) []int64
	// DetectBatch runs the detector on a group of this round's proposed
	// frames — one affinity group per call — and returns one opaque result
	// per frame, aligned with frames. It must be concurrency-safe and
	// deterministic per frame. An error finalizes the query with
	// ReasonError; none of the round's results are applied.
	//
	// The engine copies the results out before the round's applies, so the
	// returned slice (not the results themselves) may be a reused buffer —
	// but because one query's groups run concurrently, a buffer must not
	// be shared between in-flight calls.
	DetectBatch(frames []int64) ([]any, error)
	// Apply consumes one frame's detector output. Calls arrive in propose
	// order on the scheduler goroutine, so the query's discriminator and
	// sampler bookkeeping see exactly the sequence a standalone run would.
	// Returning done stops the query; remaining results from the same
	// round are discarded unapplied (their cost is never charged).
	Apply(frame int64, dets any) (done bool, err error)
	// Finalize is called exactly once when the engine stops scheduling the
	// query, whatever the reason.
	Finalize()
}

// Affine, Sized, Valued and Standing are optional Query refinements. Submit
// probes for each exactly once and records the answers on the Handle; the
// round loop reads those fields and never type-asserts, so a query's
// capability set is fixed by its dynamic type at Submit.
//
// Affine is the refinement for sharded sources: frames that live on the
// same shard report the same affinity key, and the scheduler dispatches
// each round's frames as one DetectBatch call per (query, key) group, with
// same-key groups adjacent on the pool — the access pattern a real
// per-shard batch endpoint wants. Grouping only reorders work *within* a
// round (every proposed frame still runs that round, and results are still
// applied in propose order), so it cannot starve a shard or a query, and it
// never affects query results.
type Affine interface {
	// AffinityKey returns the grouping key for a frame. Keys are opaque;
	// only equality matters, but implementations should make keys unique
	// across sources so two sources' shard 0 do not interleave.
	AffinityKey(frame int64) uint64
}

// Sized is the refinement for adaptive round sizing: the query supplies its
// own per-round detector quota in place of the engine's static
// FramesPerRound, and the scheduler feeds back the wall latency of every
// dispatched DetectBatch group so a feedback controller (see
// internal/sizer) can close the loop. A query whose Submit probe for Sized
// fails costs the scheduler nothing — no clocks are read on its behalf,
// which is what keeps the default path byte-identical to the static engine.
type Sized interface {
	// RoundQuota returns the query's frame quota for the next round; base
	// is the engine's static FramesPerRound. Called once per round on the
	// scheduler goroutine, before Propose. Values below 1 are clamped to 1.
	RoundQuota(base int) int
	// ObserveBatch reports one successfully dispatched group's size and
	// detector wall latency. Calls arrive on the scheduler goroutine after
	// the round's pool run, in group creation (propose) order; failed
	// groups are not reported.
	ObserveBatch(key uint64, frames int, seconds float64)
}

// Valued is the refinement for global budget scheduling: the query exposes
// its current marginal value — the expected number of *new*
// results the next detector frame will produce, which ExSample's Thompson
// beliefs already estimate per chunk (Eq. III.1; the scheduler wants the
// arg-max arm's point estimate). The allocator divides the engine's
// GlobalBudget across queries proportionally to these values, so a nearly
// exhausted query naturally decays toward the floor quota while a fresh or
// just-woken standing query re-enters at its prior belief. A query whose
// Submit probe for Valued fails weighs in at a neutral constant value of 1.
type Valued interface {
	// MarginalValue returns the query's expected new results per frame.
	// Called once per round on the scheduler goroutine, before Propose;
	// it must be cheap and allocation-free. Negative and NaN values are
	// treated as 0.
	MarginalValue() float64
}

// Standing is the refinement for queries over live sources: an exhausted
// repository is a pause, not an ending. When a standing query's Propose
// returns no frames, the scheduler parks the handle —
// removes it from the round schedule with no terminal Reason and its full
// pipeline state intact — instead of finalizing it with ReasonExhausted.
// Handle.Wake re-admits it, typically from a source's append notification;
// a wake that races an in-flight round is remembered, so an append can
// never be lost between Propose observing emptiness and the park landing.
// Parked queries cost the scheduler nothing: the loop idles exactly as if
// they did not exist.
type Standing interface {
	// StandingQuery reports whether the query wants park-on-exhaustion
	// semantics right now. The method is probed for once at Submit but
	// called every time a Propose comes back empty, so one query type can
	// serve bounded and standing queries alike — and a standing query that
	// has failed can answer false to be finalized instead of parked.
	StandingQuery() bool
}

// Reason records why a query left the engine.
type Reason int

const (
	// ReasonNone means the query is still scheduled.
	ReasonNone Reason = iota
	// ReasonDone means Done() reported true or Apply returned done.
	ReasonDone
	// ReasonExhausted means Propose ran out of frames.
	ReasonExhausted
	// ReasonCancelled means Cancel was called on the handle.
	ReasonCancelled
	// ReasonError means Apply returned an error.
	ReasonError
)

// String returns the reason name.
func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonDone:
		return "done"
	case ReasonExhausted:
		return "exhausted"
	case ReasonCancelled:
		return "cancelled"
	case ReasonError:
		return "error"
	default:
		return "unknown"
	}
}

// Config parameterizes an Engine.
type Config struct {
	// Workers bounds concurrent DetectBatch calls across all queries
	// (default 1). Each call carries one (query, affinity-key) group of a
	// round's frames.
	Workers int
	// FramesPerRound is each query's per-round detector quota (default 1).
	// Every active query gets the same quota, which is what makes
	// scheduling fair-share: no query can starve another however greedy
	// its sampler is. Sized queries replace the static quota with their
	// own per-round value.
	FramesPerRound int
	// GlobalBudget, when > 0, replaces fair-share scheduling with one
	// scheduler-level frames-per-round budget divided across the active
	// queries in proportion to their marginal values (Valued queries; the
	// rest weigh in at a constant). Per-query quotas — FramesPerRound, or
	// a Sized query's RoundQuota — become *caps* the allocator fills up
	// to, never past, so AIMD round sizing composes: the sizer bounds how
	// big one query's batch may get, the budget decides who deserves the
	// frames. Every non-cancelled query is granted at least floorQuota
	// frames (budget permitting it is a floor, not a share: with N active
	// queries the round dispatches at least N*floorQuota frames), which
	// is what lets a zero-value query still drain to completion instead
	// of starving.
	GlobalBudget int
}

// floorQuota is the per-query minimum grant under GlobalBudget. It is
// never 0, because a zero-frame Propose is indistinguishable from an
// exhausted repository.
const floorQuota = 1

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.FramesPerRound < 1 {
		c.FramesPerRound = 1
	}
	if c.GlobalBudget < 0 {
		c.GlobalBudget = 0
	}
	return c
}

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("engine: closed")

// job is one query's work within a round: the proposed frames and the
// per-frame results its groups fill in. Jobs are pooled in the engine's
// round scratch and reused across rounds.
type job struct {
	h      *Handle
	frames []int64
	dets   []any
	err    error // first detect-group error, in group order
}

// group is one (job, affinity-key) detector dispatch: a maximal same-key
// subset of a job's frames, in propose order. Groups are pooled and each
// carries its pool task closure, bound once at allocation, so the
// steady-state round creates no closures.
type group struct {
	j       *job
	key     uint64
	frames  []int64
	idx     []int // positions in j.frames / j.dets
	err     error
	seconds float64 // DetectBatch wall latency (Sized queries only)
	task    func()
}

// scratch is the engine's reusable per-round working set. It is touched
// only by the scheduler goroutine (pool workers reach individual groups
// through their bound tasks), and it is what makes the steady-state round
// allocation-free: handle snapshot, job and group objects, their frame and
// index slices, the sorted view and the task list are all recycled.
type scratch struct {
	round   []*Handle
	jobs    []*job
	groups  []*group
	njobs   int
	ngroups int
	sorted  []*group
	tasks   []func()
	wg      sync.WaitGroup
	// Global-budget planning state, aligned with round: each handle's
	// grant for this round, its cap (what fair-share would offer), and its
	// marginal value. Reused across rounds like everything else here.
	grants []int
	caps   []int
	vals   []float64
}

// job returns the next pooled job, growing the pool on first use.
func (s *scratch) job() *job {
	if s.njobs < len(s.jobs) {
		j := s.jobs[s.njobs]
		s.njobs++
		j.err = nil
		return j
	}
	j := &job{}
	s.jobs = append(s.jobs, j)
	s.njobs++
	return j
}

// Engine multiplexes queries onto a shared detector worker pool in
// lock-step scheduling rounds: every active query proposes up to its
// round quota of frames, all proposals run on the pool as one batch, and
// results are applied per query in propose order.
type Engine struct {
	cfg  Config
	pool *Pool
	scr  scratch

	mu     sync.Mutex
	cond   *sync.Cond
	active []*Handle
	// parked holds standing queries whose repositories are drained: off the
	// round schedule, never finalized, waiting for a Wake. They do not keep
	// the scheduler awake.
	parked []*Handle
	closed bool

	rounds  atomic.Int64
	detects atomic.Int64
	batches atomic.Int64
	parks   atomic.Int64
	wakes   atomic.Int64
	granted atomic.Int64 // frames granted by the global allocator
	capped  atomic.Int64 // frames the queries' caps requested

	loopDone chan struct{}
}

// New starts an engine and its scheduler goroutine.
func New(cfg Config) *Engine {
	e := newEngine(cfg)
	go e.loop()
	return e
}

// newEngine builds the engine without starting the scheduler goroutine —
// the seam the allocation-regression tests drive rounds through directly.
func newEngine(cfg Config) *Engine {
	e := &Engine{
		cfg:      cfg.withDefaults(),
		loopDone: make(chan struct{}),
	}
	e.pool = NewPool(e.cfg.Workers)
	e.cond = sync.NewCond(&e.mu)
	return e
}

// Run runs one query to completion on the calling goroutine: the rounds an
// Engine schedules — propose, one DetectBatch per affinity group, applies
// in propose order — with no scheduler goroutine, and with no pool
// goroutine either at the default one worker. Exhaustion always finalizes
// the query, even a Standing one: nothing could wake it. Run returns why
// the query left and the DetectBatch or Apply error that ended it, if any.
func Run(q Query, cfg Config) (Reason, error) {
	e := newEngine(cfg)
	defer e.pool.Close()
	h, _ := e.Submit(q) // a fresh engine is never closed
	h.standing = nil
	for h.reason == ReasonNone {
		e.runOneRound()
	}
	return h.reason, h.err
}

// Workers returns the detector concurrency bound.
func (e *Engine) Workers() int { return e.cfg.Workers }

// Counters returns the number of completed scheduling rounds, detector
// frames dispatched, and DetectBatch group calls issued so far.
func (e *Engine) Counters() (rounds, detects, batches int64) {
	return e.rounds.Load(), e.detects.Load(), e.batches.Load()
}

// ParkCounters returns how many times standing queries were parked on an
// exhausted repository and woken back onto the schedule.
func (e *Engine) ParkCounters() (parks, wakes int64) {
	return e.parks.Load(), e.wakes.Load()
}

// BudgetCounters returns the cumulative frames the global allocator has
// granted across all queries and the frames their per-round caps would have
// taken (what fair-share scheduling would offer). Both stay zero when the
// engine runs fair-share (GlobalBudget 0).
func (e *Engine) BudgetCounters() (granted, requested int64) {
	return e.granted.Load(), e.capped.Load()
}

// Submit registers a query and returns its handle. The query starts
// participating in the next scheduling round. This is the one place the
// optional refinements are probed for.
func (e *Engine) Submit(q Query) (*Handle, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	h := &Handle{e: e, q: q, done: make(chan struct{})}
	h.sized, _ = q.(Sized)
	h.valued, _ = q.(Valued)
	h.affine, _ = q.(Affine)
	h.standing, _ = q.(Standing)
	e.active = append(e.active, h)
	e.cond.Signal()
	return h, nil
}

// Close cancels all in-flight queries, stops the scheduler and shuts the
// pool down. It blocks until every query has been finalized and is safe to
// call more than once.
func (e *Engine) Close() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		for _, h := range e.active {
			h.cancelled.Store(true)
		}
		// Parked standing queries re-enter the schedule cancelled, so the
		// final rounds finalize them like any other cancellation — nobody
		// blocked in Wait is left hanging on a handle with no schedule.
		for _, h := range e.parked {
			h.cancelled.Store(true)
			h.parked = false
			e.active = append(e.active, h)
		}
		e.parked = nil
		e.cond.Signal()
	}
	e.mu.Unlock()
	<-e.loopDone
	e.pool.Close()
}

// loop is the scheduler: it runs rounds while queries are active and parks
// when the engine is idle.
func (e *Engine) loop() {
	defer close(e.loopDone)
	for {
		if !e.runOneRound() {
			return
		}
	}
}

// runOneRound snapshots the active queries into the reusable round scratch
// and executes one scheduling round, parking first when the engine is
// idle. It returns false when the engine has shut down.
func (e *Engine) runOneRound() bool {
	e.mu.Lock()
	for len(e.active) == 0 && !e.closed {
		e.cond.Wait()
	}
	if len(e.active) == 0 && e.closed {
		e.mu.Unlock()
		return false
	}
	e.scr.round = append(e.scr.round[:0], e.active...)
	e.mu.Unlock()
	e.runRound(e.scr.round)
	// Release the snapshot's handle references: finalized queries (and
	// their full pipelines) must not stay pinned by the recycled backing
	// array while the engine idles.
	for i := range e.scr.round {
		e.scr.round[i] = nil
	}
	return true
}

// group returns the next pooled group, binding its pool task closure once
// on first allocation.
func (e *Engine) group(j *job, key uint64) *group {
	s := &e.scr
	var g *group
	if s.ngroups < len(s.groups) {
		g = s.groups[s.ngroups]
		g.frames = g.frames[:0]
		g.idx = g.idx[:0]
		g.err = nil
		g.seconds = 0
	} else {
		g = &group{}
		g.task = func() { e.runGroup(g) }
		s.groups = append(s.groups, g)
	}
	s.ngroups++
	g.j, g.key = j, key
	return g
}

// runGroup executes one group's DetectBatch on a pool worker and scatters
// the results into the job's per-frame slots. Wall latency is measured
// only for Sized queries, so the static path never reads a clock.
func (e *Engine) runGroup(g *group) {
	h := g.j.h
	var start time.Time
	if h.sized != nil {
		start = time.Now()
	}
	dets, err := h.q.DetectBatch(g.frames)
	if h.sized != nil {
		g.seconds = time.Since(start).Seconds()
	}
	if err == nil && len(dets) != len(g.frames) {
		err = fmt.Errorf("engine: DetectBatch returned %d results for a %d-frame group", len(dets), len(g.frames))
	}
	if err != nil {
		g.err = err
		return
	}
	for k, i := range g.idx {
		g.j.dets[i] = dets[k]
	}
}

// runRound executes one scheduling round over a snapshot of the active
// queries: propose, dispatch one DetectBatch per affinity group on the
// pool, apply in order. All per-round state lives in the engine's reusable
// scratch; the steady state allocates nothing.
func (e *Engine) runRound(round []*Handle) {
	s := &e.scr
	s.njobs, s.ngroups = 0, 0
	base := e.cfg.FramesPerRound
	budgeted := e.cfg.GlobalBudget > 0
	if budgeted {
		// The allocation plan polls each query's cap (RoundQuota) and
		// marginal value exactly once per round, here; the propose loop
		// below then reads the grants instead of re-deriving quotas.
		e.planBudget(round)
	}
	for i, h := range round {
		if h.cancelled.Load() {
			e.finalize(h, ReasonCancelled, nil)
			continue
		}
		if h.q.Done() {
			e.finalize(h, ReasonDone, nil)
			continue
		}
		var quota int
		if budgeted {
			quota = s.grants[i]
		} else {
			quota = h.roundQuota(base)
		}
		frames := h.q.Propose(quota)
		if len(frames) == 0 {
			// A drained repository finalizes a bounded query but only parks
			// a standing one. park may decline — a wake raced in (new data
			// is already there), the handle was cancelled, or the engine is
			// closing — and then the handle simply stays on the schedule:
			// the next round re-proposes or settles it.
			if h.standing != nil && h.standing.StandingQuery() {
				e.park(h)
				continue
			}
			e.finalize(h, ReasonExhausted, nil)
			continue
		}
		j := s.job()
		j.h, j.frames = h, frames
		if cap(j.dets) < len(frames) {
			j.dets = make([]any, len(frames))
		} else {
			j.dets = j.dets[:len(frames)]
		}
	}
	jobs := s.jobs[:s.njobs]

	// Carve each job's frames into affinity groups — maximal same-key
	// frame sets, in propose order — and dispatch every group as ONE
	// DetectBatch call on the pool. A stable sort of the groups by key
	// puts one shard's groups adjacent across queries (the access pattern
	// a per-shard batch endpoint wants) while preserving propose order
	// within a key; rounds whose frames all share one key — the common
	// single-source case — skip the sort.
	var frameCount int64
	grouped := false
	for _, j := range jobs {
		aff := j.h.affine
		first := s.ngroups // this job's groups start here
		for i, frame := range j.frames {
			var key uint64
			if aff != nil {
				key = aff.AffinityKey(frame)
			}
			var g *group
			for _, cand := range s.groups[first:s.ngroups] {
				if cand.key == key {
					g = cand
					break
				}
			}
			if g == nil {
				g = e.group(j, key)
			}
			g.frames = append(g.frames, frame)
			g.idx = append(g.idx, i)
		}
		frameCount += int64(len(j.frames))
	}
	created := s.groups[:s.ngroups]
	for i := 1; i < len(created); i++ {
		if created[i].key != created[i-1].key {
			grouped = true
			break
		}
	}
	dispatch := created
	if grouped {
		// Stable insertion sort into the reusable sorted view: group
		// counts are small (queries x shards), and sort.SliceStable would
		// allocate per call.
		s.sorted = append(s.sorted[:0], created...)
		for i := 1; i < len(s.sorted); i++ {
			g := s.sorted[i]
			k := i - 1
			for k >= 0 && s.sorted[k].key > g.key {
				s.sorted[k+1] = s.sorted[k]
				k--
			}
			s.sorted[k+1] = g
		}
		dispatch = s.sorted
	}
	s.tasks = s.tasks[:0]
	for _, g := range dispatch {
		s.tasks = append(s.tasks, g.task)
	}
	e.pool.DoWith(&s.wg, s.tasks)
	e.rounds.Add(1)
	e.batches.Add(int64(len(created)))
	e.detects.Add(frameCount)

	// Propagate group errors to their jobs deterministically — the first
	// failed group in creation (propose) order wins — and feed successful
	// groups' latency back to their Sized queries in the same order.
	for _, g := range created {
		if g.err != nil {
			if g.j.err == nil {
				g.j.err = g.err
			}
			continue
		}
		if sized := g.j.h.sized; sized != nil {
			sized.ObserveBatch(g.key, len(g.frames), g.seconds)
		}
	}

	for _, j := range jobs {
		if j.h.cancelled.Load() {
			e.finalize(j.h, ReasonCancelled, nil)
		} else if j.err != nil {
			// A failed detector batch poisons the whole round for the
			// query: none of the round's results are applied, so the
			// query's partial state stays consistent at the previous
			// round boundary.
			e.finalize(j.h, ReasonError, j.err)
		} else {
			for i, frame := range j.frames {
				done, err := j.h.q.Apply(frame, j.dets[i])
				if err != nil {
					e.finalize(j.h, ReasonError, err)
					break
				}
				if done {
					e.finalize(j.h, ReasonDone, nil)
					break
				}
			}
		}
		// Release detector outputs so recycled jobs do not pin them.
		for i := range j.dets {
			j.dets[i] = nil
		}
		j.h, j.frames = nil, nil
	}
	for _, g := range created {
		g.j = nil
	}
}

// planBudget divides Config.GlobalBudget across a round snapshot by
// marginal value — discrete water-filling over the reusable scratch, so the
// plan itself allocates nothing. Every non-cancelled query starts at the
// floor quota (clamped to its cap); the remaining budget is then granted
// proportionally to the queries' values, clamping at each query's cap and
// re-distributing the clamped surplus until the budget is spent or every
// cap is full. With equal values this degenerates to an even split — which
// is exactly fair-share, keeping single-query and identical-fleet runs
// byte-identical to the fair-share scheduler — while a mixed fleet shifts
// frames from decayed (nearly exhausted) queries to the ones whose beliefs
// still promise results.
func (e *Engine) planBudget(round []*Handle) {
	s := &e.scr
	n := len(round)
	if cap(s.grants) < n {
		s.grants = make([]int, 0, n)
		s.caps = make([]int, 0, n)
		s.vals = make([]float64, 0, n)
	}
	s.grants, s.caps, s.vals = s.grants[:n], s.caps[:n], s.vals[:n]
	base := e.cfg.FramesPerRound
	remaining := e.cfg.GlobalBudget
	for i, h := range round {
		if h.cancelled.Load() {
			s.grants[i], s.caps[i], s.vals[i] = 0, 0, 0
			continue
		}
		qcap := h.roundQuota(base)
		v := 1.0
		if h.valued != nil {
			v = h.valued.MarginalValue()
			if v != v || v < 0 { // NaN or negative: no signal
				v = 0
			}
		}
		f := min(floorQuota, qcap)
		s.grants[i], s.caps[i], s.vals[i] = f, qcap, v
		remaining -= f
	}
	for remaining > 0 {
		mass := 0.0
		open := 0
		for i := range s.grants {
			if s.caps[i] > s.grants[i] {
				open++
				mass += s.vals[i]
			}
		}
		if open == 0 {
			break
		}
		if mass <= 0 {
			// Every query with headroom reports zero value: spread the
			// remainder evenly in snapshot order.
			for i := range s.grants {
				if remaining == 0 {
					break
				}
				if s.caps[i] > s.grants[i] {
					s.grants[i]++
					remaining--
				}
			}
			continue
		}
		pool := remaining
		granted := false
		for i := range s.grants {
			headroom := s.caps[i] - s.grants[i]
			if headroom == 0 || s.vals[i] <= 0 {
				continue
			}
			give := int(float64(pool) * s.vals[i] / mass)
			if give > headroom {
				give = headroom
			}
			if give > remaining {
				give = remaining
			}
			if give > 0 {
				s.grants[i] += give
				remaining -= give
				granted = true
			}
		}
		if !granted {
			// Rounding starved everyone: hand one frame to the
			// highest-value query with headroom (snapshot order breaks
			// ties) so the loop always progresses.
			best := -1
			for i := range s.grants {
				if s.caps[i] > s.grants[i] && (best == -1 || s.vals[i] > s.vals[best]) {
					best = i
				}
			}
			s.grants[best]++
			remaining--
		}
	}
	var roundGranted, roundCapped int64
	for i, h := range round {
		if s.caps[i] == 0 {
			continue
		}
		h.granted.Add(int64(s.grants[i]))
		h.requested.Add(int64(s.caps[i]))
		roundGranted += int64(s.grants[i])
		roundCapped += int64(s.caps[i])
	}
	e.granted.Add(roundGranted)
	e.capped.Add(roundCapped)
}

// park removes a standing handle from the round schedule without
// finalizing it: no Reason is published, Wait keeps blocking, and the
// query's pipeline state stays exactly where the last apply left it.
// Parking is declined — and the handle stays active — when a wake arrived
// since the round snapshot was taken (the append's frames must be
// proposed, not slept through), when the handle was cancelled, or when the
// engine is closing. It reports whether the handle was parked.
func (e *Engine) park(h *Handle) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if h.wakePending || h.cancelled.Load() || e.closed {
		h.wakePending = false
		return false
	}
	e.active = removeHandle(e.active, h)
	h.parked = true
	e.parked = append(e.parked, h)
	e.parks.Add(1)
	return true
}

// wake re-admits a parked handle to the schedule. Waking a handle that is
// not parked — it is mid-round, still active, or already finalized — sets
// a pending flag instead, so a park racing this wake is declined and the
// appended frames are proposed next round. Wakes are idempotent.
func (e *Engine) wake(h *Handle) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !h.parked {
		h.wakePending = true
		return
	}
	h.parked = false
	h.wakePending = false
	e.parked = removeHandle(e.parked, h)
	e.active = append(e.active, h)
	e.wakes.Add(1)
	e.cond.Signal()
}

// removeHandle splices h out of s and clears the vacated tail slot, so the
// backing array does not keep a removed handle — and through it the query's
// whole pipeline — reachable while the engine idles.
func removeHandle(s []*Handle, h *Handle) []*Handle {
	for i, a := range s {
		if a == h {
			last := len(s) - 1
			copy(s[i:], s[i+1:])
			s[last] = nil
			return s[:last]
		}
	}
	return s
}

// finalize removes a handle from the schedule and publishes its outcome.
func (e *Engine) finalize(h *Handle, reason Reason, err error) {
	e.mu.Lock()
	e.active = removeHandle(e.active, h)
	e.mu.Unlock()
	h.reason, h.err = reason, err
	h.q.Finalize()
	close(h.done)
}

// Handle tracks one submitted query.
type Handle struct {
	e *Engine
	q Query
	// The query's optional refinements, each nil when the probe in Submit
	// failed. Written once there, read only by the scheduler.
	sized     Sized
	valued    Valued
	affine    Affine
	standing  Standing
	cancelled atomic.Bool
	// parked and wakePending are guarded by e.mu: parked marks a standing
	// query waiting off-schedule for new data; wakePending remembers a wake
	// that arrived while the handle was on the schedule, so an in-flight
	// round's empty Propose cannot park over it (the lost-wakeup race).
	parked      bool
	wakePending bool
	done        chan struct{}
	reason      Reason
	err         error
	// Global-budget accounting, written by the scheduler's allocation plan
	// and read from any goroutine: frames granted to this query and the
	// frames its caps requested. Zero under fair-share scheduling.
	granted   atomic.Int64
	requested atomic.Int64
}

// roundQuota is the query's own frame quota for the next round — a Sized
// query's RoundQuota clamped to at least 1, the engine's static base
// otherwise — and its per-round cap under the global budget.
func (h *Handle) roundQuota(base int) int {
	if h.sized == nil {
		return base
	}
	return max(h.sized.RoundQuota(base), 1)
}

// BudgetCounters returns the cumulative frames the global allocator has
// granted this query and the frames its per-round caps requested (its
// fair-share entitlement). The gap between the two is the scheduler's
// verdict on the query's marginal value. Both stay zero when the engine
// runs fair-share (GlobalBudget 0).
func (h *Handle) BudgetCounters() (granted, requested int64) {
	return h.granted.Load(), h.requested.Load()
}

// Cancel asks the engine to stop the query. The cancellation takes effect
// at the next round boundary; in-flight detector calls complete but their
// results are discarded unapplied. A parked standing query is woken so the
// cancellation finalizes it promptly.
func (h *Handle) Cancel() {
	h.cancelled.Store(true)
	h.e.wake(h)
}

// Wake re-admits a parked standing query to the schedule — the call a live
// source makes when a segment lands. Waking a handle that is not parked is
// remembered (never lost) and otherwise free; waking one that is already
// finalized is a no-op.
func (h *Handle) Wake() { h.e.wake(h) }

// Parked reports whether the query is currently parked: a standing query
// whose repository is drained, waiting for a Wake. A parked query has no
// terminal Reason and Wait keeps blocking.
func (h *Handle) Parked() bool {
	h.e.mu.Lock()
	defer h.e.mu.Unlock()
	return h.parked
}

// Wait blocks until the query is finalized and returns the Apply error, if
// any.
func (h *Handle) Wait() error {
	<-h.done
	return h.err
}

// Reason reports why the query was finalized. It is only meaningful after
// Wait returns.
func (h *Handle) Reason() Reason { return h.reason }
