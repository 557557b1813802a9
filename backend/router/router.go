// Package router implements a resilient multi-endpoint detector backend:
// one backend.Backend fronting N replica backends (typically
// backend/httpbatch clients pointed at different GPU hosts) with
// per-replica health tracking, weighted load-aware replica selection,
// automatic failover retry, and circuit-breaker re-admission.
//
// The router is the serving-layer half of surviving fleet churn: a dead
// endpoint stops being a query-killing event and becomes a routing event.
// Every DetectBatch picks the healthiest replica (lowest
// latency-weighted load among closed breakers), and a failed call is
// retried transparently on a sibling — the query above never learns the
// first replica died, it just observes a slower batch. Failures are
// scored passively (three consecutive failures trip the breaker) and
// healed actively (an optional probe loop, every second with a 5 s
// timeout per probe) or lazily (a half-open trial call after a 2 s
// cooldown). A failed batch is retried on each other replica at most
// once. This tuning is fixed; a Config names only the fleet, its weights,
// the scatter switch and the probe.
//
// Replicas must be equivalent: they serve the same repository and, for
// the reproducibility guarantees of the exsample pipeline to hold, return
// identical detections for the same (class, frame). Under that contract a
// failover is invisible in the Report — which is exactly what the
// end-to-end tests assert.
package router

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/exsample/exsample/backend"
)

// State is a replica's circuit-breaker state.
type State int

const (
	// Healthy replicas receive traffic.
	Healthy State = iota
	// Open replicas are excluded from routing until the cooldown elapses.
	Open
	// HalfOpen replicas have cooled down and admit one trial call; success
	// closes the breaker, failure re-opens it.
	HalfOpen
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ReplicaSpec declares one replica together with its capacity metadata —
// the structured alternative to the plain Replicas list for heterogeneous
// fleets.
type ReplicaSpec struct {
	// Backend is the replica endpoint (required).
	Backend backend.Backend
	// Name labels the replica in Stats (default "replica-i").
	Name string
	// Weight is the replica's relative capacity: a replica with 4x the
	// throughput of its siblings gets Weight 4 and draws ~4x the batches
	// (and, under Scatter, ~4x the frames of each split batch). Weights
	// only compare against each other, so set them for every replica or
	// for none. Zero derives the weight live: the measured per-frame
	// throughput once the replica has served coldRequests batches, the
	// Hints.MaxBatch ratio before that, 1 when neither signal exists.
	Weight float64
}

// Config parameterizes a Router. Replicas (or Specs) is required; the
// breaker, failover, latency and probe tuning are the fixed constants
// below.
type Config struct {
	// Replicas are the equivalent backends to route across (at least one),
	// labelled "replica-0", ... in Stats. Mutually exclusive with Specs.
	Replicas []backend.Backend
	// Specs declares the replicas with names and per-replica capacity
	// weights — use this instead of Replicas for heterogeneous fleets.
	Specs []ReplicaSpec
	// Scatter splits each large DetectBatch across several healthy
	// replicas proportional to their capacity weights (contiguous frame
	// slices, reassembled in order), instead of sending the whole batch to
	// one replica. A failed slice fails over to untried siblings exactly
	// like a whole batch; a slice that exhausts its retries fails the
	// whole batch, so callers see the same all-or-nothing semantics as
	// single-replica routing. With Scatter on, Hints().MaxBatch reports
	// the fleet's aggregate capacity rather than the most conservative
	// replica's. Off by default: the single-replica path is byte-for-byte
	// the pre-scatter router.
	Scatter bool
	// Probe, when non-nil, is the active health check: the probe loop
	// calls it for every replica each probeInterval, and its error result
	// feeds the same failure scoring as live traffic. A typical probe
	// issues a one-frame DetectBatch for a known class. When nil, health
	// is scored passively from live traffic only and re-admission happens
	// through half-open trial calls.
	Probe func(ctx context.Context, b backend.Backend) error
}

// The router's fixed tuning.
const (
	// scatterMinSlice is the smallest slice worth a separate dispatch:
	// batches under 2*scatterMinSlice frames, and fleets with fewer than
	// two healthy replicas, use the single-replica path.
	scatterMinSlice = 8
	// failureThreshold is how many consecutive failures open a replica's
	// circuit breaker. The counter resets on any success, so sporadic
	// failures only shed load transiently.
	failureThreshold = 3
	// cooldown is how long an open breaker excludes its replica before a
	// half-open trial call is admitted.
	cooldown = 2 * time.Second
	// probeInterval is the probe loop period, and probeTimeout bounds one
	// probe call.
	probeInterval = time.Second
	probeTimeout  = 5 * time.Second
	// latencyDecay is the EWMA coefficient for the per-replica latency
	// estimates; higher weighs recent batches more.
	latencyDecay = 0.3
)

// newProbeTicker starts the probe loop's clock and returns its tick
// channel and stop function. The package's own tests replace it to tick
// the loop by hand.
var newProbeTicker = func() (<-chan time.Time, func()) {
	t := time.NewTicker(probeInterval)
	return t.C, t.Stop
}

// ErrNoHealthyReplicas is wrapped by DetectBatch errors when every
// replica's breaker is open and still cooling down.
var ErrNoHealthyReplicas = errors.New("router: no healthy replicas")

// coldRequests is how many calls a replica serves before its latency
// EWMA is trusted for weighting.
const coldRequests = 3

// replica is one endpoint's routing state. The mutex-guarded fields are
// tiny and uncontended next to the inference calls they account for.
type replica struct {
	b        backend.Backend
	name     string
	weight   float64 // configured capacity weight (0 = derive live)
	maxBatch int     // Hints().MaxBatch cached at construction

	mu          sync.Mutex
	state       State
	consecFails int
	openedAt    time.Time
	trial       bool // a half-open trial call is in flight
	inflight    int
	ewmaSeconds float64
	perFrame    float64 // per-frame latency EWMA — the throughput proxy
	lastErr     error
	lastErrAt   time.Time

	requests  int64
	failures  int64
	successes int64
	opens     int64 // breaker open transitions charged to this replica
	slices    int64 // scatter slices served

	// credit is the replica's smooth weighted-round-robin balance for
	// near-tie picks. Guarded by Router.mu, not rep.mu: only pick touches
	// it, and pick already holds the router lock.
	credit float64
}

// Router is a backend.Backend (and backend.BatchCoster) that fans a fleet
// of equivalent replica backends into one resilient endpoint. It is safe
// for concurrent use by any number of queries.
type Router struct {
	cfg      Config
	replicas []*replica
	mu       sync.Mutex

	failovers int64 // batches (or slices) rescued by a sibling after a failure
	scatters  int64 // batches served scattered across several replicas

	// breakerOpens counts breaker open transitions (healthy/half-open →
	// open) over the router's lifetime — the capacity-loss edge the
	// adaptive batch sizer watches. Atomic so per-round polls never touch
	// the routing locks.
	breakerOpens atomic.Int64

	probeStop chan struct{}
	probeDone chan struct{}

	// now is the router's one clock — latency EWMAs, breaker cooldowns and
	// error timestamps all read it. time.Now outside tests.
	now func() time.Time
}

// Compile-time interface checks.
var (
	_ backend.Backend     = (*Router)(nil)
	_ backend.BatchCoster = (*Router)(nil)
)

// New builds a router over the given replicas and, when Config.Probe is
// set, starts its health-probe loop. Callers that set Probe must Close
// the router to stop the loop.
func New(cfg Config) (*Router, error) {
	if len(cfg.Specs) > 0 && len(cfg.Replicas) > 0 {
		return nil, fmt.Errorf("router: Config.Specs is mutually exclusive with Replicas")
	}
	specs := cfg.Specs
	if len(specs) == 0 {
		if len(cfg.Replicas) == 0 {
			return nil, fmt.Errorf("router: Config.Replicas (or Specs) is required")
		}
		specs = make([]ReplicaSpec, len(cfg.Replicas))
		for i, b := range cfg.Replicas {
			specs[i] = ReplicaSpec{Backend: b}
		}
	}
	r := &Router{cfg: cfg, now: time.Now}
	for i, s := range specs {
		if s.Backend == nil {
			return nil, fmt.Errorf("router: replica %d is nil", i)
		}
		if !(s.Weight >= 0) || math.IsInf(s.Weight, 1) {
			return nil, fmt.Errorf("router: replica %d has negative Weight %v", i, s.Weight)
		}
		name := s.Name
		if name == "" {
			name = fmt.Sprintf("replica-%d", i)
		}
		r.replicas = append(r.replicas, &replica{
			b:        s.Backend,
			name:     name,
			weight:   s.Weight,
			maxBatch: s.Backend.Hints().MaxBatch,
		})
	}
	if cfg.Probe != nil {
		r.probeStop = make(chan struct{})
		r.probeDone = make(chan struct{})
		ticks, stopTicks := newProbeTicker()
		go r.probeLoop(r.probeStop, ticks, stopTicks)
	}
	return r, nil
}

// Close stops the probe loop, if one is running. It does not close the
// replica backends. Close is idempotent.
func (r *Router) Close() {
	r.mu.Lock()
	stop := r.probeStop
	r.probeStop = nil
	r.mu.Unlock()
	if stop != nil {
		close(stop)
		<-r.probeDone
	}
}

// probeLoop actively health-checks every replica on each tick. A probe
// success heals an open breaker without waiting for live traffic to trial
// the replica; a probe failure counts exactly like a live one.
func (r *Router) probeLoop(stop <-chan struct{}, ticks <-chan time.Time, stopTicks func()) {
	defer close(r.probeDone)
	defer stopTicks()
	for {
		select {
		case <-stop:
			return
		case <-ticks:
		}
		for _, rep := range r.replicas {
			ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
			err := r.cfg.Probe(ctx, rep.b)
			cancel()
			if err != nil {
				r.noteFailure(rep, fmt.Errorf("probe: %w", err))
			} else {
				r.noteSuccess(rep, 0, 0, false)
			}
		}
	}
}

// admissible reports whether the replica may receive a call now, moving
// an open breaker to half-open when its cooldown has elapsed. For a
// half-open replica it admits only the single trial call.
func (r *Router) admissible(rep *replica, now time.Time) bool {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	switch rep.state {
	case Healthy:
		return true
	case Open:
		if now.Sub(rep.openedAt) < cooldown {
			return false
		}
		rep.state = HalfOpen
		fallthrough
	case HalfOpen:
		if rep.trial {
			return false
		}
		rep.trial = true
		return true
	}
	return false
}

// capacityWeightLocked returns the replica's relative capacity weight.
// An explicit ReplicaSpec.Weight wins; otherwise a warmed replica's
// measured per-frame throughput (1/perFrame — frames per second, modulo
// batch overhead) is the live estimate, the MaxBatch hint stands in
// before the EWMA warms, and 1 is the no-signal fallback. Weights only
// ever compare against each other, so the mixed scales are harmless: pick
// ranks a cold replica at load 0, so it warms regardless of its weight,
// and scatterBatch splits nothing while a derived-weight replica is cold.
// Caller must hold rep.mu.
func capacityWeightLocked(rep *replica) float64 {
	if rep.weight > 0 {
		return rep.weight
	}
	if rep.requests >= coldRequests && rep.perFrame > 0 {
		return 1 / rep.perFrame
	}
	if rep.maxBatch > 0 {
		return float64(rep.maxBatch)
	}
	return 1
}

// pick selects the next replica to try: among admissible replicas not yet
// tried for this batch, the one with the lowest capacity-weighted load
// ewma*(inflight+1)/weight — weighted least-connections where a replica
// with 4x the capacity carries 4x the latency-load before it stops
// looking light (a replica with no traffic has load ≈ 0 and is always
// worth a try). Loads within ~10% of the lightest are noise-level ties
// (latency EWMAs of equivalent replicas differ by noise); ties resolve by
// smooth weighted round-robin on persistent per-replica credits, so a
// 4:1:1:1 fleet interleaves picks 4-1-1-1 instead of bursting, and equal
// weights reproduce plain round-robin.
func (r *Router) pick(tried map[int]bool) (int, bool) {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	type cand struct {
		i      int
		load   float64
		weight float64
	}
	var cands []cand
	for i, rep := range r.replicas {
		if tried[i] {
			continue
		}
		if !r.admissible(rep, now) {
			continue
		}
		rep.mu.Lock()
		w := capacityWeightLocked(rep)
		load := rep.ewmaSeconds * float64(rep.inflight+1) / w
		if rep.requests < coldRequests {
			// An unmeasured replica has no latency signal to weigh; rank
			// it weightless so cold replicas warm up in weighted rotation
			// instead of starving behind an early lucky measurement.
			load = 0
		}
		rep.mu.Unlock()
		cands = append(cands, cand{i, load, w})
	}
	if len(cands) == 0 {
		return 0, false
	}
	minLoad := cands[0].load
	for _, c := range cands[1:] {
		if c.load < minLoad {
			minLoad = c.load
		}
	}
	// Smooth WRR over the near-tie set: every tied candidate earns credit
	// proportional to its weight, the highest balance wins and pays the
	// round's total back — the classic nginx schedule, which spreads a
	// 4:1:1:1 fleet as 0,1,0,2,0,3,0,0 rather than 0,0,0,0,1,2,3.
	best := -1
	var total float64
	for k := range cands {
		c := &cands[k]
		if c.load*0.9 > minLoad {
			continue // meaningfully heavier than the lightest — not a tie
		}
		rep := r.replicas[c.i]
		rep.credit += c.weight
		total += c.weight
		if best < 0 || rep.credit > r.replicas[cands[best].i].credit {
			best = k
		}
	}
	r.replicas[cands[best].i].credit -= total
	// Candidates scanned but not chosen give back any half-open trial
	// slot admissible() just claimed for them.
	for _, c := range cands {
		if c.i != cands[best].i {
			r.releaseTrial(r.replicas[c.i])
		}
	}
	return cands[best].i, true
}

// releaseTrial returns an unused half-open trial slot.
func (r *Router) releaseTrial(rep *replica) {
	rep.mu.Lock()
	if rep.state == HalfOpen {
		rep.trial = false
	}
	rep.mu.Unlock()
}

// noteSuccess records a successful call (or probe): the breaker closes,
// the failure streak resets and the latency EWMAs absorb the observation
// (probes pass elapsed 0 / frames 0 and update no latency).
func (r *Router) noteSuccess(rep *replica, elapsed time.Duration, frames int, counts bool) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	rep.state = Healthy
	rep.trial = false
	rep.consecFails = 0
	if counts {
		rep.successes++
		sec := elapsed.Seconds()
		d := float64(latencyDecay) // typed, so 1-d rounds as a float64 expression
		if rep.ewmaSeconds == 0 {
			rep.ewmaSeconds = sec
		} else {
			rep.ewmaSeconds = d*sec + (1-d)*rep.ewmaSeconds
		}
		if frames > 0 {
			pf := sec / float64(frames)
			if rep.perFrame == 0 {
				rep.perFrame = pf
			} else {
				rep.perFrame = d*pf + (1-d)*rep.perFrame
			}
		}
	}
}

// noteFailure records a failed call (or probe), opening the breaker when
// the consecutive-failure score reaches the threshold. Only a success
// resets the score, so a failed half-open trial reopens the breaker at
// once: the score is still at or past the threshold that opened it.
func (r *Router) noteFailure(rep *replica, err error) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	rep.failures++
	rep.consecFails++
	rep.lastErr = err
	rep.lastErrAt = r.now()
	if rep.consecFails >= failureThreshold {
		if rep.state != Open {
			r.breakerOpens.Add(1)
			rep.opens++
		}
		rep.state = Open
		rep.openedAt = rep.lastErrAt
		rep.trial = false
	}
}

// Hints implements backend.Backend. With scatter off, the fleet's hints
// are the most conservative of its replicas' — the smallest non-zero
// MaxBatch (every replica must accept a whole routed batch) and the
// first replica's nominal per-frame cost. With scatter on, MaxBatch is
// the fleet aggregate (the sum across replicas, 0/unbounded if any
// replica is unbounded): a scattered batch is sliced to each replica's
// own capacity, so the fleet as a whole absorbs the sum. Replicas should
// still treat their own MaxBatch as a hint, not a contract — a degraded
// fleet routes whole batches to the survivors.
func (r *Router) Hints() backend.Hints {
	h := r.replicas[0].b.Hints()
	if r.cfg.Scatter {
		total := 0
		for _, rep := range r.replicas {
			mb := rep.b.Hints().MaxBatch
			if mb <= 0 {
				total = 0
				break
			}
			total += mb
		}
		h.MaxBatch = total
		return h
	}
	for _, rep := range r.replicas[1:] {
		rh := rep.b.Hints()
		if rh.MaxBatch > 0 && (h.MaxBatch == 0 || rh.MaxBatch < h.MaxBatch) {
			h.MaxBatch = rh.MaxBatch
		}
	}
	return h
}

// DetectBatch implements backend.Backend.
func (r *Router) DetectBatch(ctx context.Context, class string, frames []int64) ([][]backend.Detection, error) {
	dets, _, err := r.DetectBatchCost(ctx, class, frames)
	return dets, err
}

// DetectBatchCost implements backend.BatchCoster: the batch runs on the
// healthiest replica and, should the call fail, fails over to untried
// siblings (each other replica at most once) before surfacing an error. Caller
// cancellation is terminal immediately — a cancelled query never burns
// sibling capacity. Charged costs are the serving replica's: measured
// per-call for BatchCoster replicas, Hints().CostSeconds otherwise.
func (r *Router) DetectBatchCost(ctx context.Context, class string, frames []int64) ([][]backend.Detection, []float64, error) {
	if len(frames) == 0 {
		return nil, nil, nil
	}
	if r.cfg.Scatter {
		if dets, costs, ok, err := r.scatterBatch(ctx, class, frames); ok {
			return dets, costs, err
		}
		// Too small a batch or too few healthy replicas to be worth
		// splitting — fall through to the single-replica path.
	}
	tried := make(map[int]bool)
	var lastErr error
	for attempt := range r.replicas {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		i, ok := r.pick(tried)
		if !ok {
			break
		}
		tried[i] = true
		dets, costs, err := r.call(ctx, r.replicas[i], class, frames)
		if err == nil {
			if attempt > 0 {
				r.mu.Lock()
				r.failovers++
				r.mu.Unlock()
			}
			return dets, costs, nil
		}
		if ctx.Err() != nil {
			// The caller's context aborted the call mid-flight; failing
			// over would waste a sibling on a dead query.
			return nil, nil, ctx.Err()
		}
		lastErr = err
	}
	if lastErr == nil {
		return nil, nil, fmt.Errorf("router: %w (all %d cooling down)", ErrNoHealthyReplicas, len(r.replicas))
	}
	return nil, nil, fmt.Errorf("router: all replicas failed, last: %w", lastErr)
}

// call runs the batch on one replica and feeds the outcome into its
// health state.
func (r *Router) call(ctx context.Context, rep *replica, class string, frames []int64) ([][]backend.Detection, []float64, error) {
	rep.mu.Lock()
	rep.inflight++
	rep.requests++
	rep.mu.Unlock()
	start := r.now()
	var (
		dets  [][]backend.Detection
		costs []float64
		err   error
	)
	if coster, ok := rep.b.(backend.BatchCoster); ok {
		dets, costs, err = coster.DetectBatchCost(ctx, class, frames)
	} else {
		dets, err = rep.b.DetectBatch(ctx, class, frames)
		if err == nil {
			per := rep.b.Hints().CostSeconds
			costs = make([]float64, len(frames))
			for i := range costs {
				costs[i] = per
			}
		}
	}
	if err == nil && len(dets) != len(frames) {
		err = fmt.Errorf("router: replica %s returned %d results for a %d-frame batch", rep.name, len(dets), len(frames))
	}
	elapsed := r.now().Sub(start)
	rep.mu.Lock()
	rep.inflight--
	rep.mu.Unlock()
	if err != nil {
		if ctx.Err() != nil {
			// The caller's cancellation aborted the call; that says nothing
			// about the replica's health, so charge no failure — just give
			// back any half-open trial slot the pick claimed.
			r.releaseTrial(rep)
			return nil, nil, err
		}
		r.noteFailure(rep, err)
		return nil, nil, err
	}
	r.noteSuccess(rep, elapsed, len(frames), true)
	return dets, costs, nil
}

// ReplicaStats is one replica's health and traffic snapshot.
type ReplicaStats struct {
	// Replica is the replica's index; Name its configured label.
	Replica int
	Name    string
	// State is the circuit-breaker state.
	State State
	// Requests, Successes and Failures count calls routed to the replica
	// (probes count toward Failures on error but are not Requests).
	Requests, Successes, Failures int64
	// ConsecutiveFailures is the current failure streak.
	ConsecutiveFailures int
	// EWMALatencySeconds is the decayed per-batch latency estimate — the
	// signal behind weighted picks.
	EWMALatencySeconds float64
	// Weight is the replica's effective capacity weight at snapshot time:
	// the configured ReplicaSpec.Weight, or the live derived estimate.
	Weight float64
	// BreakerOpens counts breaker open transitions charged to this
	// replica over the router's lifetime.
	BreakerOpens int64
	// Slices counts scatter-gather slices this replica served.
	Slices int64
	// LastErr is the most recent failure ("" when none).
	LastErr string
	// LastErrAt is when it happened (zero when none).
	LastErrAt time.Time
}

// Stats snapshots every replica's health and traffic counters.
func (r *Router) Stats() []ReplicaStats {
	out := make([]ReplicaStats, len(r.replicas))
	for i, rep := range r.replicas {
		rep.mu.Lock()
		out[i] = ReplicaStats{
			Replica:             i,
			Name:                rep.name,
			State:               rep.state,
			Requests:            rep.requests,
			Successes:           rep.successes,
			Failures:            rep.failures,
			ConsecutiveFailures: rep.consecFails,
			EWMALatencySeconds:  rep.ewmaSeconds,
			Weight:              capacityWeightLocked(rep),
			BreakerOpens:        rep.opens,
			Slices:              rep.slices,
		}
		if rep.lastErr != nil {
			out[i].LastErr = rep.lastErr.Error()
			out[i].LastErrAt = rep.lastErrAt
		}
		rep.mu.Unlock()
	}
	return out
}

// Failovers returns how many batches (or scatter slices) were rescued by
// a sibling replica after their first pick failed.
func (r *Router) Failovers() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failovers
}

// Scatters returns how many batches were served scattered across several
// replicas (0 unless Config.Scatter is on).
func (r *Router) Scatters() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.scatters
}

// BreakerOpens returns the cumulative count of circuit-breaker open
// transitions across the fleet. It is the capacity-loss signal the
// adaptive batch sizer polls once per scheduling round: any increase means
// a replica just dropped out, so the sustainable batch quota shrank
// whatever the latency EWMA still says. The read is one atomic load —
// safe at any polling rate.
func (r *Router) BreakerOpens() int64 { return r.breakerOpens.Load() }
