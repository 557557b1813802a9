// Package sizer implements feedback-controlled round sizing for the query
// engine: an AIMD (additive-increase, multiplicative-decrease) controller
// that grows a query's per-round detector quota from the engine's static
// FramesPerRound toward the backend's batch capacity while the observed
// batch latency stays flat, and shrinks it multiplicatively when latency
// inflates (queueing) or a circuit breaker opens (capacity loss).
//
// The controller is a pure state machine over the observations it is fed:
// it never reads the clock itself, so a fixed synthetic latency trace
// produces a fixed quota schedule — the property the determinism regression
// tests pin down. The signals it consumes are the ones the serving layer
// already collects: per-batch wall latency measured by the engine scheduler
// (the same quantity backend/httpbatch reports per request and
// backend/router tracks as a per-replica EWMA), and the router's
// breaker-open counter for capacity-loss events.
//
// The per-frame latency model: a batch of q frames costs roughly
// overhead + q·perFrame seconds, so per-frame latency (seconds/q) FALLS as
// the quota grows until the backend saturates, then rises as requests
// queue. AIMD probes that knee: grow by one frame per observation while the
// per-frame EWMA (decay 0.4) stays within 1.5x of the best level observed,
// halve on inflation. The baseline drifts 2% per observation toward the
// current EWMA so a backend that becomes permanently slower (fleet churn,
// model swap) re-anchors instead of pinning the controller at Min forever.
// These constants are fixed; a Config sets only the quota's bounds.
package sizer

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Config parameterizes a Controller: the bounds of its quota.
type Config struct {
	// Min is the quota floor — the engine's static FramesPerRound, and the
	// controller's starting point. Required (>= 1).
	Min int
	// Max is the quota ceiling, normally the backend's Hints.MaxBatch.
	// Values <= 0 select Min*DefaultMaxFactor: an unbounded backend still
	// gets a cap, because a round's picks are drawn before any of its
	// updates apply (§III-F BatchSize semantics) and unbounded rounds would
	// trade away sample efficiency, not just latency. Max below Min is
	// raised to Min.
	Max int
}

// DefaultMaxFactor caps the quota at Min*DefaultMaxFactor when the backend
// advertises no MaxBatch.
const DefaultMaxFactor = 16

// The controller's fixed tuning.
const (
	// shrinkFactor is the multiplicative decrease applied on latency
	// inflation and on capacity loss.
	shrinkFactor = 0.5
	// inflation is the per-frame latency ratio over the baseline that
	// counts as queueing and triggers a shrink.
	inflation = 1.5
	// decay is the EWMA coefficient for the per-frame latency estimate;
	// higher weighs recent batches more.
	decay = 0.4
	// drift is the per-observation relaxation of the baseline toward the
	// current EWMA when the EWMA is above it.
	drift = 0.02
)

func (c Config) withDefaults() Config {
	if c.Max <= 0 {
		c.Max = c.Min * DefaultMaxFactor
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	return c
}

// Validate reports an error for out-of-range parameters.
func (c Config) Validate() error {
	if c.Min < 1 {
		return fmt.Errorf("sizer: Min %d below 1", c.Min)
	}
	return nil
}

// Counters aggregates quota adjustments across every controller sharing
// them (typically all adaptive queries of one engine). All fields are
// atomics so a stats reader never contends with the scheduler.
type Counters struct {
	// Grows and Shrinks count additive increases and multiplicative
	// decreases; CapacityLosses counts shrinks forced by a breaker opening.
	Grows, Shrinks, CapacityLosses atomic.Int64
	// Peak is the largest quota any controller reached.
	Peak atomic.Int64
}

func (c *Counters) notePeak(q int) {
	if c == nil {
		return
	}
	for {
		cur := c.Peak.Load()
		if int64(q) <= cur || c.Peak.CompareAndSwap(cur, int64(q)) {
			return
		}
	}
}

// Controller is one AIMD quota controller — per (query, backend) in the
// engine's wiring, where "backend" is the shard-affinity key that routes a
// round's DetectBatch groups. It is not safe for concurrent use; Fleet
// adds the locking the engine needs.
type Controller struct {
	cfg      Config
	counters *Counters

	quota    int
	ewma     float64 // per-frame latency EWMA (0 until the first observation)
	baseline float64 // best (lowest) per-frame level, with slow upward drift
}

// NewController builds a controller starting at cfg.Min. counters may be
// nil.
func NewController(cfg Config, counters *Counters) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	c := &Controller{cfg: cfg, counters: counters, quota: cfg.Min}
	c.counters.notePeak(c.quota)
	return c, nil
}

// Quota returns the current per-round quota.
func (c *Controller) Quota() int { return c.quota }

// Observe feeds one successful batch observation — frames dispatched and
// the batch's wall latency in seconds — and adjusts the quota: one more
// frame after each flat observation, multiplicative decrease when the
// per-frame EWMA inflates past inflation times the baseline. Observations
// with no frames are ignored.
//
// The EWMA update is weighted by frames/quota: a sub-quota batch — a
// sharded query's round split across shards leaves some groups with a
// handful of frames — overestimates per-frame latency, because the
// backend's fixed per-call overhead is amortized over fewer frames. Full
// batches carry full weight (the single-backend case is unchanged), while
// a 1-frame straggler barely moves the estimate instead of masquerading
// as queueing and halving the quota.
func (c *Controller) Observe(frames int, seconds float64) {
	if frames <= 0 || seconds < 0 {
		return
	}
	per := seconds / float64(frames)
	weight := float64(frames) / float64(c.quota)
	if weight > 1 {
		weight = 1
	}
	if c.ewma == 0 {
		c.ewma = per
	} else {
		d := decay * weight
		c.ewma = d*per + (1-d)*c.ewma
	}
	switch {
	case c.baseline == 0 || c.ewma < c.baseline:
		c.baseline = c.ewma
	default:
		// Relax toward a persistently higher level so a permanently slower
		// backend re-anchors the flatness test instead of shrinking forever.
		c.baseline += drift * (c.ewma - c.baseline)
	}
	if c.ewma > inflation*c.baseline {
		c.shrink(false)
		return
	}
	if c.quota >= c.cfg.Max {
		return
	}
	c.quota++
	if c.counters != nil {
		c.counters.Grows.Add(1)
	}
	c.counters.notePeak(c.quota)
}

// CapacityLoss shrinks the quota multiplicatively in response to a
// capacity-loss event (a replica's circuit breaker opening): the fleet just
// lost a server, so the sustainable batch rate dropped whatever the latency
// EWMA still says.
func (c *Controller) CapacityLoss() { c.shrink(true) }

func (c *Controller) shrink(capacity bool) {
	q := int(float64(c.quota) * shrinkFactor)
	if q < c.cfg.Min {
		q = c.cfg.Min
	}
	if q != c.quota {
		c.quota = q
		if c.counters != nil {
			c.counters.Shrinks.Add(1)
		}
	}
	if capacity && c.counters != nil {
		c.counters.CapacityLosses.Add(1)
	}
}

// ReplicaAll is the replica index for observations and capacity-loss
// events that cannot be attributed to one replica of a backend key — the
// single-controller layout every key has until SeedReplicas declares its
// fleet shape.
const ReplicaAll = -1

// keyCtrs is one backend key's controller set: a single unattributed
// (ReplicaAll) controller by default, or one controller per replica once
// SeedReplicas declares the key fronts a heterogeneous fleet. The slices
// run parallel: reps[i] is the replica index ctrs[i] controls.
type keyCtrs struct {
	key     uint64
	reps    []int
	ctrs    []*Controller
	weights []float64 // static capacity shares (nil = single-controller)
	wsum    float64
	shares  []int     // Observe split scratch
	fracs   []float64 // largest-remainder scratch
}

// ctrFor returns the controller for a replica index, nil when absent.
func (kc *keyCtrs) ctrFor(replica int) *Controller {
	for i, r := range kc.reps {
		if r == replica {
			return kc.ctrs[i]
		}
	}
	return nil
}

// quotaSum is the key's round quota: the sum across its replica
// controllers (a scattered batch is served by all of them at once),
// capped at the fleet ceiling.
func (kc *keyCtrs) quotaSum(max int) int {
	total := 0
	for _, c := range kc.ctrs {
		total += c.Quota()
	}
	if total > max {
		total = max
	}
	return total
}

// split distributes frames across the key's replica controllers
// proportional to the STATIC seed weights by largest remainder (ties to
// the lowest index — deterministic). The static weights mirror how the
// router actually slices a scattered batch; splitting by live quotas
// instead would spiral (a shrunken controller's smaller share reads as
// higher per-frame latency, shrinking it further). Callers hold the
// fleet lock; the returned slice is kc scratch.
func (kc *keyCtrs) split(frames int) []int {
	n := len(kc.weights)
	if kc.shares == nil {
		kc.shares = make([]int, n)
		kc.fracs = make([]float64, n)
	}
	assigned := 0
	for i, w := range kc.weights {
		ideal := float64(frames) * w / kc.wsum
		s := int(ideal)
		kc.shares[i] = s
		kc.fracs[i] = ideal - float64(s)
		assigned += s
	}
	for assigned < frames {
		best := 0
		for i := 1; i < n; i++ {
			if kc.fracs[i] > kc.fracs[best] {
				best = i
			}
		}
		kc.shares[best]++
		kc.fracs[best]--
		assigned++
	}
	return kc.shares
}

// Fleet is the engine-facing controller set for one query: one controller
// per (backend key, replica), created lazily on first observation —
// per-key only (ReplicaAll) until SeedReplicas declares a key's replica
// fleet. The query's round quota is the MINIMUM across its keys — the
// slowest backend gates the round's wall time, so it gates the quota too
// — where a seeded key's own quota is the SUM across its replica
// controllers. Fleet is safe for concurrent use: quota reads come from
// stats surfaces while the scheduler observes batches.
type Fleet struct {
	mu    sync.Mutex
	cfg   Config
	keys  []*keyCtrs   // tiny (one per shard-affinity key): linear scan
	quota atomic.Int64 // cached min across keys

	counters *Counters
}

// NewFleet builds a fleet. counters may be nil; it is shared with every
// controller the fleet creates.
func NewFleet(cfg Config, counters *Counters) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	f := &Fleet{cfg: cfg, counters: counters}
	f.quota.Store(int64(cfg.Min))
	counters.notePeak(cfg.Min)
	return f, nil
}

// Quota returns the query's current per-round quota: the minimum across
// its per-backend-key quotas, cfg.Min before any observation.
func (f *Fleet) Quota() int { return int(f.quota.Load()) }

// SeedReplicas declares that key's backend fronts a fleet of
// len(weights) replicas with the given static capacity shares (the
// router's scatter split), so the key learns one AIMD quota per replica:
// each controller starts from its proportional share of cfg.Min and may
// grow to its share of cfg.Max, and CapacityLoss can shrink one
// replica's controller without touching its siblings. Idempotent; a
// no-op for fewer than two replicas or a key that already has
// controllers.
func (f *Fleet) SeedReplicas(key uint64, weights []float64) {
	if len(weights) < 2 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if kc := f.findKey(key); kc != nil {
		return
	}
	n := len(weights)
	ws := make([]float64, n)
	var wsum float64
	for i, w := range weights {
		if w <= 0 {
			w = 1
		}
		ws[i] = w
		wsum += w
	}
	kc := &keyCtrs{key: key, weights: ws, wsum: wsum}
	// Proportional floors (each at least 1 so every controller is a
	// valid AIMD instance), remainders to the largest fractional shares.
	mins := make([]int, n)
	fracs := make([]float64, n)
	assigned := 0
	for i, w := range ws {
		ideal := float64(f.cfg.Min) * w / wsum
		s := int(ideal)
		if s < 1 {
			s = 1
		}
		mins[i] = s
		fracs[i] = ideal - float64(s)
		assigned += s
	}
	for assigned < f.cfg.Min {
		best := 0
		for i := 1; i < n; i++ {
			if fracs[i] > fracs[best] {
				best = i
			}
		}
		mins[best]++
		fracs[best]--
		assigned++
	}
	for i, w := range ws {
		cfg := f.cfg
		cfg.Min = mins[i]
		cfg.Max = int(float64(f.cfg.Max)*w/wsum + 0.999999)
		if cfg.Max < cfg.Min {
			cfg.Max = cfg.Min
		}
		c, err := NewController(cfg, f.counters)
		if err != nil {
			return // cannot happen: derived from a validated config
		}
		kc.reps = append(kc.reps, i)
		kc.ctrs = append(kc.ctrs, c)
	}
	f.keys = append(f.keys, kc)
	f.recompute()
}

// Observe feeds one successful batch observation for the given backend
// key. For a seeded key the frames are split across the replica
// controllers by the static seed weights — each replica served its share
// of the scattered batch within the same wall time.
func (f *Fleet) Observe(key uint64, frames int, seconds float64) {
	if frames <= 0 || seconds < 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	kc := f.keyFor(key)
	if kc == nil {
		return
	}
	if len(kc.weights) == 0 {
		kc.ctrs[0].Observe(frames, seconds)
	} else {
		shares := kc.split(frames)
		for i, s := range shares {
			if s > 0 {
				kc.ctrs[i].Observe(s, seconds)
			}
		}
	}
	f.recompute()
}

// CapacityLoss shrinks the controller for the given (key, replica) — the
// signalled replica's breaker opened, so only its share of the round
// quota is unsustainable; siblings (and other keys) keep their learned
// quotas. Events for a key without per-replica controllers shrink the
// key's unattributed controller; events for an unknown key are counted
// but shrink nothing (there is no quota to shrink yet).
func (f *Fleet) CapacityLoss(key uint64, replica int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if kc := f.findKey(key); kc != nil {
		c := kc.ctrFor(replica)
		if c == nil {
			c = kc.ctrFor(ReplicaAll)
		}
		if c == nil && len(kc.ctrs) > 0 {
			c = kc.ctrs[0]
		}
		if c != nil {
			c.CapacityLoss()
			f.recompute()
			return
		}
	}
	if f.counters != nil {
		f.counters.CapacityLosses.Add(1)
	}
}

// CapacityLossAll shrinks every controller — for capacity-loss events
// that cannot be attributed to one backend key or replica: losing a
// server somewhere reduces the capacity every round competes for.
func (f *Fleet) CapacityLossAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.keys) == 0 {
		// No observations yet: a quota already at Min has nothing to
		// shrink; just count the event.
		if f.counters != nil {
			f.counters.CapacityLosses.Add(1)
		}
		return
	}
	for _, kc := range f.keys {
		for _, c := range kc.ctrs {
			c.CapacityLoss()
		}
	}
	f.recompute()
}

// findKey returns the key's controller set, nil when absent. Callers
// hold f.mu.
func (f *Fleet) findKey(key uint64) *keyCtrs {
	for _, kc := range f.keys {
		if kc.key == key {
			return kc
		}
	}
	return nil
}

// keyFor returns (creating a single-controller set if needed) the
// controller set for key. Callers hold f.mu.
func (f *Fleet) keyFor(key uint64) *keyCtrs {
	if kc := f.findKey(key); kc != nil {
		return kc
	}
	c, err := NewController(f.cfg, f.counters)
	if err != nil {
		return nil
	}
	kc := &keyCtrs{key: key, reps: []int{ReplicaAll}, ctrs: []*Controller{c}}
	f.keys = append(f.keys, kc)
	return kc
}

// recompute refreshes the cached min-across-keys quota. Callers hold
// f.mu.
func (f *Fleet) recompute() {
	min := f.cfg.Min
	for i, kc := range f.keys {
		q := kc.quotaSum(f.cfg.Max)
		f.counters.notePeak(q)
		if i == 0 || q < min {
			min = q
		}
	}
	f.quota.Store(int64(min))
}
