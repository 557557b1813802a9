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
// breaker-open counter for capacity-loss events. Fleet keeps one
// controller per backend key and shrinks them all on a capacity loss.
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

// keyCtr is one backend key's controller.
type keyCtr struct {
	key uint64
	ctr *Controller
}

// Fleet is the engine-facing controller set for one query: one controller
// per backend key (the shard-affinity key), created lazily on the key's
// first observation. The query's round quota is the MINIMUM across its
// keys — the slowest backend gates the round's wall time, so it gates the
// quota too. A capacity-loss edge shrinks every key's controller
// (CapacityLossAll): the engine polls one aggregate breaker-open counter
// per source, so it cannot tell which key lost the server. Fleet is safe
// for concurrent use: quota reads come from stats surfaces while the
// scheduler observes batches.
type Fleet struct {
	mu    sync.Mutex
	cfg   Config
	keys  []keyCtr     // tiny (one per shard-affinity key): linear scan
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

// Observe feeds one successful batch observation to the given backend
// key's controller.
func (f *Fleet) Observe(key uint64, frames int, seconds float64) {
	if frames <= 0 || seconds < 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.ctrFor(key)
	if c == nil {
		return
	}
	c.Observe(frames, seconds)
	f.recompute()
}

// CapacityLossAll shrinks every controller: losing a server somewhere
// reduces the capacity every round competes for.
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
		kc.ctr.CapacityLoss()
	}
	f.recompute()
}

// ctrFor returns (creating it if needed) the controller for key. Callers
// hold f.mu.
func (f *Fleet) ctrFor(key uint64) *Controller {
	for _, kc := range f.keys {
		if kc.key == key {
			return kc.ctr
		}
	}
	c, err := NewController(f.cfg, f.counters)
	if err != nil {
		return nil
	}
	f.keys = append(f.keys, keyCtr{key: key, ctr: c})
	return c
}

// recompute refreshes the cached min-across-keys quota. Callers hold
// f.mu.
func (f *Fleet) recompute() {
	min := f.cfg.Min
	for i, kc := range f.keys {
		if q := kc.ctr.Quota(); i == 0 || q < min {
			min = q
		}
	}
	f.quota.Store(int64(min))
}
