package cachestore

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/exsample/exsample/backend"
)

// Tier identifies which layer served a frame.
type Tier uint8

const (
	// TierDetector means the fill function ran — a real detector call was
	// paid for this frame.
	TierDetector Tier = iota
	// TierL1 is a local in-process hit.
	TierL1
	// TierL2 is a remote hit (one shared round trip for the batch).
	TierL2
	// TierMerged means another in-flight fill for the same key produced
	// the value — singleflight turned a duplicate miss into a free ride.
	TierMerged
)

// Outcome is one frame's resolution through the tiers.
type Outcome struct {
	Dets  []backend.Detection
	Cost  float64 // the fill-reported inference cost; 0 for every cached tier
	Where Tier
}

// FillFunc resolves the keys FetchBatch could not serve from any tier: miss
// holds indexes into the FetchBatch keys slice, and the returned detections
// and per-key costs must align with miss. It is the seam where the real
// detector call goes. FetchBatch reads the two returned slices (not the
// detections inside them, which it shares) only until the fill is called
// again or FetchBatch returns, so a fill may hand back reused buffers.
type FillFunc func(ctx context.Context, miss []int) ([][]backend.Detection, []float64, error)

// flight is one leader's in-progress fill for the keys it registered.
// Waiters find their key's position through the inflight map and block on
// done; err non-nil means the leader failed (possibly cancelled) and waiters
// must resolve the key themselves.
type flight struct {
	done chan struct{}
	dets [][]backend.Detection // by position among the leader's keys
	err  error
}

// flightRef locates one key's result inside a leader's flight.
type flightRef struct {
	f   *flight
	pos int
}

// fetchScratch is one FetchBatch call's reusable index and key buffers,
// recycled through Tiered's free list so a call allocates nothing of its
// own in steady state.
type fetchScratch struct {
	all, miss, lead, still, retry []int
	waits                         []waiter
	keys                          []Key
	vals                          [][]backend.Detection
}

// waiter is one key this caller resolves from another caller's flight.
type waiter struct {
	i int
	flightRef
}

// Tiered composes the in-process Local (L1) with an optional shared remote
// store (L2), and FetchBatch is the only way in: lookups go L1 → L2 →
// fill, remote hits and fills write through to L1, and fills write through
// to L2 so the whole fleet inherits them. Concurrent identical misses are
// deduplicated per key (singleflight): one caller leads the fill, the
// others wait and merge its result at zero cost — N queries sampling the
// same hot frame pay for one detector call.
//
// Every layer degrades gracefully: an L2 read error counts as a miss and an
// L2 write error is dropped (both surface in TierStats), so a remote cache
// outage slows queries down but never fails them. A fill error — a real
// detector failure — is the only error FetchBatch propagates.
type Tiered struct {
	l1 *Local
	l2 Store // nil disables the remote tier (L1-only, still singleflighted)

	mu       sync.Mutex // guards inflight
	inflight map[Key]flightRef
	freeMu   sync.Mutex // guards free, the idle call scratches
	free     []*fetchScratch

	l1Hits, l1Misses      atomic.Int64
	l2Hits, l2Misses      atomic.Int64
	l2Trips               atomic.Int64
	l2Errors, l2PutErrors atomic.Int64
	merges, fills         atomic.Int64
	rttMu                 sync.Mutex
	rttEWMA               float64
}

// NewTiered composes l1 (required) and l2 (nil for a local-only tier that
// still gets singleflight dedupe).
func NewTiered(l1 *Local, l2 Store) *Tiered {
	if l1 == nil {
		panic("cachestore: NewTiered requires an L1 store")
	}
	return &Tiered{l1: l1, l2: l2, inflight: make(map[Key]flightRef)}
}

// getScratch takes an idle call scratch (or a new one); putScratch returns
// it, dropping the detection references it held. The free list has its own
// mutex, held for a pop or a push only, so concurrent batches never queue
// behind singleflight registration for their scratch. It is not a
// sync.Pool: the race detector makes a pool drop Puts at random, which
// would break the zero-allocation guards under -race.
func (t *Tiered) getScratch() *fetchScratch {
	t.freeMu.Lock()
	defer t.freeMu.Unlock()
	n := len(t.free)
	if n == 0 {
		return new(fetchScratch)
	}
	s := t.free[n-1]
	t.free = t.free[:n-1]
	return s
}

func (t *Tiered) putScratch(s *fetchScratch) {
	clear(s.vals[:cap(s.vals)])
	clear(s.waits[:cap(s.waits)])
	t.freeMu.Lock()
	t.free = append(t.free, s)
	t.freeMu.Unlock()
}

// TierStats is a snapshot of a tiered store's counters.
type TierStats struct {
	// L1Hits/L1Misses count local lookups; L2Hits/L2Misses count the
	// remote lookups issued for L1 misses.
	L1Hits, L1Misses int64
	L2Hits, L2Misses int64
	// L2RoundTrips counts remote GetBatch calls (each covers a whole
	// batch of misses); L2RTTSeconds is their EWMA wall latency.
	L2RoundTrips int64
	L2RTTSeconds float64
	// L2Errors counts remote reads degraded to misses; L2PutErrors counts
	// dropped write-throughs. Both are outages survived, not failures.
	L2Errors, L2PutErrors int64
	// Merges counts frames served by another caller's in-flight fill
	// (singleflight); Fills counts frames the fill function actually
	// served.
	Merges, Fills int64
}

// Stats snapshots the tier counters.
func (t *Tiered) Stats() TierStats {
	t.rttMu.Lock()
	rtt := t.rttEWMA
	t.rttMu.Unlock()
	return TierStats{
		L1Hits:       t.l1Hits.Load(),
		L1Misses:     t.l1Misses.Load(),
		L2Hits:       t.l2Hits.Load(),
		L2Misses:     t.l2Misses.Load(),
		L2RoundTrips: t.l2Trips.Load(),
		L2RTTSeconds: rtt,
		L2Errors:     t.l2Errors.Load(),
		L2PutErrors:  t.l2PutErrors.Load(),
		Merges:       t.merges.Load(),
		Fills:        t.fills.Load(),
	}
}

// observeRTT folds one remote round trip into the EWMA.
func (t *Tiered) observeRTT(d time.Duration) {
	s := d.Seconds()
	t.rttMu.Lock()
	if t.rttEWMA == 0 {
		t.rttEWMA = s
	} else {
		t.rttEWMA = 0.2*s + 0.8*t.rttEWMA
	}
	t.rttMu.Unlock()
}

// FetchBatch resolves keys through the tiers, calling fill exactly once per
// key that no tier holds (deduplicated against concurrent callers). out is
// an optional reusable buffer; the returned slice aliases it when capacity
// suffices and is aligned with keys. fill must be non-nil.
//
// Cost accounting: outcomes served by any cache tier (or merged from
// another caller's fill) carry zero cost — the caller charges its own
// decode-only cost, exactly like a memo-cache hit.
func (t *Tiered) FetchBatch(ctx context.Context, keys []Key, out []Outcome, fill FillFunc) ([]Outcome, error) {
	if fill == nil {
		return nil, fmt.Errorf("cachestore: FetchBatch requires a fill function")
	}
	out = resetOutcomes(out, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	s := t.getScratch()
	defer t.putScratch(s)
	if err := t.lookup(ctx, keys, out, s); err != nil {
		return nil, err
	}
	if len(s.miss) == 0 {
		return out, nil
	}
	if err := t.resolveMisses(ctx, keys, out, fill, s); err != nil {
		return nil, err
	}
	return out, nil
}

// resetOutcomes returns buf resized to n zeroed outcomes, reallocating only
// when its capacity is short.
func resetOutcomes(buf []Outcome, n int) []Outcome {
	if cap(buf) < n {
		return make([]Outcome, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// lookup is the cache half of FetchBatch: L1 for every key, then one L2
// round trip for the L1 misses. Hits land in out; s.miss comes back holding
// the indexes no tier held. The error is the context's, when it ends the
// lookup.
func (t *Tiered) lookup(ctx context.Context, keys []Key, out []Outcome, s *fetchScratch) error {
	s.all = s.all[:0]
	for i := range keys {
		s.all = append(s.all, i)
	}
	s.miss = t.lookupL1(keys, s.all, out, s.miss[:0])
	t.l1Hits.Add(int64(len(keys) - len(s.miss)))
	t.l1Misses.Add(int64(len(s.miss)))
	if len(s.miss) > 0 && t.l2 != nil {
		t.lookupL2(ctx, keys, out, s)
		return ctx.Err()
	}
	return nil
}

// lookupL1 reads keys[i] for every i in idxs from L1, writes the hits into
// out and returns the missed indexes appended to miss.
func (t *Tiered) lookupL1(keys []Key, idxs []int, out []Outcome, miss []int) []int {
	for _, i := range idxs {
		if dets, ok := t.l1.lookup(keys[i]); ok {
			out[i] = Outcome{Dets: dets, Where: TierL1}
		} else {
			miss = append(miss, i)
		}
	}
	return miss
}

// lookupL2 issues the remote lookup for s.miss, writes hits into out and
// through to L1, and leaves s.miss holding the indexes still unresolved. A
// remote error leaves every index a miss (counted, never fatal).
func (t *Tiered) lookupL2(ctx context.Context, keys []Key, out []Outcome, s *fetchScratch) {
	s.keys = s.keys[:0]
	for _, i := range s.miss {
		s.keys = append(s.keys, keys[i])
	}
	start := time.Now()
	entries, err := t.l2.GetBatch(ctx, s.keys)
	t.l2Trips.Add(1)
	t.observeRTT(time.Since(start))
	if err != nil || len(entries) != len(s.miss) {
		t.l2Errors.Add(1)
		return
	}
	rem := s.miss[:0]
	s.keys, s.vals = s.keys[:0], s.vals[:0]
	for j, i := range s.miss {
		if entries[j].Found {
			out[i] = Outcome{Dets: entries[j].Dets, Where: TierL2}
			s.keys = append(s.keys, keys[i])
			s.vals = append(s.vals, entries[j].Dets)
		} else {
			rem = append(rem, i)
		}
	}
	s.miss = rem
	t.l2Hits.Add(int64(len(s.keys)))
	t.l2Misses.Add(int64(len(rem)))
	if len(s.keys) > 0 {
		// Write-through: the next local lookup for these keys is an L1 hit.
		_ = t.l1.PutBatch(ctx, s.keys, s.vals)
	}
}

// resolveMisses runs the singleflight protocol over s.miss: register as
// leader (one flight for every key this caller leads) where no fill is in
// flight, wait (and merge) where one is. A leader that fails — including
// one cancelled mid-fill — completes its flight with the error, and its
// waiters re-resolve those keys with their own fill and their own context,
// so a dying caller can neither wedge nor poison the others.
func (t *Tiered) resolveMisses(ctx context.Context, keys []Key, out []Outcome, fill FillFunc, s *fetchScratch) error {
	s.lead, s.waits = s.lead[:0], s.waits[:0]
	var f *flight
	t.mu.Lock()
	for _, i := range s.miss {
		if ref, ok := t.inflight[keys[i]]; ok {
			s.waits = append(s.waits, waiter{i: i, flightRef: ref})
			continue
		}
		if f == nil {
			f = &flight{done: make(chan struct{})}
		}
		t.inflight[keys[i]] = flightRef{f: f, pos: len(s.lead)}
		s.lead = append(s.lead, i)
	}
	t.mu.Unlock()

	var leadErr error
	if f != nil {
		leadErr = t.leadFill(ctx, keys, out, f, fill, s)
	}
	// Collect merged results even when our own fill failed — the flights we
	// wait on belong to other callers and may well succeed.
	s.retry = s.retry[:0]
	for _, w := range s.waits {
		select {
		case <-w.f.done:
		case <-ctx.Done():
			return ctx.Err()
		}
		if w.f.err != nil {
			s.retry = append(s.retry, w.i)
		} else {
			out[w.i] = Outcome{Dets: w.f.dets[w.pos], Where: TierMerged}
		}
	}
	t.merges.Add(int64(len(s.waits) - len(s.retry)))
	if leadErr != nil {
		return leadErr
	}
	if len(s.retry) > 0 {
		// The leaders we waited on failed; fill directly, without
		// re-registering — one retry bounds the protocol (no wait chains),
		// and any error now is our own fill's error.
		if err := t.runFill(ctx, keys, out, s.retry, fill, s); err != nil {
			return err
		}
		t.putL2(ctx, keys, out, s.retry, s)
	}
	return nil
}

// leadFill runs the fill for the keys this caller leads (s.lead),
// double-checking L1 first: a previous leader may have filled (and
// deregistered) between our L1 miss and our registration, and re-detecting
// would break the exactly-once guarantee the singleflight tests pin. A key
// the double-check finds counts as the L1 hit it turned out to be. The
// flight completes — value or error — before the slow L2 write-through, so
// waiters never stall behind a remote put they do not need.
//
// One flight covers the whole batch, so a waiter on a key the double-check
// found still blocks until the fill for the rest of the batch returns. That
// needs another leader to fill the key between our first L1 pass and our
// registration — rare, and it costs the waiter latency, never a duplicate
// detector call; per-key flights would cost an allocation per missed key
// on every fill instead.
func (t *Tiered) leadFill(ctx context.Context, keys []Key, out []Outcome, f *flight, fill FillFunc, s *fetchScratch) error {
	s.still = t.lookupL1(keys, s.lead, out, s.still[:0])
	if hits := int64(len(s.lead) - len(s.still)); hits > 0 {
		t.l1Hits.Add(hits)
		t.l1Misses.Add(-hits)
	}
	var err error
	if len(s.still) > 0 {
		err = t.runFill(ctx, keys, out, s.still, fill, s)
	}
	f.dets = make([][]backend.Detection, len(s.lead))
	for k, i := range s.lead {
		f.dets[k] = out[i].Dets
	}
	f.err = err
	t.mu.Lock()
	for _, i := range s.lead {
		delete(t.inflight, keys[i])
	}
	t.mu.Unlock()
	close(f.done)
	if err != nil {
		return err
	}
	t.putL2(ctx, keys, out, s.still, s)
	return nil
}

// runFill calls the fill function for keys[i], i in idxs, writes its outcomes
// into out and through to L1. The L1 write happens before the caller's
// flight completes: a caller that registers as leader after our
// deregistration is guaranteed to find the value locally (the exactly-once
// invariant, modulo eviction).
func (t *Tiered) runFill(ctx context.Context, keys []Key, out []Outcome, idxs []int, fill FillFunc, s *fetchScratch) error {
	dets, costs, err := fill(ctx, idxs)
	if err == nil && (len(dets) != len(idxs) || len(costs) != len(idxs)) {
		err = fmt.Errorf("cachestore: fill returned %d detections and %d costs for %d keys", len(dets), len(costs), len(idxs))
	}
	if err != nil {
		return err
	}
	s.keys = s.keys[:0]
	for k, i := range idxs {
		s.keys = append(s.keys, keys[i])
		out[i] = Outcome{Dets: dets[k], Cost: costs[k], Where: TierDetector}
	}
	_ = t.l1.PutBatch(ctx, s.keys, dets)
	t.fills.Add(int64(len(idxs)))
	return nil
}

// putL2 writes filled keys through to the remote tier so the whole fleet
// inherits them; a failure is dropped and counted.
func (t *Tiered) putL2(ctx context.Context, keys []Key, out []Outcome, idxs []int, s *fetchScratch) {
	if t.l2 == nil || len(idxs) == 0 {
		return
	}
	s.keys, s.vals = s.keys[:0], s.vals[:0]
	for _, i := range idxs {
		s.keys = append(s.keys, keys[i])
		s.vals = append(s.vals, out[i].Dets)
	}
	if err := t.l2.PutBatch(ctx, s.keys, s.vals); err != nil {
		t.l2PutErrors.Add(1)
	}
}
