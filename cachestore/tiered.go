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
// detector call goes.
type FillFunc func(ctx context.Context, miss []int) ([][]backend.Detection, []float64, error)

// flight is one in-progress fill for a single key. Waiters block on done;
// err non-nil means the leader failed (possibly cancelled) and waiters must
// resolve the key themselves.
type flight struct {
	done chan struct{}
	dets []backend.Detection
	cost float64
	err  error
}

// Tiered composes a fast local store (L1) with a shared remote store (L2):
// lookups go L1 → L2 → fill, remote hits and fills write through to L1, and
// fills write through to L2 so the whole fleet inherits them. Concurrent
// identical misses are deduplicated per key (singleflight): one caller
// leads the fill, the others wait and merge its result at zero cost — N
// queries sampling the same hot frame pay for one detector call.
//
// Every layer degrades gracefully: an L2 read error counts as a miss and an
// L2 write error is dropped (both surface in TierStats), so a remote cache
// outage slows queries down but never fails them. A fill error — a real
// detector failure — is the only error FetchBatch propagates.
//
// Tiered itself implements Store (GetBatch/PutBatch fan across the tiers),
// so stores nest: a Tiered can serve as another process's L2 behind an
// httpcache.Handler.
type Tiered struct {
	l1 Store
	l2 Store // nil disables the remote tier (L1-only, still singleflighted)

	mu       sync.Mutex
	inflight map[Key]*flight

	l1Hits, l1Misses       atomic.Int64
	l2Hits, l2Misses       atomic.Int64
	l2Trips                atomic.Int64
	l2Errors, l2PutErrors  atomic.Int64
	merges, fills, warmed  atomic.Int64
	rttMu                  sync.Mutex
	rttEWMA, rttLastSecond float64
}

// Compile-time interface check.
var _ Store = (*Tiered)(nil)

// NewTiered composes l1 (required) and l2 (nil for a local-only tier that
// still gets singleflight dedupe).
func NewTiered(l1, l2 Store) *Tiered {
	if l1 == nil {
		panic("cachestore: NewTiered requires an L1 store")
	}
	return &Tiered{l1: l1, l2: l2, inflight: make(map[Key]*flight)}
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
	// served; Warmed counts entries copied L2→L1 by Warm.
	Merges, Fills, Warmed int64
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
		Warmed:       t.warmed.Load(),
	}
}

// CountRange delegates the cache-aware sampler's per-range entry count to
// the L1 store (0 when the L1 cannot count).
func (t *Tiered) CountRange(content uint64, class string, start, end int64) int {
	if rc, ok := t.l1.(rangeCounter); ok {
		return rc.CountRange(content, class, start, end)
	}
	return 0
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
	t.rttLastSecond = s
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
	if cap(out) < len(keys) {
		out = make([]Outcome, len(keys))
	}
	out = out[:len(keys)]
	for i := range out {
		out[i] = Outcome{}
	}
	if len(keys) == 0 {
		return out, nil
	}

	// L1.
	miss := make([]int, 0, len(keys))
	if entries, err := t.l1.GetBatch(ctx, keys); err == nil && len(entries) == len(keys) {
		for i, e := range entries {
			if e.Found {
				out[i] = Outcome{Dets: e.Dets, Where: TierL1}
				t.l1Hits.Add(1)
			} else {
				t.l1Misses.Add(1)
				miss = append(miss, i)
			}
		}
	} else {
		// A failing L1 degrades to all-miss; the fill (and L2) still serve.
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		t.l1Misses.Add(int64(len(keys)))
		for i := range keys {
			miss = append(miss, i)
		}
	}

	// L2: one shared round trip for every L1 miss.
	if len(miss) > 0 && t.l2 != nil {
		miss = t.lookupL2(ctx, keys, out, miss)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	if len(miss) == 0 {
		return out, nil
	}
	if err := t.resolveMisses(ctx, keys, out, miss, fill); err != nil {
		return nil, err
	}
	return out, nil
}

// lookupL2 issues the remote lookup for the given misses, writes hits
// through to L1, and returns the indexes still unresolved. A remote error
// leaves every index a miss (counted, never fatal).
func (t *Tiered) lookupL2(ctx context.Context, keys []Key, out []Outcome, miss []int) []int {
	k2 := make([]Key, len(miss))
	for j, i := range miss {
		k2[j] = keys[i]
	}
	start := time.Now()
	entries, err := t.l2.GetBatch(ctx, k2)
	t.l2Trips.Add(1)
	t.observeRTT(time.Since(start))
	if err != nil || len(entries) != len(miss) {
		t.l2Errors.Add(1)
		return miss
	}
	rem := miss[:0]
	var wbKeys []Key
	var wbVals [][]backend.Detection
	for j, i := range miss {
		if entries[j].Found {
			out[i] = Outcome{Dets: entries[j].Dets, Where: TierL2}
			t.l2Hits.Add(1)
			wbKeys = append(wbKeys, keys[i])
			wbVals = append(wbVals, entries[j].Dets)
		} else {
			t.l2Misses.Add(1)
			rem = append(rem, i)
		}
	}
	if len(wbKeys) > 0 {
		// Write-through: the next local lookup for these keys is an L1 hit.
		_ = t.l1.PutBatch(ctx, wbKeys, wbVals)
	}
	return rem
}

// resolveMisses runs the singleflight protocol over the unresolved keys:
// register as leader where no fill is in flight, wait (and merge) where one
// is. A leader that fails — including one cancelled mid-fill — completes
// its flights with the error, and its waiters re-resolve those keys with
// their own fill and their own context, so a dying caller can neither wedge
// nor poison the others.
func (t *Tiered) resolveMisses(ctx context.Context, keys []Key, out []Outcome, miss []int, fill FillFunc) error {
	var lead, waitIdx []int
	var waits []*flight
	t.mu.Lock()
	for _, i := range miss {
		if f, ok := t.inflight[keys[i]]; ok {
			waitIdx = append(waitIdx, i)
			waits = append(waits, f)
		} else {
			f := &flight{done: make(chan struct{})}
			t.inflight[keys[i]] = f
			lead = append(lead, i)
		}
	}
	t.mu.Unlock()

	var leadErr error
	if len(lead) > 0 {
		leadErr = t.leadFill(ctx, keys, out, lead, fill)
	}
	// Collect merged results even when our own fill failed — the flights we
	// wait on belong to other callers and may well succeed.
	var retry []int
	for k, f := range waits {
		i := waitIdx[k]
		select {
		case <-f.done:
		case <-ctx.Done():
			return ctx.Err()
		}
		if f.err != nil {
			retry = append(retry, i)
		} else {
			out[i] = Outcome{Dets: f.dets, Where: TierMerged}
			t.merges.Add(1)
		}
	}
	if leadErr != nil {
		return leadErr
	}
	if len(retry) > 0 {
		// The leaders we waited on failed; fill directly, without
		// re-registering — one retry bounds the protocol (no wait chains),
		// and any error now is our own fill's error.
		return t.directFill(ctx, keys, out, retry, fill)
	}
	return nil
}

// leadFill runs the fill for the keys this caller leads, double-checking L1
// first: a previous leader may have filled (and deregistered) between our
// L1 miss and our registration, and re-detecting would break the
// exactly-once guarantee the singleflight tests pin. Flights complete —
// value or error — before the slow L2 write-through, so waiters never
// stall behind a remote put they do not need.
func (t *Tiered) leadFill(ctx context.Context, keys []Key, out []Outcome, lead []int, fill FillFunc) error {
	// Double-check L1 under our leadership.
	kk := make([]Key, len(lead))
	for k, i := range lead {
		kk[k] = keys[i]
	}
	still := lead[:0]
	if entries, err := t.l1.GetBatch(ctx, kk); err == nil && len(entries) == len(lead) {
		for k, i := range lead {
			if entries[k].Found {
				out[i] = Outcome{Dets: entries[k].Dets, Where: TierL1}
				t.l1Hits.Add(1)
				t.completeFlight(keys[i], entries[k].Dets, 0, nil)
			} else {
				still = append(still, i)
			}
		}
	} else {
		still = lead
	}
	if len(still) == 0 {
		return nil
	}

	dets, costs, err := fill(ctx, still)
	if err == nil && (len(dets) != len(still) || len(costs) != len(still)) {
		err = fmt.Errorf("cachestore: fill returned %d detections and %d costs for %d keys", len(dets), len(costs), len(still))
	}
	if err != nil {
		for _, i := range still {
			t.completeFlight(keys[i], nil, 0, err)
		}
		return err
	}
	fk := make([]Key, len(still))
	for k, i := range still {
		fk[k] = keys[i]
	}
	// L1 write-through happens before the flights complete: a caller that
	// registers as leader after our deregistration is guaranteed to find
	// the value locally (the exactly-once invariant, modulo eviction).
	_ = t.l1.PutBatch(ctx, fk, dets)
	for k, i := range still {
		t.completeFlight(keys[i], dets[k], costs[k], nil)
		out[i] = Outcome{Dets: dets[k], Cost: costs[k], Where: TierDetector}
	}
	t.fills.Add(int64(len(still)))
	if t.l2 != nil {
		if perr := t.l2.PutBatch(ctx, fk, dets); perr != nil {
			t.l2PutErrors.Add(1)
		}
	}
	return nil
}

// completeFlight publishes one led key's result (or error) and deregisters
// it.
func (t *Tiered) completeFlight(key Key, dets []backend.Detection, cost float64, err error) {
	t.mu.Lock()
	f := t.inflight[key]
	delete(t.inflight, key)
	t.mu.Unlock()
	if f == nil {
		return
	}
	f.dets, f.cost, f.err = dets, cost, err
	close(f.done)
}

// directFill serves keys whose leaders failed: a plain fill with this
// caller's context, written through both tiers, with no singleflight
// registration (bounded retries beat wait chains).
func (t *Tiered) directFill(ctx context.Context, keys []Key, out []Outcome, idxs []int, fill FillFunc) error {
	dets, costs, err := fill(ctx, idxs)
	if err == nil && (len(dets) != len(idxs) || len(costs) != len(idxs)) {
		err = fmt.Errorf("cachestore: fill returned %d detections and %d costs for %d keys", len(dets), len(costs), len(idxs))
	}
	if err != nil {
		return err
	}
	fk := make([]Key, len(idxs))
	for k, i := range idxs {
		fk[k] = keys[i]
	}
	_ = t.l1.PutBatch(ctx, fk, dets)
	for k, i := range idxs {
		out[i] = Outcome{Dets: dets[k], Cost: costs[k], Where: TierDetector}
	}
	t.fills.Add(int64(len(idxs)))
	if t.l2 != nil {
		if perr := t.l2.PutBatch(ctx, fk, dets); perr != nil {
			t.l2PutErrors.Add(1)
		}
	}
	return nil
}

// Warm copies L2 entries for the given keys into L1 without touching the
// fill path — the ahead-of-query prefetch behind Engine.Warm. It returns
// how many of the keys were present remotely. Unlike lookups, a remote
// error here is returned: warming is an explicit operation whose caller
// wants to know the remote tier is unreachable.
func (t *Tiered) Warm(ctx context.Context, keys []Key) (int, error) {
	if t.l2 == nil {
		return 0, fmt.Errorf("cachestore: no remote tier to warm from")
	}
	if len(keys) == 0 {
		return 0, nil
	}
	start := time.Now()
	entries, err := t.l2.GetBatch(ctx, keys)
	t.l2Trips.Add(1)
	t.observeRTT(time.Since(start))
	if err != nil {
		t.l2Errors.Add(1)
		return 0, err
	}
	if len(entries) != len(keys) {
		t.l2Errors.Add(1)
		return 0, fmt.Errorf("cachestore: remote returned %d entries for %d keys", len(entries), len(keys))
	}
	var wbKeys []Key
	var wbVals [][]backend.Detection
	for i, e := range entries {
		if e.Found {
			wbKeys = append(wbKeys, keys[i])
			wbVals = append(wbVals, e.Dets)
		}
	}
	if len(wbKeys) > 0 {
		if err := t.l1.PutBatch(ctx, wbKeys, wbVals); err != nil {
			return 0, err
		}
	}
	t.warmed.Add(int64(len(wbKeys)))
	return len(wbKeys), nil
}

// GetBatch implements Store: L1 → L2 with write-through, no fill. Misses
// come back Found false.
func (t *Tiered) GetBatch(ctx context.Context, keys []Key) ([]Entry, error) {
	out := make([]Entry, len(keys))
	miss := make([]int, 0, len(keys))
	if entries, err := t.l1.GetBatch(ctx, keys); err == nil && len(entries) == len(keys) {
		for i, e := range entries {
			if e.Found {
				out[i] = e
				t.l1Hits.Add(1)
			} else {
				t.l1Misses.Add(1)
				miss = append(miss, i)
			}
		}
	} else {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		t.l1Misses.Add(int64(len(keys)))
		for i := range keys {
			miss = append(miss, i)
		}
	}
	if len(miss) > 0 && t.l2 != nil {
		outcomes := make([]Outcome, len(keys))
		for _, i := range t.lookupL2(ctx, keys, outcomes, miss) {
			_ = i // unresolved stay Found false
		}
		for _, i := range miss {
			if outcomes[i].Where == TierL2 {
				out[i] = Entry{Found: true, Dets: outcomes[i].Dets}
			}
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return out, nil
}

// PutBatch implements Store: write-through to both tiers. An L2 write
// failure is dropped and counted, matching the lookup path's degradation.
func (t *Tiered) PutBatch(ctx context.Context, keys []Key, vals [][]backend.Detection) error {
	if err := checkPut(keys, vals); err != nil {
		return err
	}
	if err := t.l1.PutBatch(ctx, keys, vals); err != nil {
		return err
	}
	if t.l2 != nil {
		if err := t.l2.PutBatch(ctx, keys, vals); err != nil {
			t.l2PutErrors.Add(1)
		}
	}
	return nil
}
