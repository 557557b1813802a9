package engine

import (
	"sync"
	"testing"
)

// affineQuery is a fakeQuery whose frames alternate between two shards
// (frame parity) and which records the global execution order of its
// detect calls through a shared recorder.
type affineQuery struct {
	fakeQuery
	id  uint64
	rec *detectRecorder
}

type detectRecorder struct {
	mu   sync.Mutex
	keys []uint64
}

func (r *detectRecorder) record(key uint64) {
	r.mu.Lock()
	r.keys = append(r.keys, key)
	r.mu.Unlock()
}

func (q *affineQuery) AffinityKey(frame int64) uint64 {
	return q.id<<16 | uint64(frame%2)
}

func newAffineQuery(id uint64, total int64, rec *detectRecorder) *affineQuery {
	q := &affineQuery{id: id, rec: rec}
	q.fakeQuery.total = total
	q.fakeQuery.detect = func(frame int64) any {
		rec.record(q.AffinityKey(frame))
		return frame * 2
	}
	return q
}

func TestRoundGroupsDetectBatchByAffinityKey(t *testing.T) {
	// One worker executes pool tasks in submission order, so the recorded
	// key sequence is exactly the scheduler's grouping. With two affine
	// queries proposing 8 frames each, every round's 16 tasks must be
	// sorted by key (queries interleave shards; grouping un-interleaves).
	// Both are submitted before the scheduler starts, so every round until
	// they exhaust carries both.
	e := newEngine(Config{Workers: 1, FramesPerRound: 8})
	defer e.Close()

	rec := &detectRecorder{}
	q1 := newAffineQuery(1, 32, rec)
	q2 := newAffineQuery(2, 32, rec)
	h1, err := e.Submit(q1)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := e.Submit(q2)
	if err != nil {
		t.Fatal(err)
	}
	go e.loop()
	if err := h1.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := h2.Wait(); err != nil {
		t.Fatal(err)
	}
	if h1.Reason() != ReasonExhausted || h2.Reason() != ReasonExhausted {
		t.Fatalf("reasons %v, %v", h1.Reason(), h2.Reason())
	}

	rec.mu.Lock()
	keys := append([]uint64(nil), rec.keys...)
	rec.mu.Unlock()
	if len(keys) != 64 {
		t.Fatalf("recorded %d detect calls, want 64", len(keys))
	}
	// Rounds where both queries were active carry 16 tasks; within each
	// such round the key sequence must be non-decreasing. (Single-query
	// rounds at the tail are trivially grouped.)
	for start := 0; start+16 <= len(keys); start += 16 {
		round := keys[start : start+16]
		for i := 1; i < len(round); i++ {
			if round[i] < round[i-1] {
				t.Fatalf("round starting at %d not grouped by key: %v", start, round)
			}
		}
	}

	// Grouping must not break per-query apply order: applies arrive in
	// propose order regardless of execution order.
	for qi, q := range []*affineQuery{q1, q2} {
		for i, frame := range q.applyOrder {
			if frame != int64(i) {
				t.Fatalf("query %d applied frame %d at position %d", qi, frame, i)
			}
		}
	}
}

func TestAffinityGroupingPreservesNonAffineOrder(t *testing.T) {
	// A mixed round (one affine, one plain query): the plain query's
	// tasks keep their relative order and everything still runs.
	e := New(Config{Workers: 2, FramesPerRound: 4})
	defer e.Close()

	rec := &detectRecorder{}
	aff := newAffineQuery(7, 20, rec)
	plain := &fakeQuery{total: 20}
	h1, err := e.Submit(aff)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := e.Submit(plain)
	if err != nil {
		t.Fatal(err)
	}
	if err := h1.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := h2.Wait(); err != nil {
		t.Fatal(err)
	}
	if aff.applied != 20 || plain.applied != 20 {
		t.Fatalf("applied %d and %d of 20 frames", aff.applied, plain.applied)
	}
	rounds, detects, batches := e.Counters()
	if rounds == 0 || detects != 40 {
		t.Fatalf("counters: %d rounds, %d detects (want 40)", rounds, detects)
	}
	if batches >= detects {
		t.Fatalf("batches %d not smaller than detects %d: grouping issued per-frame calls", batches, detects)
	}
}

func TestRoundIssuesOneDetectBatchPerAffinityGroup(t *testing.T) {
	// An affine query alternating between two shards at 8 frames/round
	// must see exactly 2 DetectBatch calls per round — one per shard
	// group, each carrying that shard's 4 frames — not 8 per-frame calls.
	e := New(Config{Workers: 2, FramesPerRound: 8})
	defer e.Close()

	rec := &detectRecorder{}
	q := newAffineQuery(3, 32, rec)
	h, err := e.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	// 32 frames at 8/round = 4 rounds × 2 shard groups.
	if got := q.batchCalls.Load(); got != 8 {
		t.Fatalf("DetectBatch called %d times, want 8 (2 groups × 4 rounds)", got)
	}
	if got := q.batchFrames.Load(); got != 32 {
		t.Fatalf("DetectBatch covered %d frames, want 32", got)
	}
	_, detects, batches := e.Counters()
	if detects != 32 || batches != 8 {
		t.Fatalf("counters: %d detects, %d batches (want 32/8)", detects, batches)
	}
}
