package engine

import (
	"testing"
)

// allocQuery is a minimal steady-state query: it proposes the same frames
// forever from a reused buffer and returns detector results from a reused
// buffer, per the Query contract — so any allocation measured around a
// round belongs to the scheduler itself.
// One query's groups run concurrently, so the result buffer must not be
// shared between in-flight DetectBatch calls (per the Query contract);
// the stub keeps one buffer per affinity key.
type allocQuery struct {
	frames []int64
	dets   [8][]any
	key    func(int64) uint64
	sizer  *stubSizer
}

type stubSizer struct {
	quota    int
	observed int
}

func (q *allocQuery) Done() bool { return false }
func (q *allocQuery) Propose(max int) []int64 {
	n := max
	if n > cap(q.frames) {
		n = cap(q.frames)
	}
	q.frames = q.frames[:n]
	for i := range q.frames {
		q.frames[i] = int64(i)
	}
	return q.frames
}
func (q *allocQuery) DetectBatch(frames []int64) ([]any, error) {
	dets := q.dets[q.AffinityKey(frames[0])%8][:0]
	for range frames {
		dets = append(dets, nil)
	}
	q.dets[q.AffinityKey(frames[0])%8] = dets
	return dets, nil
}
func (q *allocQuery) Apply(frame int64, dets any) (bool, error) { return false, nil }
func (q *allocQuery) Finalize()                                 {}
func (q *allocQuery) AffinityKey(frame int64) uint64 {
	if q.key == nil {
		return 0
	}
	return q.key(frame)
}

// sizedAllocQuery layers the Sized contract on top so the adaptive path's
// allocation budget is guarded too.
type sizedAllocQuery struct{ allocQuery }

func (q *sizedAllocQuery) RoundQuota(base int) int { return q.sizer.quota }
func (q *sizedAllocQuery) ObserveBatch(key uint64, frames int, seconds float64) {
	q.sizer.observed++
}

// roundAllocs measures the steady-state allocation cost of one scheduler
// round over the given queries, after a warmup that sizes every reusable
// scratch buffer.
func roundAllocs(t *testing.T, queries []Query) float64 {
	t.Helper()
	return roundAllocsCfg(t, Config{Workers: 2, FramesPerRound: 4}, queries)
}

// roundAllocsCfg is roundAllocs with an explicit engine configuration, so
// the global-budget round path shares the same guard harness.
func roundAllocsCfg(t *testing.T, cfg Config, queries []Query) float64 {
	t.Helper()
	e := newEngine(cfg)
	defer func() {
		// The loop goroutine never started; release the pool directly.
		close(e.loopDone)
		e.Close()
	}()
	for _, q := range queries {
		if _, err := e.Submit(q); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		e.runOneRound() // warm the scratch pools
	}
	return testing.AllocsPerRun(100, func() { e.runOneRound() })
}

// TestSchedulerRoundAllocFree: the static steady-state round — snapshot,
// propose, group, dispatch, apply — allocates nothing once the scratch is
// warm. This is the allocation budget the perf trajectory relies on; a
// regression here fails CI.
func TestSchedulerRoundAllocFree(t *testing.T) {
	queries := []Query{
		&allocQuery{frames: make([]int64, 0, 8)},
		&allocQuery{frames: make([]int64, 0, 8)},
	}
	if allocs := roundAllocs(t, queries); allocs > 0 {
		t.Fatalf("static scheduler round allocates %.1f objects/round, want 0", allocs)
	}
}

// TestSchedulerRoundAllocFreeGrouped: multi-key rounds exercise the group
// carving and the stable sort; both must stay allocation-free.
func TestSchedulerRoundAllocFreeGrouped(t *testing.T) {
	queries := []Query{
		&allocQuery{frames: make([]int64, 0, 8),
			key: func(f int64) uint64 { return uint64(f) % 3 }},
		&allocQuery{frames: make([]int64, 0, 8),
			key: func(f int64) uint64 { return uint64(f)%3 + 1 }},
	}
	if allocs := roundAllocs(t, queries); allocs > 0 {
		t.Fatalf("grouped scheduler round allocates %.1f objects/round, want 0", allocs)
	}
}

// TestSchedulerRoundAllocBudgetAdaptive: the adaptive path adds quota and
// latency bookkeeping (two clock reads per group) but no steady-state
// allocations.
func TestSchedulerRoundAllocBudgetAdaptive(t *testing.T) {
	sz := &stubSizer{quota: 6}
	q := &sizedAllocQuery{allocQuery{frames: make([]int64, 0, 8), sizer: sz}}
	if allocs := roundAllocs(t, []Query{q}); allocs > 0 {
		t.Fatalf("adaptive scheduler round allocates %.1f objects/round, want 0", allocs)
	}
	if sz.observed == 0 {
		t.Fatal("ObserveBatch never called for a Sized query")
	}
}

// TestSizedQuotaDrivesPropose: a Sized query's RoundQuota replaces the
// static FramesPerRound, and the scheduler clamps nonsense to 1.
func TestSizedQuotaDrivesPropose(t *testing.T) {
	e := newEngine(Config{Workers: 1, FramesPerRound: 4})
	defer func() {
		close(e.loopDone)
		e.Close()
	}()
	sz := &stubSizer{quota: 7}
	q := &sizedAllocQuery{allocQuery{frames: make([]int64, 0, 32), sizer: sz}}
	if _, err := e.Submit(q); err != nil {
		t.Fatal(err)
	}
	e.runOneRound()
	if got := len(q.frames); got != 7 {
		t.Fatalf("round used quota %d, want the Sized query's 7", got)
	}
	sz.quota = -5
	e.runOneRound()
	if got := len(q.frames); got != 1 {
		t.Fatalf("round used quota %d for a non-positive RoundQuota, want clamp to 1", got)
	}
	if sz.observed != 2 {
		t.Fatalf("ObserveBatch called %d times, want 2", sz.observed)
	}
}

// valuedAllocQuery layers the Valued contract on top of the steady-state
// stub so the global-budget planner's value polling is part of the guard.
type valuedAllocQuery struct {
	allocQuery
	value float64
}

func (q *valuedAllocQuery) MarginalValue() float64 { return q.value }

// TestSchedulerRoundAllocFreeGlobalBudget: the global allocator — cap and
// value polling, water-filling plan, grant accounting — rides the same
// reusable scratch and must keep the round at 0 allocs/op, including with a
// Sized query in the fleet and uneven values driving real reallocation
// between queries.
func TestSchedulerRoundAllocFreeGlobalBudget(t *testing.T) {
	sz := &stubSizer{quota: 6}
	queries := []Query{
		&valuedAllocQuery{allocQuery: allocQuery{frames: make([]int64, 0, 16)}, value: 0.4},
		&valuedAllocQuery{allocQuery: allocQuery{frames: make([]int64, 0, 16)}, value: 0.01},
		&allocQuery{frames: make([]int64, 0, 16)},
		&sizedAllocQuery{allocQuery{frames: make([]int64, 0, 16), sizer: sz}},
	}
	cfg := Config{Workers: 2, FramesPerRound: 4, GlobalBudget: 10}
	if allocs := roundAllocsCfg(t, cfg, queries); allocs > 0 {
		t.Fatalf("global-budget scheduler round allocates %.1f objects/round, want 0", allocs)
	}
	if sz.observed == 0 {
		t.Fatal("ObserveBatch never called for a Sized query under the global budget")
	}
}
