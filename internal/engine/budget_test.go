package engine

import (
	"math"
	"testing"
)

// budgetQuery records the quota each round offers it, so the allocation
// plan is observable through the Propose contract.
type budgetQuery struct {
	allocQuery
	value   float64
	offered []int
}

func (q *budgetQuery) Propose(max int) []int64 {
	q.offered = append(q.offered, max)
	return q.allocQuery.Propose(max)
}

type valuedBudgetQuery struct{ budgetQuery }

func (q *valuedBudgetQuery) MarginalValue() float64 { return q.value }

func newBudgetEngine(t *testing.T, cfg Config, queries []Query) *Engine {
	t.Helper()
	e := newEngine(cfg)
	t.Cleanup(func() {
		close(e.loopDone)
		e.Close()
	})
	for _, q := range queries {
		if _, err := e.Submit(q); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestBudgetProportionalToValue: a hot query's grant dwarfs a cold one's,
// the floor still reaches the cold query, and the full budget is spent.
func TestBudgetProportionalToValue(t *testing.T) {
	hot := &valuedBudgetQuery{budgetQuery{value: 0.3}}
	hot.frames = make([]int64, 0, 64)
	cold := &valuedBudgetQuery{budgetQuery{value: 0.003}}
	cold.frames = make([]int64, 0, 64)
	cfg := Config{Workers: 1, FramesPerRound: 32, GlobalBudget: 16}
	e := newBudgetEngine(t, cfg, []Query{hot, cold})
	e.runOneRound()
	if len(hot.offered) != 1 || len(cold.offered) != 1 {
		t.Fatalf("offered lengths %d/%d, want 1/1", len(hot.offered), len(cold.offered))
	}
	if got := hot.offered[0] + cold.offered[0]; got != 16 {
		t.Fatalf("round granted %d frames total, want the full budget 16", got)
	}
	if cold.offered[0] < 1 {
		t.Fatalf("cold query offered %d frames, want at least the floor 1", cold.offered[0])
	}
	if hot.offered[0] < 13 {
		t.Fatalf("hot query offered %d of 16 frames; proportional fill should give it the bulk", hot.offered[0])
	}
	granted, requested := e.BudgetCounters()
	if granted != 16 || requested != 64 {
		t.Fatalf("BudgetCounters = (%d, %d), want (16, 64)", granted, requested)
	}
}

// TestBudgetEqualValuesSplitEvenly: identical values degenerate to
// fair-share — the equivalence the regression suite at the repo root pins
// byte-for-byte on real queries.
func TestBudgetEqualValuesSplitEvenly(t *testing.T) {
	var qs []Query
	var recs []*valuedBudgetQuery
	for i := 0; i < 4; i++ {
		q := &valuedBudgetQuery{budgetQuery{value: 0.2}}
		q.frames = make([]int64, 0, 64)
		qs = append(qs, q)
		recs = append(recs, q)
	}
	cfg := Config{Workers: 1, FramesPerRound: 8, GlobalBudget: 32}
	e := newBudgetEngine(t, cfg, qs)
	e.runOneRound()
	for i, q := range recs {
		if q.offered[0] != 8 {
			t.Fatalf("query %d offered %d frames, want 8 (even split of 32)", i, q.offered[0])
		}
	}
}

// TestBudgetRespectsSizedCaps: a Sized query's RoundQuota bounds its grant
// even when its value would claim more, and the surplus flows to the next
// query instead of evaporating.
func TestBudgetRespectsSizedCaps(t *testing.T) {
	sz := &stubSizer{quota: 3}
	capped := &sizedAllocQuery{allocQuery{frames: make([]int64, 0, 64), sizer: sz}}
	other := &valuedBudgetQuery{budgetQuery{value: 0.05}}
	other.frames = make([]int64, 0, 64)
	cfg := Config{Workers: 1, FramesPerRound: 16, GlobalBudget: 12}
	e := newBudgetEngine(t, cfg, []Query{capped, other})
	e.runOneRound()
	if got := len(capped.frames); got != 3 {
		t.Fatalf("Sized query ran %d frames, want its RoundQuota cap 3", got)
	}
	if got := other.offered[0]; got != 9 {
		t.Fatalf("other query offered %d frames, want the remaining 9", got)
	}
}

// TestBudgetFloorReachesZeroValueQuery: the starvation guarantee — a query
// whose beliefs have fully decayed still receives the floor every round, so
// it drains its repository and terminates instead of hanging.
func TestBudgetFloorReachesZeroValueQuery(t *testing.T) {
	dead := &valuedBudgetQuery{budgetQuery{value: 0}}
	dead.frames = make([]int64, 0, 64)
	hot := &valuedBudgetQuery{budgetQuery{value: 0.4}}
	hot.frames = make([]int64, 0, 64)
	// Budget 9 = the hot query's cap 8 + the floor 1, so no surplus can
	// reach the zero-value query: all it gets is the floor.
	cfg := Config{Workers: 1, FramesPerRound: 8, GlobalBudget: 9}
	e := newBudgetEngine(t, cfg, []Query{dead, hot})
	for i := 0; i < 5; i++ {
		e.runOneRound()
	}
	for i, got := range dead.offered {
		if got != floorQuota {
			t.Fatalf("round %d offered the zero-value query %d frames, want exactly the floor %d", i, got, floorQuota)
		}
	}
	for i, got := range hot.offered {
		if got != 8 {
			t.Fatalf("round %d offered the hot query %d frames, want its full cap 8", i, got)
		}
	}
}

// TestBudgetNaNAndNegativeValues: garbage values are treated as zero, not
// propagated into the plan.
func TestBudgetNaNAndNegativeValues(t *testing.T) {
	nan := &valuedBudgetQuery{budgetQuery{value: math.NaN()}}
	nan.frames = make([]int64, 0, 64)
	neg := &valuedBudgetQuery{budgetQuery{value: -3}}
	neg.frames = make([]int64, 0, 64)
	ok := &valuedBudgetQuery{budgetQuery{value: 0.1}}
	ok.frames = make([]int64, 0, 64)
	cfg := Config{Workers: 1, FramesPerRound: 8, GlobalBudget: 10}
	e := newBudgetEngine(t, cfg, []Query{nan, neg, ok})
	e.runOneRound()
	if nan.offered[0] != 1 || neg.offered[0] != 1 {
		t.Fatalf("NaN/negative-value queries offered %d/%d frames, want the floor 1", nan.offered[0], neg.offered[0])
	}
	if ok.offered[0] != 8 {
		t.Fatalf("valid query offered %d frames, want its cap 8", ok.offered[0])
	}
}

// TestBudgetAllZeroValuesSpreadEvenly: when every query reports zero value
// the leftover budget spreads evenly instead of collapsing onto one handle.
func TestBudgetAllZeroValuesSpreadEvenly(t *testing.T) {
	var qs []Query
	var recs []*valuedBudgetQuery
	for i := 0; i < 3; i++ {
		q := &valuedBudgetQuery{budgetQuery{value: 0}}
		q.frames = make([]int64, 0, 64)
		qs = append(qs, q)
		recs = append(recs, q)
	}
	cfg := Config{Workers: 1, FramesPerRound: 8, GlobalBudget: 9}
	e := newBudgetEngine(t, cfg, qs)
	e.runOneRound()
	for i, q := range recs {
		if q.offered[0] != 3 {
			t.Fatalf("query %d offered %d frames, want 3 (even spread of 9)", i, q.offered[0])
		}
	}
}

// TestBudgetPerHandleCounters: the handle-level granted/requested split
// matches the plan and stays zero under fair-share.
func TestBudgetPerHandleCounters(t *testing.T) {
	hot := &valuedBudgetQuery{budgetQuery{value: 0.5}}
	hot.frames = make([]int64, 0, 64)
	cold := &valuedBudgetQuery{budgetQuery{value: 0}}
	cold.frames = make([]int64, 0, 64)
	cfg := Config{Workers: 1, FramesPerRound: 4, GlobalBudget: 5}
	e := newEngine(cfg)
	t.Cleanup(func() {
		close(e.loopDone)
		e.Close()
	})
	hh, err := e.Submit(hot)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := e.Submit(cold)
	if err != nil {
		t.Fatal(err)
	}
	e.runOneRound()
	if g, r := hh.BudgetCounters(); g != 4 || r != 4 {
		t.Fatalf("hot handle counters = (%d, %d), want (4, 4)", g, r)
	}
	if g, r := ch.BudgetCounters(); g != 1 || r != 4 {
		t.Fatalf("cold handle counters = (%d, %d), want (1, 4)", g, r)
	}

	fair := newEngine(Config{Workers: 1, FramesPerRound: 4})
	t.Cleanup(func() {
		close(fair.loopDone)
		fair.Close()
	})
	q := &valuedBudgetQuery{budgetQuery{value: 0.5}}
	q.frames = make([]int64, 0, 64)
	fh, err := fair.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	fair.runOneRound()
	if g, r := fh.BudgetCounters(); g != 0 || r != 0 {
		t.Fatalf("fair-share handle counters = (%d, %d), want (0, 0)", g, r)
	}
}
