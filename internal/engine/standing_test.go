package engine

import (
	"sync/atomic"
	"testing"
)

// standingFake is a Standing query fed frames from outside: Propose drains
// whatever pending frames have been granted (through reused buffers, per
// the contract) and returns empty once dry, which is the park trigger.
type standingFake struct {
	pending   atomic.Int64
	next      int64
	buf       []int64
	dets      []any
	applied   atomic.Int64
	finalized atomic.Int32
	standing  bool
	// applyN, when non-nil, is closed by the applyAt-th Apply.
	applyN  chan struct{}
	applyAt int64
}

func (s *standingFake) StandingQuery() bool { return s.standing }
func (s *standingFake) Done() bool          { return false }

func (s *standingFake) Propose(max int) []int64 {
	n := int(s.pending.Load())
	if n > max {
		n = max
	}
	s.buf = s.buf[:0]
	for i := 0; i < n; i++ {
		s.buf = append(s.buf, s.next)
		s.next++
	}
	s.pending.Add(int64(-n))
	return s.buf
}

func (s *standingFake) DetectBatch(frames []int64) ([]any, error) {
	s.dets = s.dets[:0]
	for range frames {
		s.dets = append(s.dets, nil)
	}
	return s.dets, nil
}

func (s *standingFake) Apply(frame int64, dets any) (bool, error) {
	if s.applied.Add(1) == s.applyAt && s.applyN != nil {
		close(s.applyN)
	}
	return false, nil
}

// afterPark returns once the scheduler has run every query already on the
// schedule through one more Propose, so a drained standing query has
// parked. It submits a bounded query with nothing to propose and waits for
// its exhaustion: that query sits behind the others on the schedule (or
// runs in a later round), so it is finalized only after their Proposes and
// the parks that follow them.
func afterPark(t *testing.T, e *Engine) {
	t.Helper()
	obs, err := e.Submit(&standingFake{})
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Wait(); err != nil {
		t.Fatal(err)
	}
}

func (s *standingFake) Finalize() { s.finalized.Add(1) }

// TestStandingQueryParksAndWakes: a standing query over a drained
// repository parks with no terminal reason, resumes when woken with new
// frames, parks again when dry, and finalizes only on Cancel. The scheduler
// loop runs throughout, so each Wake lands on an idle loop blocked waiting
// for work.
func TestStandingQueryParksAndWakes(t *testing.T) {
	e := New(Config{Workers: 2, FramesPerRound: 4})
	defer e.Close()
	applied := make(chan struct{})
	q := &standingFake{standing: true, buf: make([]int64, 0, 8), dets: make([]any, 0, 8), applyN: applied, applyAt: 3}
	h, err := e.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	afterPark(t, e)
	if !h.Parked() {
		t.Fatal("drained standing query did not park")
	}
	if q.finalized.Load() != 0 {
		t.Fatal("standing query finalized on park")
	}

	// Feed three frames and wake: they must all be applied, then the query
	// parks again.
	q.pending.Add(3)
	h.Wake()
	<-applied
	afterPark(t, e)
	if !h.Parked() {
		t.Fatal("standing query did not re-park once dry")
	}

	if parks, wakes := e.ParkCounters(); parks != 2 || wakes != 1 {
		t.Fatalf("ParkCounters = (%d, %d), want (2, 1)", parks, wakes)
	}

	// Cancel wakes the parked handle so it finalizes promptly.
	h.Cancel()
	if err := h.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if h.Reason() != ReasonCancelled {
		t.Fatalf("Reason = %v, want cancelled", h.Reason())
	}
	if q.finalized.Load() != 1 {
		t.Fatalf("finalized %d times", q.finalized.Load())
	}
}

// TestBoundedQueryStillExhausts: a query that does not implement Standing
// (or declines it) keeps the terminal exhaustion semantics.
func TestBoundedQueryStillExhausts(t *testing.T) {
	e := New(Config{Workers: 1, FramesPerRound: 2})
	defer e.Close()
	q := &standingFake{standing: false, buf: make([]int64, 0, 4), dets: make([]any, 0, 4)}
	h, err := e.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if h.Reason() != ReasonExhausted {
		t.Fatalf("Reason = %v, want exhausted", h.Reason())
	}
}

// TestWakeDuringRoundIsNotLost: the lost-wakeup race, deterministically. A
// wake that lands while the handle is still on the schedule (mid-round,
// from the scheduler's perspective) must veto the park that follows the
// same round's empty Propose — otherwise an append between Propose and
// park would leave the query asleep on available data forever.
func TestWakeDuringRoundIsNotLost(t *testing.T) {
	e := newEngine(Config{Workers: 1, FramesPerRound: 2})
	defer func() {
		close(e.loopDone)
		e.Close()
	}()
	q := &standingFake{standing: true, buf: make([]int64, 0, 4), dets: make([]any, 0, 4)}
	h, err := e.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	// Wake while active: remembered, not lost.
	q.pending.Add(1)
	h.Wake()
	e.runOneRound() // proposes the fed frame normally
	if q.applied.Load() != 1 {
		t.Fatalf("applied %d frames, want 1", q.applied.Load())
	}
	h.Wake() // arrives "mid-round": handle is active, flag must persist
	e.runOneRound()
	if h.Parked() {
		t.Fatal("park won over a pending wake")
	}
	// No wake this time: the empty round parks.
	e.runOneRound()
	if !h.Parked() {
		t.Fatal("standing query did not park on a quiet empty round")
	}
}

// TestCloseFinalizesParked: Close must not strand parked handles — they
// re-enter the schedule cancelled and Wait returns.
func TestCloseFinalizesParked(t *testing.T) {
	e := New(Config{Workers: 1, FramesPerRound: 1})
	q := &standingFake{standing: true, buf: make([]int64, 0, 2), dets: make([]any, 0, 2)}
	h, err := e.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	afterPark(t, e)
	if !h.Parked() {
		t.Fatal("drained standing query did not park")
	}
	e.Close()
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if h.Reason() != ReasonCancelled {
		t.Fatalf("Reason = %v, want cancelled", h.Reason())
	}
	if q.finalized.Load() != 1 {
		t.Fatalf("finalized %d times", q.finalized.Load())
	}
}

// TestParkWakeAllocFree: the standing steady state — wake, propose the
// appended frame, apply, drain, park — allocates nothing once the scratch
// is warm. This is the append/wake hot-path budget: a camera appending a
// segment every few seconds against a fleet of standing queries must not
// turn the scheduler into a garbage factory.
func TestParkWakeAllocFree(t *testing.T) {
	e := newEngine(Config{Workers: 1, FramesPerRound: 4})
	defer func() {
		close(e.loopDone)
		e.Close()
	}()
	q := &standingFake{standing: true, buf: make([]int64, 0, 8), dets: make([]any, 0, 8)}
	h, err := e.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	e.runOneRound() // initial empty propose: enter the parked steady state
	cycle := func() {
		q.pending.Add(1)
		h.Wake()
		e.runOneRound() // proposes and applies the appended frame
		e.runOneRound() // drained again: parks
	}
	for i := 0; i < 10; i++ {
		cycle() // warm the scratch pools and the park/active slices
	}
	if !h.Parked() {
		t.Fatal("warmup did not end parked")
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Fatalf("park/wake cycle allocates %.1f objects, want 0", allocs)
	}
}
