package engine

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeQuery proposes sequential frames up to total and counts applies. It
// records enough to assert scheduling order and fairness.
type fakeQuery struct {
	total     int64
	next      int64
	applied   int64
	doneAfter int64 // Apply returns done once applied reaches this (0 = never)
	finalized atomic.Int32

	detect      func(frame int64) any // optional per-frame override
	detectErr   func(frames []int64) error
	batchCalls  atomic.Int64
	batchFrames atomic.Int64
	applyOrder  []int64
	mu          sync.Mutex
}

func (f *fakeQuery) Done() bool { return false }

func (f *fakeQuery) Propose(max int) []int64 {
	var frames []int64
	for len(frames) < max && f.next < f.total {
		frames = append(frames, f.next)
		f.next++
	}
	return frames
}

func (f *fakeQuery) DetectBatch(frames []int64) ([]any, error) {
	f.batchCalls.Add(1)
	f.batchFrames.Add(int64(len(frames)))
	if f.detectErr != nil {
		if err := f.detectErr(frames); err != nil {
			return nil, err
		}
	}
	out := make([]any, len(frames))
	for i, frame := range frames {
		if f.detect != nil {
			out[i] = f.detect(frame)
		} else {
			out[i] = frame * 2
		}
	}
	return out, nil
}

func (f *fakeQuery) Apply(frame int64, dets any) (bool, error) {
	if got := dets.(int64); got != frame*2 {
		return false, errors.New("detector result routed to wrong frame")
	}
	f.mu.Lock()
	f.applyOrder = append(f.applyOrder, frame)
	f.mu.Unlock()
	f.applied++
	return f.doneAfter > 0 && f.applied >= f.doneAfter, nil
}

func (f *fakeQuery) Finalize() { f.finalized.Add(1) }

func TestPoolRunsAllTasksWithinBound(t *testing.T) {
	const workers = 4
	pool := NewPool(workers)
	defer pool.Close()

	// Every task holds its worker until the workers-th task is running at
	// once, so the pool must reach its bound (or the test hangs) and the
	// peak is exact.
	var running, peak, ran atomic.Int64
	full := make(chan struct{})
	var fullOnce sync.Once
	tasks := make([]func(), 64)
	for i := range tasks {
		tasks[i] = func() {
			cur := running.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			if cur == workers {
				fullOnce.Do(func() { close(full) })
			}
			<-full
			running.Add(-1)
			ran.Add(1)
		}
	}
	var wg sync.WaitGroup
	pool.DoWith(&wg, tasks)
	if ran.Load() != 64 {
		t.Fatalf("ran %d of 64 tasks", ran.Load())
	}
	if peak.Load() != workers {
		t.Fatalf("observed %d concurrent tasks with %d workers", peak.Load(), workers)
	}
}

func TestPoolEmptyAndClose(t *testing.T) {
	pool := NewPool(0) // clamps to 1
	if pool.Workers() != 1 {
		t.Fatalf("Workers() = %d", pool.Workers())
	}
	pool.DoWith(&sync.WaitGroup{}, nil)
	pool.Close()
	pool.Close() // idempotent
}

func TestEngineRunsQueryToExhaustion(t *testing.T) {
	e := New(Config{Workers: 2, FramesPerRound: 3})
	defer e.Close()

	q := &fakeQuery{total: 10}
	h, err := e.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if h.Reason() != ReasonExhausted {
		t.Fatalf("reason = %v, want exhausted", h.Reason())
	}
	if q.applied != 10 {
		t.Fatalf("applied %d of 10 frames", q.applied)
	}
	for i, f := range q.applyOrder {
		if f != int64(i) {
			t.Fatalf("apply order violated at %d: got frame %d", i, f)
		}
	}
	if q.finalized.Load() != 1 {
		t.Fatalf("finalized %d times", q.finalized.Load())
	}
}

func TestEngineStopsOnApplyDone(t *testing.T) {
	e := New(Config{Workers: 1, FramesPerRound: 4})
	defer e.Close()

	q := &fakeQuery{total: 100, doneAfter: 6}
	h, err := e.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if h.Reason() != ReasonDone {
		t.Fatalf("reason = %v, want done", h.Reason())
	}
	// done fired mid-round (frame 6 of an 8-frame horizon): the rest of
	// the round must be discarded unapplied.
	if q.applied != 6 {
		t.Fatalf("applied %d frames, want 6", q.applied)
	}
}

func TestEngineFairShareAcrossQueries(t *testing.T) {
	e := New(Config{Workers: 4, FramesPerRound: 2})
	defer e.Close()

	// A huge query and a small query submitted together: lock-step rounds
	// with equal quotas mean the small query finishes after ceil(20/2)
	// rounds, by which point the huge one has been given exactly the same
	// number of frames — no starvation in either direction.
	big := &fakeQuery{total: 100000, doneAfter: 40}
	small := &fakeQuery{total: 100000, doneAfter: 20}
	hb, err := e.Submit(big)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := e.Submit(small)
	if err != nil {
		t.Fatal(err)
	}
	if err := hs.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := hb.Wait(); err != nil {
		t.Fatal(err)
	}
	if big.applied != 40 || small.applied != 20 {
		t.Fatalf("applied big=%d small=%d, want 40/20", big.applied, small.applied)
	}
	// When the small query crossed 20 applies, the big one must have had
	// 18–22 (same rounds, ±1 round of apply-order skew).
	bigAt := big.applyOrder
	if len(bigAt) < 20 {
		t.Fatalf("big query starved: only %d applies", len(bigAt))
	}
}

func TestEngineCancellation(t *testing.T) {
	reached, block := make(chan struct{}), make(chan struct{})
	e := New(Config{Workers: 1, FramesPerRound: 1})
	defer e.Close()

	q := &fakeQuery{total: 1 << 40}
	q.detect = func(frame int64) any {
		if frame == 5 {
			// One frame per round: frames 0–4 are applied by now. Hold
			// round 6 open so Cancel lands mid-flight.
			close(reached)
			<-block
		}
		return frame * 2
	}
	h, err := e.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	<-reached
	h.Cancel()
	close(block)
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if h.Reason() != ReasonCancelled {
		t.Fatalf("reason = %v, want cancelled", h.Reason())
	}
	if q.finalized.Load() != 1 {
		t.Fatalf("finalized %d times", q.finalized.Load())
	}
}

func TestEngineApplyErrorPropagates(t *testing.T) {
	e := New(Config{Workers: 2, FramesPerRound: 2})
	defer e.Close()

	q := &fakeQuery{total: 10}
	q.detect = func(frame int64) any { return int64(-1) } // poisons Apply
	h, err := e.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); err == nil {
		t.Fatal("apply error did not propagate")
	}
	if h.Reason() != ReasonError {
		t.Fatalf("reason = %v, want error", h.Reason())
	}
}

func TestEngineDetectBatchErrorPropagates(t *testing.T) {
	e := New(Config{Workers: 2, FramesPerRound: 4})
	defer e.Close()

	boom := errors.New("backend down")
	q := &fakeQuery{total: 100}
	q.detectErr = func(frames []int64) error {
		if frames[0] >= 8 { // fail on the third round's group
			return boom
		}
		return nil
	}
	h, err := e.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want %v", err, boom)
	}
	if h.Reason() != ReasonError {
		t.Fatalf("reason = %v, want error", h.Reason())
	}
	// The failed round's results must not have been applied: exactly the
	// two clean rounds' frames.
	if q.applied != 8 {
		t.Fatalf("applied %d frames, want 8 (failed round discarded)", q.applied)
	}
	if q.finalized.Load() != 1 {
		t.Fatalf("finalized %d times", q.finalized.Load())
	}
}

func TestEngineOneBatchPerRoundWithoutAffinity(t *testing.T) {
	// A non-affine query's whole round is one affinity group, so the
	// engine must issue exactly one DetectBatch per round, each carrying
	// the full per-round quota.
	e := New(Config{Workers: 4, FramesPerRound: 5})
	defer e.Close()

	q := &fakeQuery{total: 20}
	h, err := e.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := q.batchCalls.Load(); got != 4 {
		t.Fatalf("DetectBatch called %d times for 20 frames at 5/round, want 4", got)
	}
	if got := q.batchFrames.Load(); got != 20 {
		t.Fatalf("DetectBatch covered %d frames, want 20", got)
	}
	rounds, detects, batches := e.Counters()
	if rounds < 4 || detects != 20 || batches != 4 {
		t.Fatalf("counters: %d rounds, %d detects, %d batches (want ≥4/20/4)", rounds, detects, batches)
	}
}

func TestEngineSubmitAfterClose(t *testing.T) {
	e := New(Config{})
	e.Close()
	if _, err := e.Submit(&fakeQuery{total: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	e.Close() // idempotent
}

func TestEngineCloseCancelsActive(t *testing.T) {
	e := New(Config{Workers: 1, FramesPerRound: 1})
	q := &fakeQuery{total: 1 << 40}
	ran := make(chan struct{})
	q.detect = func(frame int64) any {
		if frame == 3 {
			close(ran) // a few rounds have run
		}
		return frame * 2
	}
	h, err := e.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	<-ran
	e.Close()
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if h.Reason() != ReasonCancelled {
		t.Fatalf("reason = %v, want cancelled", h.Reason())
	}
}

func TestEngineManyQueriesAllComplete(t *testing.T) {
	e := New(Config{Workers: 3, FramesPerRound: 2})
	defer e.Close()

	queries := make([]*fakeQuery, 16)
	handles := make([]*Handle, 16)
	for i := range queries {
		queries[i] = &fakeQuery{total: 50, doneAfter: int64(10 + i)}
		h, err := e.Submit(queries[i])
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		if err := h.Wait(); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if queries[i].applied != int64(10+i) {
			t.Fatalf("query %d applied %d, want %d", i, queries[i].applied, 10+i)
		}
	}
}

// TestEngineReleasesFinalizedQuery: once a query is finalized and its handle
// dropped, nothing in an open, idle engine keeps the Query value reachable —
// the schedule's backing arrays included.
func TestEngineReleasesFinalizedQuery(t *testing.T) {
	e := New(Config{Workers: 2, FramesPerRound: 3})
	defer e.Close()

	collected := make(chan struct{})
	func() {
		q := &fakeQuery{total: 10}
		runtime.SetFinalizer(q, func(*fakeQuery) { close(collected) })
		h, err := e.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}()
	// The scheduler may still be unwinding the final round when Wait
	// returns, and a finalizer runs one cycle after the object dies.
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("finalized query still reachable from the idle engine")
}
