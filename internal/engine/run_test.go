package engine

import (
	"errors"
	"sync"
	"testing"
)

// TestRunExhaustsInProposeOrder: a query whose repository runs dry leaves
// Run exhausted, with every frame applied exactly once, in propose order.
func TestRunExhaustsInProposeOrder(t *testing.T) {
	q := &fakeQuery{total: 10}
	reason, err := Run(q, Config{FramesPerRound: 3})
	if reason != ReasonExhausted || err != nil {
		t.Fatalf("Run = (%v, %v), want (exhausted, <nil>)", reason, err)
	}
	if q.applied != 10 || q.finalized.Load() != 1 {
		t.Fatalf("applied %d frames and finalized %d times, want 10 and 1", q.applied, q.finalized.Load())
	}
	for i, f := range q.applyOrder {
		if f != int64(i) {
			t.Fatalf("apply %d got frame %d: out of propose order", i, f)
		}
	}
}

// TestRunDiscardsRoundTailAfterDone: Apply reporting done mid-round ends the
// query there; the rest of the round was detected but is never applied.
func TestRunDiscardsRoundTailAfterDone(t *testing.T) {
	q := &fakeQuery{total: 100, doneAfter: 6}
	reason, err := Run(q, Config{FramesPerRound: 4})
	if reason != ReasonDone || err != nil {
		t.Fatalf("Run = (%v, %v), want (done, <nil>)", reason, err)
	}
	// The second round proposed frames 4-7 and done fired at frame 5.
	if q.next != 8 || q.batchFrames.Load() != 8 || q.applied != 6 {
		t.Fatalf("proposed %d, detected %d, applied %d frames; want 8, 8, 6",
			q.next, q.batchFrames.Load(), q.applied)
	}
}

// TestRunDetectErrorAppliesNothingOfItsRound: a failed DetectBatch ends the
// query with ReasonError and that error, and none of the failed round's
// frames are applied.
func TestRunDetectErrorAppliesNothingOfItsRound(t *testing.T) {
	errDown := errors.New("detector down")
	q := &fakeQuery{total: 100}
	q.detectErr = func(frames []int64) error {
		if frames[0] >= 8 {
			return errDown
		}
		return nil
	}
	reason, err := Run(q, Config{FramesPerRound: 4})
	if reason != ReasonError || !errors.Is(err, errDown) {
		t.Fatalf("Run = (%v, %v), want (error, %v)", reason, err, errDown)
	}
	if q.applied != 8 || q.finalized.Load() != 1 {
		t.Fatalf("applied %d frames and finalized %d times, want 8 and 1", q.applied, q.finalized.Load())
	}
}

// boundedAllocQuery is allocQuery over a bounded repository: it proposes
// frames from its reused buffer until total have been drawn.
type boundedAllocQuery struct {
	allocQuery
	total, next int64
}

func (q *boundedAllocQuery) Propose(max int) []int64 {
	q.frames = q.frames[:0]
	for len(q.frames) < max && len(q.frames) < cap(q.frames) && q.next < q.total {
		q.frames = append(q.frames, q.next)
		q.next++
	}
	return q.frames
}

// TestRunAllocsIndependentOfRounds: Run allocates its engine, handle and
// first round scratch once; the rounds after that allocate nothing, so ten
// rounds cost what a hundred do.
func TestRunAllocsIndependentOfRounds(t *testing.T) {
	allocs := func(frames int64) float64 {
		q := &boundedAllocQuery{allocQuery: allocQuery{frames: make([]int64, 0, 4)}, total: frames}
		return testing.AllocsPerRun(20, func() {
			q.next = 0
			if _, err := Run(q, Config{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if ten, hundred := allocs(10), allocs(100); ten != hundred {
		t.Fatalf("Run allocates %.0f objects over 10 rounds, %.0f over 100", ten, hundred)
	}
}

// TestPoolOneWorkerRunsInline: a one-worker pool starts no goroutine; its
// tasks run in order on the caller's.
func TestPoolOneWorkerRunsInline(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	if pool.tasks != nil {
		t.Fatal("one-worker pool started workers")
	}
	var order []int
	tasks := make([]func(), 5)
	for i := range tasks {
		tasks[i] = func() { order = append(order, i) }
	}
	pool.DoWith(&sync.WaitGroup{}, tasks)
	if len(order) != len(tasks) {
		t.Fatalf("ran %d of %d tasks", len(order), len(tasks))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("task %d ran at position %d", got, i)
		}
	}
}
