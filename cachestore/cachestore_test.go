package cachestore

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/exsample/exsample/backend"
)

func det(frame int64, score float64) backend.Detection {
	return backend.Detection{
		Frame: frame,
		Class: "car",
		Box:   backend.Box{X1: 1, Y1: 2, X2: 3, Y2: 4},
		Score: score,
	}
}

// TestLocalStore: PutBatch/GetBatch round-trip through the internal cache,
// distinguishing memoized-empty from absent.
func TestLocalStore(t *testing.T) {
	l := NewLocal(1024)
	ctx := context.Background()
	keys := []Key{
		{Content: 7, Class: "car", Frame: 10},
		{Content: 7, Class: "car", Frame: 20},
	}
	vals := [][]backend.Detection{{det(10, 0.9)}, nil} // nil = memoized empty
	if err := l.PutBatch(ctx, keys, vals); err != nil {
		t.Fatal(err)
	}
	got, err := l.GetBatch(ctx, append(keys, Key{Content: 7, Class: "car", Frame: 30}))
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Found || len(got[0].Dets) != 1 || got[0].Dets[0].Score != 0.9 {
		t.Fatalf("entry 0 = %+v, want found with one detection", got[0])
	}
	if !got[1].Found || got[1].Dets != nil {
		t.Fatalf("entry 1 = %+v, want memoized empty (found, no dets)", got[1])
	}
	if got[2].Found {
		t.Fatalf("entry 2 = %+v, want absent", got[2])
	}
}

// TestLocalForcesKeyFrame: a stored detection's Frame is the key's frame,
// whatever a confused remote payload claimed — misrouted entries cannot
// leak detections onto the wrong frame.
func TestLocalForcesKeyFrame(t *testing.T) {
	l := NewLocal(16)
	ctx := context.Background()
	k := Key{Content: 1, Class: "car", Frame: 50}
	if err := l.PutBatch(ctx, []Key{k}, [][]backend.Detection{{det(999, 0.5)}}); err != nil {
		t.Fatal(err)
	}
	got, err := l.GetBatch(ctx, []Key{k})
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Found || got[0].Dets[0].Frame != 50 {
		t.Fatalf("got %+v, want detection pinned to frame 50", got[0])
	}
}

// TestLocalGetBatchAllHitsAllocs: a Local lookup shares the cached slices
// with the caller, so an all-hit batch allocates its []Entry and nothing
// per detection.
func TestLocalGetBatchAllHitsAllocs(t *testing.T) {
	l := NewLocal(1024)
	ctx := context.Background()
	keys := make([]Key, 16)
	vals := make([][]backend.Detection, len(keys))
	for i := range keys {
		keys[i] = Key{Content: 7, Class: "car", Frame: int64(i)}
		for k := 0; k < 8; k++ {
			vals[i] = append(vals[i], det(int64(i), 0.5))
		}
	}
	if err := l.PutBatch(ctx, keys, vals); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		got, err := l.GetBatch(ctx, keys)
		if err != nil || !got[len(got)-1].Found {
			t.Fatalf("GetBatch = %+v, %v; want all hits", got, err)
		}
	})
	if allocs != 1 {
		t.Fatalf("all-hit GetBatch allocates %.2f objects/batch, want 1 (its []Entry)", allocs)
	}
}

// TestFetchBatchL1HitsAllocFree: an all-L1-hit FetchBatch over a Local L1
// with a reused outcome buffer allocates nothing — the per-call index
// buffers come from the tier's free list and the Local lookup shares the
// cached slices.
func TestFetchBatchL1HitsAllocFree(t *testing.T) {
	tiered := NewTiered(NewLocal(1024), nil)
	ctx := context.Background()
	keys := make([]Key, 32)
	for i := range keys {
		keys[i] = Key{Content: 8, Class: "car", Frame: int64(i)}
	}
	var fc fillCounter
	fill := fc.fill(keys)
	out, err := tiered.FetchBatch(ctx, keys, nil, fill)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if out, err = tiered.FetchBatch(ctx, keys, out, fill); err != nil || out[0].Where != TierL1 {
			t.Fatalf("FetchBatch = %+v, %v; want all L1 hits", out[0], err)
		}
	})
	if allocs != 0 {
		t.Fatalf("all-L1-hit FetchBatch allocates %.2f objects/batch, want 0", allocs)
	}
}

// BenchmarkFetchBatchL1HitsParallel: all-L1-hit batches from concurrent
// callers, the shape of many queries or parallel affinity groups reading a
// warm tier. Run with -cpu above the core count to load the scratch lock.
func BenchmarkFetchBatchL1HitsParallel(b *testing.B) {
	tiered := NewTiered(NewLocal(1024), nil)
	ctx := context.Background()
	keys := make([]Key, 32)
	for i := range keys {
		keys[i] = Key{Content: 8, Class: "car", Frame: int64(i)}
	}
	var fc fillCounter
	fill := fc.fill(keys)
	if _, err := tiered.FetchBatch(ctx, keys, nil, fill); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var out []Outcome
		for pb.Next() {
			var err error
			if out, err = tiered.FetchBatch(ctx, keys, out, fill); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// fillFromMap is a test fill that serves from a fixed map and counts calls
// per key.
type fillCounter struct {
	mu    sync.Mutex
	calls map[Key]int
}

func (fc *fillCounter) fill(keys []Key) FillFunc {
	return func(_ context.Context, miss []int) ([][]backend.Detection, []float64, error) {
		fc.mu.Lock()
		if fc.calls == nil {
			fc.calls = make(map[Key]int)
		}
		for _, i := range miss {
			fc.calls[keys[i]]++
		}
		fc.mu.Unlock()
		dets := make([][]backend.Detection, len(miss))
		costs := make([]float64, len(miss))
		for j, i := range miss {
			dets[j] = []backend.Detection{det(keys[i].Frame, 0.8)}
			costs[j] = 0.002
		}
		return dets, costs, nil
	}
}

// TestTieredFetchBatch: cold keys fill (and write through both tiers), a
// second fetch is all L1, and a fresh L1 over the same L2 hits remotely.
func TestTieredFetchBatch(t *testing.T) {
	l2 := NewLocal(1024)
	tiered := NewTiered(NewLocal(1024), l2)
	ctx := context.Background()
	keys := []Key{
		{Content: 3, Class: "car", Frame: 1},
		{Content: 3, Class: "car", Frame: 2},
	}
	var fc fillCounter
	out, err := tiered.FetchBatch(ctx, keys, nil, fc.fill(keys))
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if o.Where != TierDetector || o.Cost != 0.002 || len(o.Dets) != 1 {
			t.Fatalf("cold outcome %d = %+v, want detector fill", i, o)
		}
	}
	out, err = tiered.FetchBatch(ctx, keys, out, fc.fill(keys))
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if o.Where != TierL1 || o.Cost != 0 {
			t.Fatalf("warm outcome %d = %+v, want L1 hit at zero cost", i, o)
		}
	}
	for k, n := range fc.calls {
		if n != 1 {
			t.Fatalf("key %v filled %d times, want 1", k, n)
		}
	}

	// A second process: fresh L1, same L2.
	second := NewTiered(NewLocal(1024), l2)
	var fc2 fillCounter
	out2, err := second.FetchBatch(ctx, keys, nil, fc2.fill(keys))
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out2 {
		if o.Where != TierL2 || o.Cost != 0 {
			t.Fatalf("second-user outcome %d = %+v, want L2 hit at zero cost", i, o)
		}
	}
	if len(fc2.calls) != 0 {
		t.Fatalf("second user paid %d detector calls, want 0", len(fc2.calls))
	}
	// And the L2 hits wrote through: third fetch is all L1.
	out2, err = second.FetchBatch(ctx, keys, out2, fc2.fill(keys))
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out2 {
		if o.Where != TierL1 {
			t.Fatalf("write-through outcome %d = %+v, want L1 hit", i, o)
		}
	}
	st := second.Stats()
	if st.L2Hits != 2 || st.L2RoundTrips != 1 || st.Fills != 0 {
		t.Fatalf("second-user stats = %+v, want 2 L2 hits over 1 round trip, 0 fills", st)
	}
	if st.L2RTTSeconds <= 0 {
		t.Fatalf("L2RTTSeconds = %v, want > 0 after a round trip", st.L2RTTSeconds)
	}
}

// errStore fails every call.
type errStore struct{}

func (errStore) GetBatch(context.Context, []Key) ([]Entry, error) {
	return nil, errors.New("remote down")
}
func (errStore) PutBatch(context.Context, []Key, [][]backend.Detection) error {
	return errors.New("remote down")
}

// TestTieredL2Degrades: a failing remote counts errors but the fetch still
// succeeds through the fill, and write-through failures are dropped.
func TestTieredL2Degrades(t *testing.T) {
	tiered := NewTiered(NewLocal(64), errStore{})
	ctx := context.Background()
	keys := []Key{{Content: 9, Class: "car", Frame: 4}}
	var fc fillCounter
	out, err := tiered.FetchBatch(ctx, keys, nil, fc.fill(keys))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Where != TierDetector {
		t.Fatalf("outcome = %+v, want detector fill despite remote outage", out[0])
	}
	st := tiered.Stats()
	if st.L2Errors != 1 || st.L2PutErrors != 1 {
		t.Fatalf("stats = %+v, want one read error and one dropped put", st)
	}
}

// TestSingleflightExactlyOnce: N concurrent fetches of the same cold keys
// pay exactly one fill per key — the others merge or hit L1.
func TestSingleflightExactlyOnce(t *testing.T) {
	tiered := NewTiered(NewLocal(1024), nil)
	keys := make([]Key, 16)
	for i := range keys {
		keys[i] = Key{Content: 21, Class: "car", Frame: int64(i)}
	}
	const callers = 8
	var fills, waiting atomic.Int64
	slowFill := func(_ context.Context, miss []int) ([][]backend.Detection, []float64, error) {
		// Hold the leader until every other caller waits on its flight.
		// Having missed L1 is not enough: a caller that reaches the
		// singleflight registry only after this fill returned finds the
		// keys in L1 on its double-check and never merges. The deadline
		// keeps a broken protocol (no caller ever waits) from hanging the
		// test: the fill count below reports it instead.
		deadline := time.Now().Add(10 * time.Second)
		for waiting.Load() < callers-1 && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		fills.Add(int64(len(miss)))
		dets := make([][]backend.Detection, len(miss))
		costs := make([]float64, len(miss))
		for j, i := range miss {
			dets[j] = []backend.Detection{det(keys[i].Frame, 0.8)}
		}
		return dets, costs, nil
	}
	var wg sync.WaitGroup
	outcomes := make([][]Outcome, callers)
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := &waitSignal{Context: context.Background(), waiting: &waiting}
			outcomes[c], errs[c] = tiered.FetchBatch(ctx, keys, nil, slowFill)
		}(c)
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatalf("caller %d: %v", c, errs[c])
		}
		for i, o := range outcomes[c] {
			if len(o.Dets) != 1 || o.Dets[0].Frame != keys[i].Frame {
				t.Fatalf("caller %d outcome %d = %+v, want frame %d", c, i, o, keys[i].Frame)
			}
		}
	}
	if n := fills.Load(); n != int64(len(keys)) {
		t.Fatalf("fill served %d frames across %d concurrent callers, want exactly %d", n, callers, len(keys))
	}
	if st := tiered.Stats(); st.Merges == 0 {
		t.Fatal("no singleflight merges recorded for concurrent identical fetches")
	}
}

// waitSignal is a context that counts its caller into waiting the first
// time Done is asked for. With no L2, FetchBatch asks only once the caller
// blocks on another caller's flight, so the count is how many callers are
// merging.
type waitSignal struct {
	context.Context
	waiting *atomic.Int64
	once    sync.Once
}

func (w *waitSignal) Done() <-chan struct{} {
	w.once.Do(func() { w.waiting.Add(1) })
	return w.Context.Done()
}

// TestSingleflightLeaderCancelled: a leader cancelled mid-fill completes
// its flights with the error; waiters neither wedge nor inherit it — they
// re-fill with their own context and succeed.
func TestSingleflightLeaderCancelled(t *testing.T) {
	tiered := NewTiered(NewLocal(64), nil)
	keys := []Key{{Content: 31, Class: "car", Frame: 0}}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderIn := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err := tiered.FetchBatch(leaderCtx, keys, nil,
			func(ctx context.Context, miss []int) ([][]backend.Detection, []float64, error) {
				close(leaderIn)
				<-ctx.Done() // simulate a fill aborted by cancellation
				return nil, nil, ctx.Err()
			})
		leaderErr <- err
	}()
	<-leaderIn // the leader's flight is registered and its fill is running

	waiterDone := make(chan error, 1)
	var waiterOut []Outcome
	var waiterFills atomic.Int64
	go func() {
		out, err := tiered.FetchBatch(context.Background(), keys, nil,
			func(_ context.Context, miss []int) ([][]backend.Detection, []float64, error) {
				waiterFills.Add(1)
				return [][]backend.Detection{{det(0, 0.9)}}, []float64{0.001}, nil
			})
		waiterOut = out
		waiterDone <- err
	}()

	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader returned %v, want context.Canceled", err)
	}
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter failed after leader cancellation: %v", err)
	}
	if len(waiterOut) != 1 || len(waiterOut[0].Dets) != 1 {
		t.Fatalf("waiter outcome = %+v, want one filled frame", waiterOut)
	}
	if waiterFills.Load() != 1 {
		t.Fatalf("waiter filled %d times, want exactly 1 retry", waiterFills.Load())
	}
	// The protocol left no stranded flight behind.
	tiered.mu.Lock()
	stranded := len(tiered.inflight)
	tiered.mu.Unlock()
	if stranded != 0 {
		t.Fatalf("%d flights still registered after completion", stranded)
	}
}

// TestFetchBatchFillError: a real fill error (the detector failing)
// propagates, and the keys stay absent rather than memoized.
func TestFetchBatchFillError(t *testing.T) {
	l1 := NewLocal(64)
	tiered := NewTiered(l1, nil)
	ctx := context.Background()
	keys := []Key{{Content: 41, Class: "car", Frame: 0}}
	boom := errors.New("detector down")
	_, err := tiered.FetchBatch(ctx, keys, nil,
		func(context.Context, []int) ([][]backend.Detection, []float64, error) {
			return nil, nil, boom
		})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the fill error", err)
	}
	got, err := l1.GetBatch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Found {
		t.Fatal("a failed fill memoized an entry")
	}
	// Length-mismatched fills are rejected the same way.
	_, err = tiered.FetchBatch(ctx, keys, nil,
		func(context.Context, []int) ([][]backend.Detection, []float64, error) {
			return nil, nil, nil
		})
	if err == nil {
		t.Fatal("length-mismatched fill accepted")
	}
}

// TestFetchBatchReusesBuffer: a caller-supplied outcome buffer with enough
// capacity is reused, not reallocated — the engine's steady state.
func TestFetchBatchReusesBuffer(t *testing.T) {
	tiered := NewTiered(NewLocal(64), nil)
	ctx := context.Background()
	keys := []Key{{Content: 51, Class: "car", Frame: 0}}
	var fc fillCounter
	buf := make([]Outcome, 0, 8)
	out, err := tiered.FetchBatch(ctx, keys, buf, fc.fill(keys))
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &buf[:1][0] {
		t.Fatal("FetchBatch reallocated despite sufficient capacity")
	}
	if fmt.Sprintf("%p", out) != fmt.Sprintf("%p", buf[:1]) {
		t.Fatal("outcome buffer not aliased")
	}
}
