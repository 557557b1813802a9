package router

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/exsample/exsample/backend"
)

func heteroFleet(n int, weights []float64, delays []time.Duration, maxBatch []int) ([]*fakeBackend, []ReplicaSpec) {
	fakes := make([]*fakeBackend, n)
	specs := make([]ReplicaSpec, n)
	for i := range fakes {
		fakes[i] = &fakeBackend{name: specName(i)}
		if delays != nil {
			fakes[i].delay = delays[i]
		}
		if maxBatch != nil {
			fakes[i].hints = backend.Hints{MaxBatch: maxBatch[i]}
		}
		specs[i] = ReplicaSpec{Backend: fakes[i], Name: fakes[i].name}
		if weights != nil {
			specs[i].Weight = weights[i]
		}
	}
	return fakes, specs
}

func specName(i int) string {
	if i == 0 {
		return "fast"
	}
	return "slow-" + string(rune('0'+i))
}

func TestRouterSpecsValidation(t *testing.T) {
	_, bs := fleet(2)
	_, specs := heteroFleet(2, nil, nil, nil)
	if _, err := New(Config{Replicas: bs, Specs: specs}); err == nil {
		t.Error("Specs combined with Replicas accepted")
	}
	for _, w := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := New(Config{Specs: []ReplicaSpec{{Backend: bs[0], Weight: w}}}); err == nil {
			t.Errorf("Weight %v accepted", w)
		}
	}
	if _, err := New(Config{Specs: []ReplicaSpec{{}}}); err == nil {
		t.Error("nil Specs backend accepted")
	}
}

// wantShares asserts the exact number of batches each replica served.
func wantShares(t *testing.T, fakes []*fakeBackend, want ...int64) {
	t.Helper()
	for i, f := range fakes {
		if got := f.calls.Load(); got != want[i] {
			t.Errorf("replica %d served %d batches, want %d", i, got, want[i])
		}
	}
}

// TestPickWeightShares pins the pick shares on 1-fast+3-slow fleets: the
// fast replica draws everything past the warm-up once it measures lighter,
// the cold-start rotation warms every replica, and an open breaker
// redistributes its share across the surviving siblings evenly. Router and
// replicas share one fake clock (measured latency is exactly the
// configured delay, and nothing sleeps), so the shares are exact.
func TestPickWeightShares(t *testing.T) {
	t.Run("cold-start-explicit-weights", func(t *testing.T) {
		// Equal measured latency, explicit 4:1:1:1 weights: the weighted
		// rotation warms everyone, then the weight term alone makes the
		// fast replica's load 4x lighter and it takes the remainder.
		fakes, specs := heteroFleet(4, []float64{4, 1, 1, 1},
			[]time.Duration{time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond}, nil)
		r, err := New(Config{Specs: specs})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		virtualize(r, fakes)
		for i := 0; i < 40; i++ {
			if _, err := r.DetectBatch(context.Background(), "car", []int64{int64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		// coldRequests each, then all 28 remaining batches to the replica
		// whose load is 4x lighter.
		wantShares(t, fakes, 31, coldRequests, coldRequests, coldRequests)
	})

	t.Run("warmed-ewma-derived-weights", func(t *testing.T) {
		// No explicit weights: after the cold rotation the measured
		// per-frame EWMA (1ms vs 4ms) is the capacity signal, and the
		// fast replica draws the remainder on its own.
		fakes, specs := heteroFleet(4, nil,
			[]time.Duration{time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond}, nil)
		r, err := New(Config{Specs: specs})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		virtualize(r, fakes)
		for i := 0; i < 30; i++ {
			if _, err := r.DetectBatch(context.Background(), "car", []int64{int64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		wantShares(t, fakes, 21, coldRequests, coldRequests, coldRequests)
	})

	t.Run("fast-breaker-open", func(t *testing.T) {
		// The 4x replica dies: its breaker opens on the third failure and
		// the three equal slow siblings split the traffic evenly.
		fakes, specs := heteroFleet(4, []float64{4, 1, 1, 1},
			[]time.Duration{0, time.Millisecond, time.Millisecond, time.Millisecond}, nil)
		fakes[0].dead.Store(true)
		r, err := New(Config{Specs: specs})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		virtualize(r, fakes)
		for i := 0; i < 30; i++ {
			if _, err := r.DetectBatch(context.Background(), "car", []int64{int64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if st := r.Stats()[0]; st.State != Open || st.BreakerOpens != 1 {
			t.Errorf("fast replica state %v opens %d, want a breaker opened once", st.State, st.BreakerOpens)
		}
		// Three calls open the fast replica's breaker (the 30 ms of fake
		// time never reach its cooldown), each rescued by a sibling. The
		// survivors rotate evenly through all 30 batches.
		wantShares(t, fakes, failureThreshold, 10, 10, 10)
	})
}

// TestScatterSplitsAcrossReplicas: one large batch fans out to every
// healthy replica proportional to weight and reassembles in frame order.
func TestScatterSplitsAcrossReplicas(t *testing.T) {
	fakes, specs := heteroFleet(4, []float64{4, 1, 1, 1}, nil, nil)
	r, err := New(Config{Specs: specs, Scatter: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	frames := make([]int64, 64)
	for i := range frames {
		frames[i] = int64(i * 3)
	}
	dets, costs, err := r.DetectBatchCost(context.Background(), "car", frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) != len(frames) || len(costs) != len(frames) {
		t.Fatalf("got %d dets / %d costs for %d frames", len(dets), len(costs), len(frames))
	}
	for i, fr := range frames {
		want := 0
		if fr%2 == 0 {
			want = 1
		}
		if len(dets[i]) != want {
			t.Fatalf("frame %d (pos %d): %d detections, want %d — reassembly out of order?", fr, i, len(dets[i]), want)
		}
		if want == 1 && dets[i][0].Frame != fr {
			t.Fatalf("pos %d carries frame %d, want %d", i, dets[i][0].Frame, fr)
		}
	}
	for i, f := range fakes {
		if f.calls.Load() == 0 {
			t.Errorf("replica %d served no slice of the scattered batch", i)
		}
	}
	if got := r.Scatters(); got != 1 {
		t.Errorf("Scatters() = %d, want 1", got)
	}
	var slices int64
	for _, st := range r.Stats() {
		slices += st.Slices
	}
	if slices != 4 {
		t.Errorf("served slices total %d, want 4", slices)
	}
}

// TestScatterHints: scatter off keeps the conservative min MaxBatch
// (every replica must take a whole batch); scatter on reports the fleet
// aggregate, and any unbounded replica makes the aggregate unbounded.
func TestScatterHints(t *testing.T) {
	_, specs := heteroFleet(3, nil, nil, []int{16, 64, 32})
	off, err := New(Config{Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	if got := off.Hints().MaxBatch; got != 16 {
		t.Errorf("scatter-off MaxBatch = %d, want conservative min 16", got)
	}
	on, err := New(Config{Specs: specs, Scatter: true})
	if err != nil {
		t.Fatal(err)
	}
	defer on.Close()
	if got := on.Hints().MaxBatch; got != 112 {
		t.Errorf("scatter-on MaxBatch = %d, want aggregate 112", got)
	}
	_, unbounded := heteroFleet(3, nil, nil, []int{16, 0, 32})
	onU, err := New(Config{Specs: unbounded, Scatter: true})
	if err != nil {
		t.Fatal(err)
	}
	defer onU.Close()
	if got := onU.Hints().MaxBatch; got != 0 {
		t.Errorf("scatter-on MaxBatch with an unbounded replica = %d, want 0", got)
	}
}

// TestScatterRespectsReplicaCaps: slices never exceed a replica's own
// MaxBatch; overflow redistributes to siblings with headroom.
func TestScatterRespectsReplicaCaps(t *testing.T) {
	fakes, specs := heteroFleet(3, []float64{8, 1, 1}, nil, []int{10, 32, 32})
	r, err := New(Config{Specs: specs, Scatter: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	frames := make([]int64, 48)
	for i := range frames {
		frames[i] = int64(i)
	}
	if _, err := r.DetectBatch(context.Background(), "car", frames); err != nil {
		t.Fatal(err)
	}
	// The heavy replica's ideal share (38) is capped at 10; the rest
	// lands on the siblings.
	if got := fakes[0].maxSeen(); got > 10 {
		t.Errorf("capped replica served a %d-frame slice, cap 10", got)
	}
}

// TestScatterSliceFailover: a slice landing on a dying replica is rescued
// by an untried sibling; every batch succeeds with correct results, and
// the third failure opens the replica's breaker.
func TestScatterSliceFailover(t *testing.T) {
	fakes, specs := heteroFleet(4, []float64{1, 1, 1, 1}, nil, nil)
	fakes[2].dead.Store(true)
	r, err := New(Config{Specs: specs, Scatter: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	frames := make([]int64, 64)
	for i := range frames {
		frames[i] = int64(i)
	}
	for b := 0; b < failureThreshold; b++ {
		dets, err := r.DetectBatch(context.Background(), "car", frames)
		if err != nil {
			t.Fatal(err)
		}
		for i, fr := range frames {
			want := 0
			if fr%2 == 0 {
				want = 1
			}
			if len(dets[i]) != want {
				t.Fatalf("batch %d frame %d: %d detections after failover, want %d", b, fr, len(dets[i]), want)
			}
		}
	}
	if got := r.Failovers(); got < 1 {
		t.Errorf("Failovers() = %d, want >= 1 (a slice was rescued)", got)
	}
	if st := r.Stats()[2]; st.State != Open {
		t.Errorf("dead replica state %v, want open", st.State)
	}
}

// TestScatterPartialFailureFailsWholeBatch: with failover exhausted, one
// bad slice fails the entire batch — no partial results ever escape.
func TestScatterPartialFailureFailsWholeBatch(t *testing.T) {
	fakes, specs := heteroFleet(4, []float64{1, 1, 1, 1}, nil, nil)
	r, err := New(Config{Specs: specs, Scatter: true})
	if err != nil {
		t.Fatal(err)
	}
	// Every replica is dead: each slice exhausts its failover budget and
	// the whole batch must fail with no partial results.
	for i := range fakes {
		fakes[i].dead.Store(true)
	}
	defer r.Close()
	frames := make([]int64, 64)
	for i := range frames {
		frames[i] = int64(i)
	}
	dets, _, err := r.DetectBatchCost(context.Background(), "car", frames)
	if err == nil {
		t.Fatal("scattered batch with dead slices returned no error")
	}
	if dets != nil {
		t.Fatalf("partial results escaped a failed scattered batch: %d rows", len(dets))
	}
	if !strings.Contains(err.Error(), "scatter") && !strings.Contains(err.Error(), "router") {
		t.Errorf("error %q does not identify the router", err)
	}
}

// TestScatterSmallBatchUsesSinglePath: batches under 2*scatterMinSlice
// are not worth splitting and route whole, exactly like scatter off.
func TestScatterSmallBatchUsesSinglePath(t *testing.T) {
	fakes, specs := heteroFleet(4, nil, nil, nil)
	r, err := New(Config{Specs: specs, Scatter: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.DetectBatch(context.Background(), "car", []int64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, f := range fakes {
		total += f.calls.Load()
	}
	if total != 1 {
		t.Errorf("small batch touched %d replicas, want 1 (single path)", total)
	}
	if got := r.Scatters(); got != 0 {
		t.Errorf("Scatters() = %d, want 0", got)
	}
}

// TestScatterColdReplicaWarmsUp: with live-derived weights (no
// ReplicaSpec.Weight) a cold replica is not comparable to warmed siblings
// (weight 1 against 1/perFrame), so scatter waits on the single path until
// every healthy replica has warmed. A replica that always fails therefore
// reaches its breaker instead of being starved of slices behind siblings
// its own failovers warmed, and every batch succeeds throughout.
func TestScatterColdReplicaWarmsUp(t *testing.T) {
	fakes, specs := heteroFleet(3, nil, []time.Duration{time.Millisecond, time.Millisecond, time.Millisecond}, nil)
	fakes[1].dead.Store(true)
	r, err := New(Config{Specs: specs, Scatter: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	virtualize(r, fakes)
	frames := make([]int64, 64)
	for i := range frames {
		frames[i] = int64(i)
	}
	for b := 0; b < 12; b++ {
		dets, err := r.DetectBatch(context.Background(), "car", frames)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		for i, fr := range frames {
			if want := 1 - int(fr%2); len(dets[i]) != want {
				t.Fatalf("batch %d frame %d: %d detections, want %d", b, fr, len(dets[i]), want)
			}
		}
	}
	st := r.Stats()
	if st[1].BreakerOpens == 0 {
		t.Fatalf("failing replica's breaker never opened: %+v", st[1])
	}
	if r.Scatters() == 0 || st[0].Slices == 0 || st[2].Slices == 0 {
		t.Fatalf("scatter never resumed across the warmed pair: %d scatters, stats %+v", r.Scatters(), st)
	}
}

// TestSizerSignalPerReplica: the per-replica stats the operator reads
// carry breaker opens, health and capacity weights, and a scattering
// router charges a dead slice's breaker to its own replica only.
func TestSizerSignalPerReplica(t *testing.T) {
	fakes, specs := heteroFleet(3, []float64{4, 1, 1}, nil, nil)
	fakes[1].dead.Store(true)
	r, err := New(Config{Specs: specs, Scatter: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	frames := make([]int64, 32)
	for i := range frames {
		frames[i] = int64(i)
	}
	// Each scattered batch fails the dead replica's slice once.
	for b := 0; b < failureThreshold; b++ {
		if _, err := r.DetectBatch(context.Background(), "car", frames); err != nil {
			t.Fatal(err)
		}
	}
	stats := r.Stats()
	if len(stats) != 3 {
		t.Fatalf("Stats carries %d replicas, want 3", len(stats))
	}
	if stats[0].Weight != 4 || stats[2].Weight != 1 {
		t.Errorf("weights = %v / %v, want 4 / 1", stats[0].Weight, stats[2].Weight)
	}
	if stats[1].BreakerOpens != 1 || stats[1].State != Open {
		t.Errorf("dead replica stats = %+v, want 1 open and unhealthy", stats[1])
	}
	if stats[0].BreakerOpens != 0 {
		t.Errorf("healthy replica charged %d opens", stats[0].BreakerOpens)
	}
	if stats[2].BreakerOpens != 0 {
		t.Errorf("healthy replica 2 charged %d opens", stats[2].BreakerOpens)
	}
	if stats[1].Weight != 1 {
		t.Errorf("dead replica weight = %v, want explicit 1", stats[1].Weight)
	}
	if got := r.Scatters(); got != failureThreshold {
		t.Errorf("Scatters() = %d, want %d (every batch scattered)", got, failureThreshold)
	}
}

// TestScatterFailoverSoak hammers a scattering router from many
// goroutines while replicas die and heal — run under -race in CI, it is
// the concurrency regression net for the scatter path.
func TestScatterFailoverSoak(t *testing.T) {
	fakes, specs := heteroFleet(4, []float64{2, 1, 1, 1},
		[]time.Duration{100 * time.Microsecond, 200 * time.Microsecond, 200 * time.Microsecond, 200 * time.Microsecond}, nil)
	r, err := New(Config{
		Specs:   specs,
		Scatter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	accelerate(r, 200) // breakers cool down in ~10 ms of wall time
	stop := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		victims := []int{1, 3, 2}
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			case <-time.After(15 * time.Millisecond):
			}
			v := victims[k%len(victims)]
			fakes[v].dead.Store(true)
			time.Sleep(10 * time.Millisecond)
			fakes[v].dead.Store(false)
		}
	}()
	var workers sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			frames := make([]int64, 48)
			for b := 0; b < 25; b++ {
				for i := range frames {
					frames[i] = int64(g*10000 + b*100 + i)
				}
				dets, err := r.DetectBatch(context.Background(), "car", frames)
				if err != nil {
					errs <- err
					return
				}
				for i, fr := range frames {
					want := 0
					if fr%2 == 0 {
						want = 1
					}
					if len(dets[i]) != want {
						errs <- errOutOfOrder(fr, len(dets[i]), want)
						return
					}
				}
			}
		}(g)
	}
	workers.Wait()
	close(stop)
	chaos.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type scatterOrderError struct {
	frame     int64
	got, want int
}

func (e scatterOrderError) Error() string {
	return "scatter soak: frame result out of order"
}

func errOutOfOrder(frame int64, got, want int) error {
	return scatterOrderError{frame: frame, got: got, want: want}
}
