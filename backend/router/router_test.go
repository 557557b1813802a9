package router

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/exsample/exsample/backend"
)

// fakeBackend is a controllable replica: deterministic detections, an
// atomic kill switch and call counters.
type fakeBackend struct {
	name    string
	dead    atomic.Bool
	calls   atomic.Int64
	biggest atomic.Int64 // largest batch seen
	hints   backend.Hints
	// delay simulates inference latency: a real sleep, or — when clock is
	// set — an advance of the fake clock the router under test reads.
	delay time.Duration
	clock *fakeClock
	// entered, when non-nil, receives a value as each call starts.
	entered chan struct{}
}

// fakeClock is a manually advanced clock standing in for a Router's now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// virtualize puts the router and its fake replicas on one fake clock, so
// measured latencies are exactly the configured delays. Call before any
// traffic. Tests advance the returned clock past breaker cooldowns.
func virtualize(r *Router, fakes []*fakeBackend) *fakeClock {
	clock := &fakeClock{t: time.Unix(0, 0)}
	r.now = clock.now
	for _, f := range fakes {
		f.clock = clock
	}
	return clock
}

// accelerate runs the router's clock k times faster than the wall clock,
// for concurrent tests that want the 2 s breaker cooldown to elapse within
// milliseconds. Call before any traffic.
func accelerate(r *Router, k int64) {
	start := time.Now()
	r.now = func() time.Time { return start.Add(time.Since(start) * time.Duration(k)) }
}

// tickProbes replaces the probe loop's ticker for one test: the returned
// channel delivers the loop's ticks, one round per send.
func tickProbes(t *testing.T) chan<- time.Time {
	ticks := make(chan time.Time)
	prev := newProbeTicker
	newProbeTicker = func() (<-chan time.Time, func()) { return ticks, func() {} }
	t.Cleanup(func() { newProbeTicker = prev })
	return ticks
}

// tripBreaker sends one-frame batches until replica i's breaker opens,
// failing the test if that takes more than maxBatches.
func tripBreaker(t *testing.T, r *Router, i, maxBatches int) {
	t.Helper()
	for n := 0; r.Stats()[i].State != Open; n++ {
		if n == maxBatches {
			t.Fatalf("replica %d still %v after %d batches", i, r.Stats()[i].State, n)
		}
		if _, err := r.DetectBatch(context.Background(), "car", []int64{1}); err != nil {
			t.Fatal(err)
		}
	}
}

// maxSeen returns the largest batch (or slice) the replica served.
func (f *fakeBackend) maxSeen() int64 { return f.biggest.Load() }

func (f *fakeBackend) DetectBatch(ctx context.Context, class string, frames []int64) ([][]backend.Detection, error) {
	f.calls.Add(1)
	for {
		cur := f.biggest.Load()
		if int64(len(frames)) <= cur || f.biggest.CompareAndSwap(cur, int64(len(frames))) {
			break
		}
	}
	if f.dead.Load() {
		return nil, fmt.Errorf("%s: connection refused", f.name)
	}
	if f.entered != nil {
		f.entered <- struct{}{}
	}
	if f.delay > 0 && f.clock != nil {
		f.clock.advance(f.delay)
	} else if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	out := make([][]backend.Detection, len(frames))
	for i, fr := range frames {
		if fr%2 == 0 {
			out[i] = []backend.Detection{{Frame: fr, Class: class, Score: 0.9, TruthID: int(fr)}}
		}
	}
	return out, nil
}

func (f *fakeBackend) Hints() backend.Hints { return f.hints }

func fleet(n int) ([]*fakeBackend, []backend.Backend) {
	fakes := make([]*fakeBackend, n)
	bs := make([]backend.Backend, n)
	for i := range fakes {
		fakes[i] = &fakeBackend{name: fmt.Sprintf("gpu-%d", i)}
		bs[i] = fakes[i]
	}
	return fakes, bs
}

func TestRouterValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty replica list accepted")
	}
	if _, err := New(Config{Replicas: []backend.Backend{nil}}); err == nil {
		t.Error("nil replica accepted")
	}
}

func TestRouterRoutesAndSpreadsLoad(t *testing.T) {
	fakes, bs := fleet(3)
	r, err := New(Config{Replicas: bs})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 30; i++ {
		dets, err := r.DetectBatch(context.Background(), "car", []int64{int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if len(dets) != 1 {
			t.Fatalf("batch %d: %d results", i, len(dets))
		}
	}
	// Every replica warms up in rotation (the cold-start rule guarantees
	// at least coldRequests calls each); after that the latency weighting
	// decides, so the exact split is load-dependent.
	var total int64
	for i, f := range fakes {
		got := f.calls.Load()
		total += got
		if got < coldRequests {
			t.Errorf("replica %d served %d batches, want >= %d", i, got, coldRequests)
		}
	}
	if total != 30 {
		t.Errorf("fleet served %d batches, want 30", total)
	}
}

func TestRouterFailoverIsTransparent(t *testing.T) {
	fakes, bs := fleet(3)
	r, err := New(Config{Replicas: bs})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	fakes[0].dead.Store(true)
	frames := []int64{2, 3, 4}
	for i := 0; i < 12; i++ {
		dets, err := r.DetectBatch(context.Background(), "car", frames)
		if err != nil {
			t.Fatalf("batch %d through a 1-dead fleet: %v", i, err)
		}
		if len(dets) != len(frames) || dets[0] == nil || dets[1] != nil {
			t.Fatalf("batch %d: wrong results %v", i, dets)
		}
	}
	if got := r.Failovers(); got < 1 {
		t.Fatalf("Failovers = %d, want >= 1", got)
	}
	// The dead replica's breaker is open and it stopped receiving traffic.
	st := r.Stats()
	if st[0].State != Open {
		t.Fatalf("dead replica state = %v, want open", st[0].State)
	}
	if st[0].LastErr == "" || st[0].ConsecutiveFailures < 1 {
		t.Fatal("dead replica's failure not recorded")
	}
	deadCalls := fakes[0].calls.Load()
	if deadCalls > failureThreshold {
		t.Fatalf("dead replica kept receiving traffic: %d calls", deadCalls)
	}
}

func TestRouterAllReplicasDead(t *testing.T) {
	fakes, bs := fleet(2)
	r, err := New(Config{Replicas: bs})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	virtualize(r, fakes) // the fake clock never reaches the cooldown
	for _, f := range fakes {
		f.dead.Store(true)
	}
	// Each failed batch tries both replicas once.
	for i := 0; i < failureThreshold; i++ {
		if _, err := r.DetectBatch(context.Background(), "car", []int64{1}); err == nil {
			t.Fatal("all-dead fleet succeeded")
		}
	}
	// Breakers are now open and cooling down: the next call fails fast
	// with the sentinel, without touching any replica.
	before := fakes[0].calls.Load() + fakes[1].calls.Load()
	_, err = r.DetectBatch(context.Background(), "car", []int64{1})
	if !errors.Is(err, ErrNoHealthyReplicas) {
		t.Fatalf("err = %v, want ErrNoHealthyReplicas", err)
	}
	if after := fakes[0].calls.Load() + fakes[1].calls.Load(); after != before {
		t.Fatal("open breakers still admitted traffic")
	}
}

func TestRouterCircuitReadmission(t *testing.T) {
	fakes, bs := fleet(2)
	r, err := New(Config{Replicas: bs})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	clock := virtualize(r, fakes)
	fakes[0].dead.Store(true)
	// Trip replica 0's breaker: the two replicas alternate, so three
	// failures take six batches.
	tripBreaker(t, r, 0, 2*failureThreshold)
	// One step short of the cooldown, the open breaker admits nothing.
	fakes[0].dead.Store(false)
	clock.advance(cooldown - time.Millisecond)
	calls := fakes[0].calls.Load()
	for i := 0; i < 4; i++ {
		if _, err := r.DetectBatch(context.Background(), "car", []int64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := fakes[0].calls.Load(); got != calls || r.Stats()[0].State != Open {
		t.Fatalf("replica 0 served %d calls inside its cooldown, state %v", got-calls, r.Stats()[0].State)
	}
	// Step past the cooldown: a half-open trial call readmits.
	clock.advance(time.Millisecond)
	healed := false
	for i := 0; i < 10; i++ {
		if _, err := r.DetectBatch(context.Background(), "car", []int64{1}); err != nil {
			t.Fatal(err)
		}
		if r.Stats()[0].State == Healthy && fakes[0].calls.Load() > 1 {
			healed = true
			break
		}
	}
	if !healed {
		t.Fatalf("replica 0 never readmitted: %+v", r.Stats()[0])
	}
}

func TestRouterFailedTrialReopens(t *testing.T) {
	fakes, bs := fleet(2)
	r, err := New(Config{Replicas: bs})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	clock := virtualize(r, fakes)
	fakes[0].dead.Store(true)
	tripBreaker(t, r, 0, 2*failureThreshold)
	clock.advance(cooldown)
	// Still dead: the half-open trial fails and the breaker re-opens
	// immediately (one strike, no threshold credit).
	for i := 0; i < 4; i++ {
		if _, err := r.DetectBatch(context.Background(), "car", []int64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Stats(); st[0].State != Open || st[0].BreakerOpens != 2 {
		t.Fatalf("replica 0 after failed trial: state %v, %d opens; want open, 2 opens", st[0].State, st[0].BreakerOpens)
	}
}

func TestRouterProbeHealsWithoutTraffic(t *testing.T) {
	ticks := tickProbes(t)
	fakes, bs := fleet(2)
	// The loop probes the replicas in order, so once the probe of replica
	// 1 has begun, replica 0's probe outcome of that round is recorded.
	reached := make(chan struct{})
	r, err := New(Config{
		Replicas: bs,
		Probe: func(ctx context.Context, b backend.Backend) error {
			if b == bs[1] {
				reached <- struct{}{}
			}
			_, err := b.DetectBatch(ctx, "car", []int64{0})
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	round := func() {
		ticks <- time.Time{}
		<-reached
	}
	fakes[0].dead.Store(true)
	// One live failure, then probe failures up to the threshold.
	if _, err := r.DetectBatch(context.Background(), "car", []int64{1}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < failureThreshold; i++ {
		if st := r.Stats()[0]; st.State != Healthy || st.ConsecutiveFailures != i {
			t.Fatalf("after %d failures: %+v, want healthy with %d consecutive failures", i, st, i)
		}
		round()
	}
	if st := r.Stats()[0]; st.State != Open {
		t.Fatalf("probes never opened the dead replica: %+v", st)
	}
	// Heal the backend; one probe round alone closes the breaker, with no
	// traffic and long before the cooldown.
	fakes[0].dead.Store(false)
	round()
	if st := r.Stats()[0]; st.State != Healthy || st.ConsecutiveFailures != 0 {
		t.Fatalf("probe never healed the replica: %+v", st)
	}
	if got := fakes[0].calls.Load(); got != int64(failureThreshold)+1 {
		t.Fatalf("replica 0 served %d calls, want %d (one live call, then one probe per round)", got, failureThreshold+1)
	}
}

func TestRouterCancellationIsTerminal(t *testing.T) {
	fakes, bs := fleet(3)
	r, err := New(Config{Replicas: bs})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Every replica blocks until the context is cancelled, and the cancel
	// fires once a replica has the call in hand.
	entered := make(chan struct{}, len(fakes))
	for _, f := range fakes {
		f.delay = time.Hour
		f.entered = entered
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered
		cancel()
	}()
	_, err = r.DetectBatch(ctx, "car", []int64{1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Exactly one replica was tried: cancellation must not fail over.
	var total int64
	for _, f := range fakes {
		total += f.calls.Load()
	}
	if total != 1 {
		t.Fatalf("%d replicas tried under a cancelled context, want 1", total)
	}
	// And it must not be scored as a replica failure: a cancelled query
	// says nothing about endpoint health, so no breaker moves.
	for _, st := range r.Stats() {
		if st.Failures != 0 || st.ConsecutiveFailures != 0 || st.State != Healthy {
			t.Fatalf("cancellation charged replica %s a failure: %+v", st.Name, st)
		}
	}
}

func TestRouterConcurrentUse(t *testing.T) {
	fakes, bs := fleet(3)
	r, err := New(Config{Replicas: bs})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	accelerate(r, 1000) // half-open trials every ~2 ms of wall time
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if g == 0 && i == 20 {
					fakes[1].dead.Store(true)
				}
				if _, err := r.DetectBatch(context.Background(), "car", []int64{int64(i)}); err != nil {
					t.Errorf("goroutine %d batch %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestRouterHintsMerge(t *testing.T) {
	fakes, bs := fleet(3)
	fakes[0].hints = backend.Hints{CostSeconds: 0.05, MaxBatch: 0}
	fakes[1].hints = backend.Hints{CostSeconds: 0.05, MaxBatch: 16}
	fakes[2].hints = backend.Hints{CostSeconds: 0.05, MaxBatch: 64}
	r, err := New(Config{Replicas: bs})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h := r.Hints()
	if h.MaxBatch != 16 || h.CostSeconds != 0.05 {
		t.Fatalf("merged hints = %+v, want MaxBatch 16, CostSeconds 0.05", h)
	}
}

// BenchmarkRouterFailover is the resilience path's perf trajectory:
// frames/s through a 3-replica router with 0 and 1 dead replicas. The
// dead-replica case pays breaker bookkeeping plus the occasional trial
// call, and must stay in the same order of magnitude.
func BenchmarkRouterFailover(b *testing.B) {
	for _, dead := range []int{0, 1} {
		b.Run(fmt.Sprintf("dead=%d", dead), func(b *testing.B) {
			fakes, bs := fleet(3)
			r, err := New(Config{Replicas: bs})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			accelerate(r, 2000) // a trial call every ~1 ms of wall time
			for i := 0; i < dead; i++ {
				fakes[i].dead.Store(true)
			}
			frames := make([]int64, 16)
			for i := range frames {
				frames[i] = int64(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.DetectBatch(context.Background(), "car", frames); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			elapsed := b.Elapsed().Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N*len(frames))/elapsed, "frames/s")
			}
		})
	}
}

// fleetHealth summarises a Stats snapshot the way a batch sizer reads it:
// replicas admitting traffic (any state but Open), replicas cooling behind
// an open breaker, and the lowest latency EWMA among healthy measured
// replicas (0 when none has served traffic yet).
func fleetHealth(stats []ReplicaStats) (healthy, open int, bestEWMA float64) {
	for _, st := range stats {
		if st.State == Open {
			open++
			continue
		}
		healthy++
		if st.EWMALatencySeconds > 0 && (bestEWMA == 0 || st.EWMALatencySeconds < bestEWMA) {
			bestEWMA = st.EWMALatencySeconds
		}
	}
	return healthy, open, bestEWMA
}

// TestSizerSignalCountsBreakerOpens: the signals the batch sizer reads
// report one cumulative open event per breaker transition (not per
// failure), the live/cooling replica split, and the healthy fleet's best
// latency EWMA.
func TestSizerSignalCountsBreakerOpens(t *testing.T) {
	fakes, bs := fleet(2)
	r, err := New(Config{Replicas: bs})
	if err != nil {
		t.Fatal(err)
	}
	// Equal fake latencies keep the two replicas tied, so the dead one
	// keeps its turn in the rotation until its breaker opens, and the fake
	// clock never reaches the cooldown.
	for _, f := range fakes {
		f.delay = time.Millisecond
	}
	virtualize(r, fakes)
	ctx := context.Background()
	if healthy, _, _ := fleetHealth(r.Stats()); r.BreakerOpens() != 0 || healthy != 2 {
		t.Fatalf("fresh router: %d healthy / %d opens, want 2 healthy / 0 opens", healthy, r.BreakerOpens())
	}
	// A few healthy batches establish a latency EWMA.
	for i := 0; i < 4; i++ {
		if _, err := r.DetectBatch(ctx, "car", []int64{int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ewma := fleetHealth(r.Stats()); ewma <= 0 {
		t.Fatalf("no latency EWMA after healthy traffic: %+v", r.Stats())
	}
	// Kill replica 0 and drive its breaker open; every failed batch is
	// rescued by a sibling, so the caller never sees an error.
	fakes[0].dead.Store(true)
	tripBreaker(t, r, 0, 2*failureThreshold)
	for i := 0; i < 4; i++ {
		if _, err := r.DetectBatch(ctx, "car", []int64{int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if healthy, open, _ := fleetHealth(r.Stats()); open != 1 || healthy != 1 {
		t.Fatalf("%d open / %d healthy, want 1 open / 1 healthy (stats %+v)", open, healthy, r.Stats())
	}
	if st := r.Stats(); st[0].BreakerOpens != 1 || st[1].BreakerOpens != 0 {
		t.Fatalf("per-replica opens = %d, %d after replica 0 died, want 1, 0", st[0].BreakerOpens, st[1].BreakerOpens)
	}
	if r.BreakerOpens() != 1 {
		t.Fatalf("BreakerOpens() = %d, want 1", r.BreakerOpens())
	}
}
