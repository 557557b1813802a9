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
	_, bs := fleet(2)
	if _, err := New(Config{Replicas: bs, Names: []string{"only-one"}}); err == nil {
		t.Error("mismatched names accepted")
	}
	if _, err := New(Config{Replicas: bs, LatencyDecay: 2}); err == nil {
		t.Error("out-of-range LatencyDecay accepted")
	}
	if _, err := New(Config{Replicas: bs, FailoverRetries: -1}); err == nil {
		t.Error("negative FailoverRetries accepted")
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
	r, err := New(Config{Replicas: bs, FailureThreshold: 1})
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
	if deadCalls > 2 {
		t.Fatalf("dead replica kept receiving traffic: %d calls", deadCalls)
	}
}

func TestRouterAllReplicasDead(t *testing.T) {
	fakes, bs := fleet(2)
	r, err := New(Config{Replicas: bs, FailureThreshold: 1, Cooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, f := range fakes {
		f.dead.Store(true)
	}
	if _, err := r.DetectBatch(context.Background(), "car", []int64{1}); err == nil {
		t.Fatal("all-dead fleet succeeded")
	}
	// Breakers are now open with a long cooldown: the next call fails fast
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
	r, err := New(Config{Replicas: bs, FailureThreshold: 1, Cooldown: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	clock := virtualize(r, fakes)
	fakes[0].dead.Store(true)
	// Trip replica 0's breaker.
	for i := 0; i < 4; i++ {
		if _, err := r.DetectBatch(context.Background(), "car", []int64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Stats(); st[0].State != Open {
		t.Fatalf("replica 0 state = %v, want open", st[0].State)
	}
	// Heal it and step past the cooldown: a half-open trial call readmits.
	fakes[0].dead.Store(false)
	clock.advance(30 * time.Millisecond)
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
	r, err := New(Config{Replicas: bs, FailureThreshold: 1, Cooldown: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	clock := virtualize(r, fakes)
	fakes[0].dead.Store(true)
	for i := 0; i < 3; i++ {
		if _, err := r.DetectBatch(context.Background(), "car", []int64{1}); err != nil {
			t.Fatal(err)
		}
	}
	clock.advance(15 * time.Millisecond)
	// Still dead: the half-open trial fails and the breaker re-opens
	// immediately (one strike, no threshold credit).
	for i := 0; i < 4; i++ {
		if _, err := r.DetectBatch(context.Background(), "car", []int64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Stats(); st[0].State != Open {
		t.Fatalf("replica 0 state after failed trial = %v, want open", st[0].State)
	}
}

func TestRouterProbeHealsWithoutTraffic(t *testing.T) {
	fakes, bs := fleet(2)
	var probed atomic.Int64
	r, err := New(Config{
		Replicas:         bs,
		FailureThreshold: 1,
		Cooldown:         10 * time.Millisecond,
		ProbeInterval:    10 * time.Millisecond,
		Probe: func(ctx context.Context, b backend.Backend) error {
			probed.Add(1)
			_, err := b.DetectBatch(ctx, "car", []int64{0})
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	fakes[0].dead.Store(true)
	if _, err := r.DetectBatch(context.Background(), "car", []int64{1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for r.Stats()[0].State != Open {
		select {
		case <-deadline:
			t.Fatalf("probe never opened the dead replica: %+v", r.Stats()[0])
		case <-time.After(5 * time.Millisecond):
		}
	}
	// Heal the backend; the probe loop alone must close the breaker.
	fakes[0].dead.Store(false)
	for r.Stats()[0].State != Healthy {
		select {
		case <-deadline:
			t.Fatalf("probe never healed the replica: %+v", r.Stats()[0])
		case <-time.After(5 * time.Millisecond):
		}
	}
	if probed.Load() == 0 {
		t.Fatal("probe never ran")
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
	r, err := New(Config{Replicas: bs, FailureThreshold: 2, Cooldown: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
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
			r, err := New(Config{Replicas: bs, FailureThreshold: 1, Cooldown: time.Millisecond})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
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

// TestSizerSignalCountsBreakerOpens: the sizer-facing signal reports one
// cumulative open event per breaker transition (not per failure), the
// live/cooling replica split, and the healthy fleet's best latency EWMA.
func TestSizerSignalCountsBreakerOpens(t *testing.T) {
	fakes, bs := fleet(2)
	// Threshold 1: the first failure trips the breaker, so the weighted
	// pick's passive avoidance of the slow failed replica cannot keep the
	// breaker half-shut for the whole test.
	r, err := New(Config{Replicas: bs, FailureThreshold: 1, Cooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if sig := r.SizerSignal(); sig.BreakerOpens != 0 || sig.HealthyReplicas != 2 {
		t.Fatalf("fresh signal = %+v, want 2 healthy / 0 opens", sig)
	}
	// A few healthy batches establish a latency EWMA.
	for i := 0; i < 4; i++ {
		if _, err := r.DetectBatch(ctx, "car", []int64{int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if sig := r.SizerSignal(); sig.EWMALatencySeconds <= 0 {
		t.Fatalf("no latency EWMA after healthy traffic: %+v", sig)
	}
	// Kill replica 0 and drive its breaker open; every failed batch is
	// rescued by a sibling, so the caller never sees an error.
	fakes[0].dead.Store(true)
	for i := 0; i < 6; i++ {
		if _, err := r.DetectBatch(ctx, "car", []int64{int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sig := r.SizerSignal()
	if sig.BreakerOpens != 1 {
		t.Fatalf("BreakerOpens = %d after one replica died, want 1 (signal %+v)", sig.BreakerOpens, sig)
	}
	if sig.OpenBreakers != 1 || sig.HealthyReplicas != 1 {
		t.Fatalf("signal = %+v, want 1 open / 1 healthy", sig)
	}
	if r.BreakerOpens() != 1 {
		t.Fatalf("BreakerOpens() = %d, want 1", r.BreakerOpens())
	}
}
