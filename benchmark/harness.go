package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	exsample "github.com/exsample/exsample"
	"github.com/exsample/exsample/cachestore"
)

// minReps is the fewest repetitions a measurement accepts: the median over
// reps needs at least three samples.
const minReps = 3

// A workload's world is built repeatedly for setup_s, because most worlds
// build in a millisecond or less and one build of that length says little.
// Builds that end within setupWarmup of the first one's start are not timed:
// a new process builds slower until its heap has grown and its cores have
// clocked up, and how long that takes differs from process to process. After
// that builds are timed until setupBudget has been spent or maxSetups are
// timed, never fewer than minSetups. The median is reported; the last world
// is the one measured.
const (
	minSetups   = 3
	maxSetups   = 400
	setupWarmup = 400 * time.Millisecond
	setupBudget = 1500 * time.Millisecond
)

// repSample is one repetition's measurement.
type repSample struct {
	wall    float64 // seconds
	cpu     float64 // process user+sys seconds
	frames  int64
	results int
	mallocs uint64
	bytes   uint64
	// latMS and firstMS are the ops' latencies and times to first result
	// (ops with a result only), in ms.
	latMS, firstMS []float64
	// ops are the full op results. Only the first rep and the traced rep
	// keep them past their verification: what the harness retains must not
	// grow with the rep count, or live_heap_mb would measure the harness.
	ops    []opResult
	counts repCounts
}

// repCounts are the seam and engine counters of one repetition, for the
// conservation checks.
type repCounts struct {
	backendFrames, detectFrames int64
	tier                        cachestore.TierStats
	events, hits, remoteHits    int64
	streamErr                   error
}

// measurement is everything one workload's untraced (or traced) reps
// produced.
type measurement struct {
	setup      []float64 // seconds, one per world build
	reps       []repSample
	liveHeapMB float64
	calib      [2]float64 // spin before and after, ms
	// spans are the traced rep's; lastRep is read while the final rep's
	// engine and servers are still open.
	spans    []span
	lastRep  *repExtras
	failures []string
	checks   int
}

// repExtras are readings taken while the last rep's engine and servers are
// still open.
type repExtras struct {
	routerFailovers, breakerOpens int64
	replicaRetries                int64
	cacheRetries                  int64
	stream                        []exsample.StreamStats
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// calibSpin is machine.calib_ms: a fixed integer loop, timed. It measures
// the machine, not the engine; a workload whose before and after spins
// disagree ran on a disturbed box.
func calibSpin() float64 {
	best := math.Inf(1)
	// Best of three: the first spin after an idle stretch also measures
	// the core clocking back up.
	for try := 0; try < 3; try++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 10_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink = x
		best = math.Min(best, float64(time.Since(start))/1e6)
	}
	return best
}

var spinSink uint64

// buildWorld constructs a workload's world from the seed.
func buildWorld(cfg config, spec *workload) (*world, error) {
	w := &world{cfg: cfg, spec: spec, p: &probe{}}
	if err := spec.build(w); err != nil {
		w.close()
		return nil, fmt.Errorf("%s: setup: %w", spec.name, err)
	}
	return w, nil
}

// setupWorld builds the world repeatedly, timing each build after the
// warm-up, and returns the last one. once builds it a single time, for the
// traced pass and the smoke test.
func setupWorld(cfg config, spec *workload, once bool) (*world, []float64, error) {
	var times []float64
	begin := time.Now()
	for {
		start := time.Now()
		w, err := buildWorld(cfg, spec)
		if err != nil {
			return nil, nil, err
		}
		if end := time.Now(); once || end.Sub(begin) >= setupWarmup {
			times = append(times, end.Sub(start).Seconds())
		}
		n := len(times)
		if once || n >= maxSetups || (n >= minSetups && time.Since(begin) >= setupBudget) {
			return w, times, nil
		}
		w.close()
	}
}

// runRep executes the world's op list once, closed loop, on a fresh rep.
// keepOpen, when non-nil, is called before the rep's engine and servers are
// torn down.
func (w *world) runRep(keepOpen func(*rep, *repSample)) (repSample, error) {
	runtime.GC()
	r, err := w.startRep()
	if err != nil {
		return repSample{}, err
	}
	defer r.close()
	s := repSample{ops: make([]opResult, len(w.ops))}
	b0, d0 := w.p.backendFrames.Load(), w.p.detectFrames.Load()

	var wg sync.WaitGroup
	var next atomic.Int64
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	start := time.Now()
	for c := 0; c < w.cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if w.ops[0].Kind == opAppend {
				// A client owns its stream: its appends run in order.
				for i, o := range w.ops {
					if o.Src == c {
						s.ops[i] = w.runOp(ctx, r, o)
					}
				}
				return
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.ops) {
					return
				}
				s.ops[i] = w.runOp(ctx, r, w.ops[i])
			}
		}(c)
	}
	wg.Wait()
	s.wall = time.Since(start).Seconds()
	s.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	s.mallocs, s.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc

	s.counts.streamErr = r.finishStreams()
	for _, o := range s.ops {
		s.frames += o.frames
		s.results += o.results
		s.counts.events += o.events
		s.counts.hits += o.hits
		s.counts.remoteHits += o.remoteHits
		s.latMS = append(s.latMS, float64(o.latency)/1e6)
		if o.first >= 0 {
			s.firstMS = append(s.firstMS, float64(o.first)/1e6)
		}
	}
	s.counts.backendFrames = w.p.backendFrames.Load() - b0
	s.counts.detectFrames = w.p.detectFrames.Load() - d0
	s.counts.tier = r.eng.TierStats()
	if keepOpen != nil {
		keepOpen(r, &s)
	}
	return s, nil
}

// settle runs two short queries side by side on a rep whose ops are done.
// The engine keeps pointing at the queries of its last rounds — its recycled
// round scratch and the tail of its active list pin whole finished pipelines,
// hundreds of kilobytes each — and whether that is one, two or three of them
// depends on the order in which the rep's last ops happened to finish. After
// two more queries that shared a round it is always these two, so the heap
// read next does not flip between levels from seed to seed.
func (w *world) settle(r *rep) {
	o := w.ops[0]
	ctx := context.Background()
	// The first query runs long enough for the second to join it. An event
	// channel closes when its query is finalized, so draining it is waiting.
	budgets := [2]int64{int64(32 * w.spec.framesPerRound), 1}
	var pending []<-chan exsample.QueryEvent
	for _, frames := range budgets {
		switch o.Kind {
		case opSearch:
			q, opts := w.query(o)
			opts.MaxFrames = frames
			if h, err := r.eng.Submit(ctx, w.sources[o.Src], q, opts); err == nil {
				pending = append(pending, h.Events())
			}
		case opTrack:
			opts := exsample.TrackOptions{Seed: o.Seed, MaxFrames: frames}
			if h, err := r.eng.SubmitTrack(ctx, w.sources[o.Src], w.trackPredicate(), opts); err == nil {
				pending = append(pending, h.Events())
			}
		}
	}
	for _, events := range pending {
		for range events {
		}
	}
}

// liveHeapMB is the heap in use after collection. It collects twice: one
// cycle moves sync.Pool contents to the pools' victim caches and can leave
// garbage that died while it was marking, the second frees both.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// extras reads the counters that only exist while a rep is open.
func (w *world) extras(r *rep) *repExtras {
	x := &repExtras{}
	if w.fleet != nil {
		rt := w.fleet.cur.Load()
		x.routerFailovers = rt.Failovers()
		x.breakerOpens = rt.BreakerOpens()
	}
	for _, c := range w.replicas {
		x.replicaRetries += c.Stats().Retries
	}
	if r.cache != nil {
		x.cacheRetries = r.cache.Stats().Retries
	}
	for _, ls := range r.streams {
		x.stream = append(x.stream, ls.src.StreamStats())
	}
	return x
}

// measure runs untraced reps of a built world for about the given number of
// seconds (never fewer than minReps), then verifies.
func measure(w *world, seconds float64) (*measurement, error) {
	m := &measurement{}
	m.calib[0] = calibSpin()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for final := false; !final; {
		s, err := w.runRep(func(r *rep, s *repSample) {
			// Whether a rep is the last one is only known once it has run;
			// the live heap is read while its engine and servers are open.
			if final = len(m.reps)+1 >= minReps && !time.Now().Before(deadline); final {
				w.settle(r)
				m.liveHeapMB = liveHeapMB()
				m.lastRep = w.extras(r)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("%s: rep %d: %w", w.spec.name, len(m.reps), err)
		}
		m.reps = append(m.reps, s)
		ri := len(m.reps) - 1
		w.verifyRep(m, ri)
		if ri > 0 {
			m.reps[ri].ops = nil
		}
	}
	m.calib[1] = calibSpin()
	w.verifyIdentity(m)
	return m, nil
}

// traceRep runs one rep with the decorators recording spans.
func traceRep(w *world) (*measurement, error) {
	m := &measurement{}
	// The busiest workload records about 70k spans a rep; the buffer is
	// preallocated with headroom so nothing grows while a rep is timed.
	tr := newTracer(1 << 18)
	w.p.tr.Store(tr)
	defer w.p.tr.Store(nil)
	s, err := w.runRep(func(r *rep, s *repSample) { m.lastRep = w.extras(r) })
	if err != nil {
		return nil, fmt.Errorf("%s: traced rep: %w", w.spec.name, err)
	}
	w.p.tr.Store(nil)
	m.reps = append(m.reps, s)
	m.spans = tr.recorded()
	if n := tr.lost.Load(); n > 0 {
		m.fail("trace buffer overflowed: %d spans lost", n)
	}
	return m, nil
}

func (m *measurement) fail(format string, args ...any) {
	m.failures = append(m.failures, fmt.Sprintf(format, args...))
}

// median returns the middle value (mean of the two middle values for an
// even count); it does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; it does not modify xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// perRep maps every rep to one value.
func (m *measurement) perRep(f func(s *repSample) float64) []float64 {
	out := make([]float64, len(m.reps))
	for i := range m.reps {
		out[i] = f(&m.reps[i])
	}
	return out
}

// endToEndValues computes the end-to-end metrics from the untraced reps.
// Every one but live_heap_mb is computed per rep — the latency percentiles
// over the rep's own ops — and reported as the median over reps: when
// something else has the box for a second, the reps it hit drop out of a
// median, whereas their ops would make up the whole tail of a percentile over
// all reps' ops pooled. reps holds the per-rep values behind each median.
func (m *measurement) endToEndValues() (vals map[string]float64, reps map[string][]float64) {
	perFrame := func(f func(s *repSample) float64) func(s *repSample) float64 {
		return func(s *repSample) float64 { return f(s) / float64(s.frames) }
	}
	reps = map[string][]float64{
		"frames_per_s":          m.perRep(func(s *repSample) float64 { return float64(s.frames) / s.wall }),
		"cpu_us_per_frame":      m.perRep(perFrame(func(s *repSample) float64 { return s.cpu * 1e6 })),
		"allocs_per_frame":      m.perRep(perFrame(func(s *repSample) float64 { return float64(s.mallocs) })),
		"alloc_bytes_per_frame": m.perRep(perFrame(func(s *repSample) float64 { return float64(s.bytes) })),
		"results_per_kframe":    m.perRep(perFrame(func(s *repSample) float64 { return float64(s.results) * 1000 })),
		"op_p50_ms":             m.perRep(func(s *repSample) float64 { return quantile(s.latMS, 0.5) }),
		"op_p95_ms":             m.perRep(func(s *repSample) float64 { return quantile(s.latMS, 0.95) }),
		"first_result_p50_ms":   m.perRep(func(s *repSample) float64 { return quantile(s.firstMS, 0.5) }),
		"setup_s":               m.setup,
	}
	vals = make(map[string]float64)
	for name, xs := range reps {
		vals[name] = median(xs)
	}
	vals["live_heap_mb"] = m.liveHeapMB
	return vals, reps
}

// attempted is the number of ops executed across all reps plus the number
// of verification checks made.
func (m *measurement) attempted() int {
	n := m.checks
	for i := range m.reps {
		n += len(m.reps[i].latMS)
	}
	return n
}
