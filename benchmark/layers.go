package main

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	exsample "github.com/exsample/exsample"
	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/backend/httpbatch"
	"github.com/exsample/exsample/backend/router"
	"github.com/exsample/exsample/cachestore"
	"github.com/exsample/exsample/internal/cache"
	"github.com/exsample/exsample/internal/core"
	"github.com/exsample/exsample/internal/discrim"
	"github.com/exsample/exsample/internal/engine"
	"github.com/exsample/exsample/internal/geom"
	"github.com/exsample/exsample/internal/kalman"
	"github.com/exsample/exsample/internal/shard"
	"github.com/exsample/exsample/internal/sizer"
	"github.com/exsample/exsample/internal/sorttrack"
	"github.com/exsample/exsample/internal/synth"
	"github.com/exsample/exsample/internal/track"
	"github.com/exsample/exsample/internal/trackquery"
	"github.com/exsample/exsample/internal/video"
	"github.com/exsample/exsample/internal/xrand"
)

// perLayer lists the per-layer metrics, <layer>.<metric>, layers being this
// repository's packages. "seam" numbers come from the traced rep's spans
// and the decorators' counters; "driver" numbers from timed direct calls
// into the layer's exported functions, on the detections the innermost seam
// recorded and on inputs generated from the seed. A layer the workload does
// not touch reads 0 on its seam numbers.
var perLayer = []metricDef{
	{Name: "core.next_ns_per_pick", Unit: "ns", Better: "lower"},
	{Name: "core.update_ns", Unit: "ns", Better: "lower"},
	{Name: "core.allocs_per_pick", Unit: "allocs", Better: "lower"},
	{Name: "engine.round_us", Unit: "us", Better: "lower"},
	{Name: "engine.us_per_frame", Unit: "us", Better: "lower"},
	{Name: "engine.allocs_per_round", Unit: "allocs", Better: "lower"},
	{Name: "engine.detector_idle_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.detect_parallelism", Unit: "ratio", Better: "higher"},
	{Name: "session.step_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "session.allocs_per_frame", Unit: "allocs", Better: "lower"},
	{Name: "session.new_us", Unit: "us", Better: "lower"},
	{Name: "discrim.observe_ns_per_det", Unit: "ns", Better: "lower"},
	{Name: "discrim.allocs_per_frame", Unit: "allocs", Better: "lower"},
	{Name: "shard.locate_ns", Unit: "ns", Better: "lower"},
	{Name: "detect.us_per_frame", Unit: "us", Better: "lower"},
	{Name: "detect.batch_frames_mean", Unit: "frames", Better: "higher"},
	{Name: "detect.batches_per_kframe", Unit: "count", Better: "lower"},
	{Name: "detect.busy_share", Unit: "ratio", Better: "higher"},
	{Name: "httpbatch.rtt_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "httpbatch.wire_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "httpbatch.wire_bytes_per_frame", Unit: "bytes", Better: "lower"},
	{Name: "httpbatch.retries", Unit: "count", Better: "lower"},
	{Name: "httpbatch.allocs_per_frame", Unit: "allocs", Better: "lower"},
	{Name: "router.overhead_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "router.allocs_per_batch", Unit: "allocs", Better: "lower"},
	{Name: "router.fast_replica_frame_share", Unit: "ratio", Better: "higher"},
	{Name: "router.failovers", Unit: "count", Better: "lower"},
	{Name: "router.breaker_opens", Unit: "count", Better: "lower"},
	{Name: "sizer.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.get_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.put_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.allocs_per_get", Unit: "allocs", Better: "lower"},
	{Name: "cachestore.fetch_l1hit_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "cachestore.fetch_l2hit_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "cachestore.fetch_fill_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "cachestore.allocs_per_key_l2hit", Unit: "allocs", Better: "lower"},
	{Name: "cachestore.l1_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "cachestore.l2_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "cachestore.fill_share", Unit: "ratio", Better: "lower"},
	{Name: "cachestore.l2_errors", Unit: "count", Better: "lower"},
	{Name: "httpcache.get_rtt_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "httpcache.put_rtt_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "httpcache.wire_us_per_key", Unit: "us", Better: "lower"},
	{Name: "httpcache.wire_bytes_per_key", Unit: "bytes", Better: "lower"},
	{Name: "httpcache.keys_per_request_mean", Unit: "keys", Better: "higher"},
	{Name: "httpcache.retries", Unit: "count", Better: "lower"},
	{Name: "stream.append_us", Unit: "us", Better: "lower"},
	{Name: "stream.gated_share", Unit: "ratio", Better: "higher"},
	{Name: "stream.append_to_first_alert_us", Unit: "us", Better: "lower"},
	{Name: "emit.events_per_kframe", Unit: "count", Better: "lower"},
	{Name: "emit.dropped", Unit: "count", Better: "lower"},
	{Name: "trackquery.next_ns", Unit: "ns", Better: "lower"},
	{Name: "trackquery.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "trackquery.refine_frame_share", Unit: "ratio", Better: "lower"},
	{Name: "trackquery.dense_x", Unit: "ratio", Better: "higher"},
	{Name: "sorttrack.observe_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "sorttrack.allocs_per_frame", Unit: "allocs", Better: "lower"},
	{Name: "kalman.step_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "machine.calib_ms", Unit: "ms", Better: "lower"},
}

// selfGapLimit is how far an op's recorded self times may sum away from the
// op's own span before the trace is called inconsistent.
const selfGapLimit = 0.05

// layerValues collects per-layer numbers by name.
type layerValues map[string]float64

// ratio is a/b, 0 when the layer saw no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerResult is the traced pass: untraced and traced reps alternate so the
// tracing overhead is a like-for-like difference, the last traced rep's
// spans give the seam numbers, and the layer drivers give the rest.
func layerResult(w *world, spansPath string) (workloadResult, error) {
	res := workloadResult{Name: w.spec.name, PerLayer: make(map[string]metricValue)}
	vals := layerValues{}
	calib := calibSpin()

	// One rep to warm up: the first rep after a pause runs slower than the
	// ones behind it, and it would always be an untraced one.
	pairs := 1
	if !w.cfg.short {
		if _, err := w.runRep(nil); err != nil {
			return res, fmt.Errorf("%s: warm-up rep: %w", w.spec.name, err)
		}
		pairs = 2
	}
	var plain, traced []float64
	var m *measurement
	var delta seamCounters
	for i := 0; i < pairs; i++ {
		s, err := w.runRep(nil)
		if err != nil {
			return res, fmt.Errorf("%s: untraced rep: %w", w.spec.name, err)
		}
		plain = append(plain, s.wall)
		before := w.counters()
		if m, err = traceRep(w); err != nil {
			return res, err
		}
		traced = append(traced, m.reps[0].wall)
		delta = w.counters().sub(before)
	}
	w.seamValues(vals, m, delta)
	vals["trace.overhead_share"] = (median(traced) - median(plain)) / median(plain)
	vals["trace.spans"] = float64(len(m.spans))
	vals["machine.calib_ms"] = (calib + calibSpin()) / 2
	if _, gap := selfByName(m.spans); gap > selfGapLimit {
		m.fail("traced ops' self times sum %.1f%% away from the op span (limit %.0f%%)", gap*100, selfGapLimit*100)
	}
	w.drive(vals)

	for _, d := range perLayer {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m.fail("%s is %v", d.Name, v)
			v = 0
		}
		res.PerLayer[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if err := writeSpans(spansPath, w.spec.name, m.spans); err != nil {
		return res, err
	}
	res.Attempted = len(w.ops) + 1
	res.Failures = m.failures
	res.Failed = len(m.failures)
	return res, nil
}

// seamCounters is a snapshot of the probe's cumulative counters.
type seamCounters struct {
	replica                      [3]int64
	detectWire, cacheWire        int64
	gets, getKeys, puts, putKeys int64
}

func (w *world) counters() seamCounters {
	p := w.p
	c := seamCounters{
		detectWire: p.detectWireBytes.Load(), cacheWire: p.cacheWireBytes.Load(),
		gets: p.l2Gets.Load(), getKeys: p.l2GetKeys.Load(), puts: p.l2Puts.Load(), putKeys: p.l2PutKeys.Load(),
	}
	for i := range c.replica {
		c.replica[i] = p.replicaFrames[i].Load()
	}
	return c
}

func (c seamCounters) sub(o seamCounters) seamCounters {
	for i := range c.replica {
		c.replica[i] -= o.replica[i]
	}
	c.detectWire -= o.detectWire
	c.cacheWire -= o.cacheWire
	c.gets, c.getKeys, c.puts, c.putKeys = c.gets-o.gets, c.getKeys-o.getKeys, c.puts-o.puts, c.putKeys-o.putKeys
	return c
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	count int
	ns    int64
	n     int64 // summed work counts
}

// seamValues derives the seam-measured per-layer numbers from one traced
// rep: its spans, its op results and the counter deltas around it.
func (w *world) seamValues(v layerValues, m *measurement, c seamCounters) {
	stats := make(map[spanName]*spanStat)
	lo, hi := int64(math.MaxInt64), int64(0)
	for _, s := range m.spans {
		st := stats[s.Name]
		if st == nil {
			st = &spanStat{}
			stats[s.Name] = st
		}
		st.count++
		st.ns += s.End - s.Start
		st.n += int64(s.N)
		if s.Parent == 0 {
			if s.Start < lo {
				lo = s.Start
			}
			if s.End > hi {
				hi = s.End
			}
		}
	}
	get := func(name spanName) spanStat {
		if st := stats[name]; st != nil {
			return *st
		}
		return spanStat{}
	}
	wall := float64(hi - lo)
	rep := &m.reps[0]
	frames := float64(rep.frames)

	v["engine.detector_idle_share"] = 1 - float64(unionNs(m.spans, spanBackend, lo, hi))/wall
	v["engine.detect_parallelism"] = float64(get(spanBackend).ns) / wall

	det := get(spanDetect)
	v["detect.us_per_frame"] = ratio(float64(det.ns)/1e3, float64(det.n))
	v["detect.batch_frames_mean"] = ratio(float64(det.n), float64(det.count))
	v["detect.batches_per_kframe"] = ratio(float64(det.count)*1000, float64(det.n))
	v["detect.busy_share"] = float64(unionNs(m.spans, spanDetect, lo, hi)) / wall

	rp := get(spanReplica)
	v["httpbatch.rtt_us_per_batch"] = ratio(float64(rp.ns)/1e3, float64(rp.count))
	if rp.count > 0 {
		// What a remote batch costs beyond the simulated service itself:
		// client and server codec plus the loopback transport.
		v["httpbatch.wire_us_per_frame"] = float64(rp.ns-det.ns) / 1e3 / float64(rp.n)
		v["httpbatch.wire_bytes_per_frame"] = float64(c.detectWire) / float64(rp.n)
	}
	var replicaFrames int64
	for _, n := range c.replica {
		replicaFrames += n
	}
	v["router.fast_replica_frame_share"] = ratio(float64(c.replica[0]), float64(replicaFrames))
	v["httpbatch.retries"] = float64(m.lastRep.replicaRetries)
	v["router.failovers"] = float64(m.lastRep.routerFailovers)
	v["router.breaker_opens"] = float64(m.lastRep.breakerOpens)

	ts := rep.counts.tier
	lookups := float64(ts.L1Hits + ts.L1Misses)
	v["cachestore.l1_hit_share"] = ratio(float64(ts.L1Hits), lookups)
	v["cachestore.l2_hit_share"] = ratio(float64(ts.L2Hits), lookups)
	v["cachestore.fill_share"] = ratio(float64(ts.Fills), lookups)
	v["cachestore.l2_errors"] = float64(ts.L2Errors + ts.L2PutErrors)

	l2get, l2put := get(spanL2Get), get(spanL2Put)
	srvGet, srvPut := get(spanStoreGet), get(spanStorePut)
	v["httpcache.get_rtt_us_per_batch"] = ratio(float64(l2get.ns)/1e3, float64(l2get.count))
	v["httpcache.put_rtt_us_per_batch"] = ratio(float64(l2put.ns)/1e3, float64(l2put.count))
	keys := float64(c.getKeys + c.putKeys)
	v["httpcache.wire_us_per_key"] = ratio(float64(l2get.ns+l2put.ns-srvGet.ns-srvPut.ns)/1e3, keys)
	v["httpcache.wire_bytes_per_key"] = ratio(float64(c.cacheWire), keys)
	v["httpcache.keys_per_request_mean"] = ratio(keys, float64(c.gets+c.puts))
	v["httpcache.retries"] = float64(m.lastRep.cacheRetries)

	ap := get(spanAppend)
	v["stream.append_us"] = ratio(float64(ap.ns)/1e3, float64(ap.count))
	var appended, gated int
	for _, st := range m.lastRep.stream {
		appended += st.Appended
		gated += st.Gated
	}
	v["stream.gated_share"] = ratio(float64(gated), float64(appended))

	var firsts []float64
	var events, dropped, refine, dense int64
	for _, o := range rep.ops {
		events += o.events
		dropped += o.dropped
		refine += o.refineFrames
		dense += o.denseFrames
		if o.first >= 0 {
			firsts = append(firsts, float64(o.first)/1e3)
		}
	}
	if w.ops[0].Kind == opAppend && len(firsts) > 0 {
		v["stream.append_to_first_alert_us"] = median(firsts)
	}
	v["emit.events_per_kframe"] = ratio(float64(events)*1000, frames)
	v["emit.dropped"] = float64(dropped)
	if w.ops[0].Kind == opTrack {
		v["trackquery.refine_frame_share"] = ratio(float64(refine), frames)
		v["trackquery.dense_x"] = ratio(float64(dense), frames)
	}
}

// timed runs fn, which does n units of work, three times and returns the
// best time and allocation count per unit.
func timed(n int, fn func()) (ns, allocs float64) {
	ns, allocs = math.Inf(1), math.Inf(1)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		fn()
		el := time.Since(start)
		runtime.ReadMemStats(&after)
		ns = math.Min(ns, float64(el)/float64(n))
		allocs = math.Min(allocs, float64(after.Mallocs-before.Mallocs)/float64(n))
	}
	return ns, allocs
}

// replay is the recorder's content prepared for the drivers: distinct
// frames in ascending order, in both detection types.
type replay struct {
	frames []int64
	wire   [][]backend.Detection
	dets   [][]track.Detection
	total  int // detections across all frames
}

func (w *world) replay() replay {
	w.p.rec.mu.Lock()
	recs := append([]recorded(nil), w.p.rec.frames...)
	w.p.rec.mu.Unlock()
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].frame < recs[j].frame })
	var r replay
	for i, rec := range recs {
		if i > 0 && rec.frame == recs[i-1].frame {
			continue
		}
		dets := make([]track.Detection, len(rec.dets))
		for k, d := range rec.dets {
			dets[k] = track.Detection{Frame: rec.frame, Class: d.Class, Score: d.Score, TruthID: d.TruthID,
				Box: geom.Box{X1: d.Box.X1, Y1: d.Box.Y1, X2: d.Box.X2, Y2: d.Box.Y2}}
		}
		r.frames = append(r.frames, rec.frame)
		r.wire = append(r.wire, rec.dets)
		r.dets = append(r.dets, dets)
		r.total += len(dets)
	}
	return r
}

// drive runs the layer drivers: timed direct calls into each layer's
// exported functions at the workload's own sizes.
func (w *world) drive(v layerValues) {
	seed := mix(w.cfg.seed, 900, 0)
	rp := w.replay()
	batch := w.spec.framesPerRound
	w.driveCore(v, seed)
	w.driveEngine(v)
	w.driveSession(v)
	w.driveDiscrim(v, rp)
	w.driveShard(v, seed)
	w.driveCaches(v, rp, batch)
	w.driveRemote(v, rp, batch)
	w.driveTrack(v, rp, seed)

	ctrl, err := sizer.NewController(sizer.Config{Min: batch}, nil)
	if err == nil {
		n := w.cfg.n(100_000, 5000)
		v["sizer.observe_ns"], _ = timed(n, func() {
			for i := 0; i < n; i++ {
				ctrl.Observe(batch, 0.001+float64(i%7)*1e-5)
			}
		})
	}
}

func (w *world) driveCore(v layerValues, seed uint64) {
	chunks, err := video.SplitRange(0, int64(w.chunks)*2000, w.chunks)
	if err != nil {
		return
	}
	// About the same total work at every chunk count: Next is linear in it.
	picks := w.cfg.n(200_000, 20_000) / w.chunks
	if picks < 256 {
		picks = 256
	}
	if picks > 4096 {
		picks = 4096
	}
	var updateNs float64
	next, allocs := timed(picks, func() {
		s, err := core.New(chunks, core.Config{Seed: seed})
		if err != nil {
			return
		}
		rng := xrand.New(seed)
		drawn := make([]core.Pick, 0, picks)
		for i := 0; i < picks; i++ {
			p, ok := s.Next()
			if !ok {
				break
			}
			drawn = append(drawn, p)
		}
		// Updates are timed on their own; Next dominates the loop above
		// by three orders of magnitude at 1000 chunks.
		start := time.Now()
		for _, p := range drawn {
			d0, d1 := 0, 0
			if rng.Bool(0.1) {
				d0 = 1
			} else if rng.Bool(0.05) {
				d1 = 1
			}
			s.Update(p.Chunk, d0, d1)
		}
		updateNs = float64(time.Since(start)) / float64(len(drawn))
	})
	v["core.next_ns_per_pick"] = next - updateNs
	v["core.update_ns"] = updateNs
	v["core.allocs_per_pick"] = allocs
}

// stubQuery is a scheduler-only query: it proposes a full quota every round
// for a fixed number of frames and does nothing else.
type stubQuery struct {
	frames []int64
	out    []any
	left   int
}

func (q *stubQuery) Done() bool { return q.left <= 0 }
func (q *stubQuery) Propose(max int) []int64 {
	if max > q.left {
		max = q.left
	}
	q.frames = q.frames[:0]
	for i := 0; i < max; i++ {
		q.frames = append(q.frames, int64(i))
	}
	return q.frames
}
func (q *stubQuery) DetectBatch(frames []int64) ([]any, error) {
	q.out = q.out[:0]
	for range frames {
		q.out = append(q.out, nil)
	}
	return q.out, nil
}
func (q *stubQuery) Apply(int64, any) (bool, error) { q.left--; return q.left <= 0, nil }
func (q *stubQuery) Finalize()                      {}

func (w *world) driveEngine(v layerValues) {
	rounds := w.cfg.n(2000, 200)
	quota := w.spec.framesPerRound
	var sched, detects int64
	ns, allocs := timed(1, func() {
		e := engine.New(engine.Config{Workers: w.cfg.clients, FramesPerRound: quota})
		var handles []*engine.Handle
		for c := 0; c < w.cfg.clients; c++ {
			h, err := e.Submit(&stubQuery{left: rounds * quota})
			if err != nil {
				break
			}
			handles = append(handles, h)
		}
		for _, h := range handles {
			h.Wait()
		}
		sched, detects, _ = e.Counters()
		e.Close()
	})
	v["engine.round_us"] = ratio(ns/1e3, float64(sched))
	v["engine.us_per_frame"] = ratio(ns/1e3, float64(detects))
	v["engine.allocs_per_round"] = ratio(allocs, float64(sched))
}

func (w *world) driveSession(v layerValues) {
	sessions, steps := w.cfg.n(64, 8), 64
	if w.fleet != nil {
		// Every step is a one-frame remote batch with its service time.
		sessions, steps = 8, 32
	}
	if sessions > len(w.ops) {
		sessions = len(w.ops)
	}
	var newNs, stepNs time.Duration
	var stepped int
	var mallocs uint64
	var before, after runtime.MemStats
	for i := 0; i < sessions; i++ {
		o := w.ops[i]
		var src exsample.Source
		if o.Kind == opAppend {
			src = w.segs[o.Src][1]
		} else {
			src = w.sources[o.Src]
		}
		start := time.Now()
		s, err := exsample.NewSession(src, exsample.Query{Class: w.spec.class}, exsample.Options{Seed: o.Seed})
		if err != nil {
			return
		}
		newNs += time.Since(start)
		runtime.ReadMemStats(&before)
		start = time.Now()
		n := 0
		for ; n < steps; n++ {
			if _, ok, err := s.Step(); err != nil || !ok {
				break
			}
		}
		stepNs += time.Since(start)
		runtime.ReadMemStats(&after)
		stepped += n
		mallocs += after.Mallocs - before.Mallocs
	}
	v["session.new_us"] = ratio(float64(newNs)/1e3, float64(sessions))
	v["session.step_us_per_frame"] = ratio(float64(stepNs)/1e3, float64(stepped))
	v["session.allocs_per_frame"] = ratio(float64(mallocs), float64(stepped))
}

// truthIndex rebuilds the ground-truth index of the dataset the recorder
// listened to, the way exsample.Synthesize builds it, so the discriminator
// driver runs with the real tracker model.
func (w *world) truthIndex() (*track.Index, error) {
	spec := w.recSpec
	instances, err := synth.Generate(synth.GridSpec{
		NumInstances: spec.NumInstances,
		NumFrames:    spec.NumFrames,
		SkewFraction: spec.SkewFraction,
		MeanDuration: spec.MeanDuration,
		Class:        spec.Class,
		Seed:         spec.Seed,
		TravelX:      spec.TravelX,
		TravelY:      spec.TravelY,
	})
	if err != nil {
		return nil, err
	}
	return track.NewIndex(instances, spec.NumFrames, 0)
}

func (w *world) driveDiscrim(v layerValues, rp replay) {
	idx, err := w.truthIndex()
	if err != nil || len(rp.frames) == 0 {
		return
	}
	ns, allocs := timed(len(rp.frames), func() {
		ext, err := discrim.NewTruthExtender(idx, 1)
		if err != nil {
			return
		}
		d, err := discrim.New(ext, 0)
		if err != nil {
			return
		}
		for i, f := range rp.frames {
			d.Observe(f, rp.dets[i])
		}
	})
	v["discrim.observe_ns_per_det"] = ratio(ns*float64(len(rp.frames)), float64(rp.total))
	v["discrim.allocs_per_frame"] = allocs
}

func (w *world) driveShard(v layerValues, seed uint64) {
	parts := make([]shard.Part, len(w.shardFrames))
	var total int64
	for i, n := range w.shardFrames {
		chunks, err := video.SplitRange(0, n, 8)
		if err != nil {
			return
		}
		parts[i] = shard.Part{NumFrames: n, Chunks: chunks}
		total += n
	}
	m, err := shard.New(parts)
	if err != nil {
		return
	}
	n := w.cfg.n(200_000, 10_000)
	rng := xrand.New(seed)
	frames := make([]int64, 1024)
	for i := range frames {
		frames[i] = rng.Int64N(total)
	}
	var sink int
	v["shard.locate_ns"], _ = timed(n, func() {
		for i := 0; i < n; i++ {
			s, _ := m.Locate(frames[i%len(frames)])
			sink += s
		}
	})
	spinSink += uint64(sink)
}

func (w *world) driveCaches(v layerValues, rp replay, batch int) {
	n := len(rp.frames)
	if n == 0 {
		return
	}
	class := w.spec.class
	var c *cache.Cache
	v["cache.put_ns"], _ = timed(n, func() {
		c = cache.New(1 << 16)
		for i, f := range rp.frames {
			c.Put(cache.Key{Source: 1, Class: class, Frame: f}, rp.dets[i])
		}
	})
	v["cache.get_hit_ns"], v["cache.allocs_per_get"] = timed(n, func() {
		for _, f := range rp.frames {
			c.Get(cache.Key{Source: 1, Class: class, Frame: f})
		}
	})

	keys := make([]cachestore.Key, n)
	for i, f := range rp.frames {
		keys[i] = cachestore.Key{Content: 1, Class: class, Frame: f}
	}
	ctx := context.Background()
	// fetchAll resolves every key through t in round-sized batches; a key
	// no tier holds is filled from the recording.
	fetchAll := func(t *cachestore.Tiered) {
		var out []cachestore.Outcome
		for lo := 0; lo < n; lo += batch {
			hi := lo + batch
			if hi > n {
				hi = n
			}
			out, _ = t.FetchBatch(ctx, keys[lo:hi], out, func(_ context.Context, miss []int) ([][]backend.Detection, []float64, error) {
				dets := make([][]backend.Detection, len(miss))
				for k, i := range miss {
					dets[k] = rp.wire[lo+i]
				}
				return dets, make([]float64, len(miss)), nil
			})
		}
	}
	var l2 *cachestore.Local
	var full *cachestore.Tiered
	v["cachestore.fetch_fill_ns_per_key"], _ = timed(n, func() {
		l2 = cachestore.NewLocal(1 << 16)
		full = cachestore.NewTiered(cachestore.NewLocal(1<<16), l2)
		fetchAll(full)
	})
	v["cachestore.fetch_l1hit_ns_per_key"], _ = timed(n, func() { fetchAll(full) })
	v["cachestore.fetch_l2hit_ns_per_key"], v["cachestore.allocs_per_key_l2hit"] = timed(n, func() {
		fetchAll(cachestore.NewTiered(cachestore.NewLocal(1<<16), l2))
	})
}

// replayBackend is a free detector: it answers from the recording (nothing
// for a frame it never saw) and spends no time.
type replayBackend struct {
	byFrame map[int64][]backend.Detection
	out     [][]backend.Detection // non-nil: every call returns out[:len(frames)], allocation-free
}

func (b *replayBackend) DetectBatch(_ context.Context, _ string, frames []int64) ([][]backend.Detection, error) {
	if b.out != nil {
		return b.out[:len(frames)], nil
	}
	out := make([][]backend.Detection, len(frames))
	for i, f := range frames {
		out[i] = b.byFrame[f]
	}
	return out, nil
}

func (b *replayBackend) Hints() backend.Hints { return backend.Hints{CostSeconds: 0.05} }

func (w *world) driveRemote(v layerValues, rp replay, batch int) {
	n := len(rp.frames)
	if n == 0 {
		return
	}
	if batch > remoteMaxBatch {
		batch = remoteMaxBatch
	}
	ctx := context.Background()
	free := &replayBackend{byFrame: make(map[int64][]backend.Detection, n)}
	for i, f := range rp.frames {
		free.byFrame[f] = rp.wire[i]
	}
	srv := httptest.NewServer(httpbatch.Handler(free))
	defer srv.Close()
	client, err := httpbatch.New(httpbatch.Config{Endpoint: srv.URL, MaxBatch: remoteMaxBatch})
	if err != nil {
		return
	}
	// Cap the frames sent: a loopback round trip per batch is the slow part.
	sent := n
	if sent > 32*batch {
		sent = 32 * batch
	}
	_, v["httpbatch.allocs_per_frame"] = timed(sent, func() {
		for lo := 0; lo < sent; lo += batch {
			hi := lo + batch
			if hi > sent {
				hi = sent
			}
			client.DetectBatch(ctx, w.spec.class, rp.frames[lo:hi])
		}
	})

	// The router over zero-latency, allocation-free replicas: what is left
	// is replica pick, accounting and cost bookkeeping.
	stub := &replayBackend{out: make([][]backend.Detection, batch)}
	r, err := router.New(router.Config{Replicas: []backend.Backend{stub, stub, stub}})
	if err != nil {
		return
	}
	defer r.Close()
	calls := w.cfg.n(5000, 250)
	frames := rp.frames
	if len(frames) > batch {
		frames = frames[:batch]
	}
	ns, allocs := timed(calls, func() {
		for i := 0; i < calls; i++ {
			r.DetectBatchCost(ctx, w.spec.class, frames)
		}
	})
	v["router.overhead_us_per_batch"] = ns / 1e3
	v["router.allocs_per_batch"] = allocs
}

func (w *world) driveTrack(v layerValues, rp replay, seed uint64) {
	spec := w.recSpec
	chunks, err := video.SplitRange(0, spec.NumFrames, int(spec.NumFrames/spec.ChunkFrames))
	if err == nil {
		const stride = 25
		quota := w.spec.framesPerRound
		var nextNs, obsNs time.Duration
		var issued int
		plan, err := trackquery.NewPlan(trackquery.Config{NumFrames: spec.NumFrames, Chunks: chunks, Stride: stride, Pad: stride, Seed: seed})
		if err == nil {
			rng := xrand.New(seed)
			type pick struct {
				frame int64
				chunk int
			}
			round := make([]pick, 0, quota)
			// Round by round, as the engine drives a plan: a quota of Next
			// calls, then their Observes.
			for issued < w.cfg.n(20_000, 2000) {
				round = round[:0]
				start := time.Now()
				for len(round) < quota {
					f, c, ok := plan.Next()
					if !ok {
						break
					}
					round = append(round, pick{f, c})
				}
				nextNs += time.Since(start)
				if len(round) == 0 {
					break
				}
				start = time.Now()
				for _, p := range round {
					plan.Observe(p.frame, p.chunk, rng.Bool(0.05))
				}
				obsNs += time.Since(start)
				issued += len(round)
			}
			v["trackquery.next_ns"] = ratio(float64(nextNs), float64(issued))
			v["trackquery.observe_ns"] = ratio(float64(obsNs), float64(issued))
		}
	}

	if n := len(rp.frames); n > 0 {
		ns, allocs := timed(n, func() {
			t, err := sorttrack.New(sorttrack.Config{})
			if err != nil {
				return
			}
			for i, f := range rp.frames {
				t.Observe(f, rp.dets[i])
			}
			t.Flush()
		})
		v["sorttrack.observe_us_per_frame"] = ns / 1e3
		v["sorttrack.allocs_per_frame"] = allocs
	}

	box := geom.Box{X1: 100, Y1: 100, X2: 160, Y2: 140}
	if f, err := kalman.NewBoxFilter(box, 0, 0); err == nil {
		n := w.cfg.n(200_000, 10_000)
		v["kalman.step_ns"], _ = timed(n, func() {
			for i := 0; i < n; i++ {
				f.Predict(1)
				f.Update(box.Translate(float64(i%5), 0))
			}
		})
	}
}
