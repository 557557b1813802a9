package exsample

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"testing"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/internal/core"
)

// digester hashes values bit-exactly: integers as themselves, floats
// through math.Float64bits, strings length-prefixed, so two values share a
// digest only if they are equal down to the last bit.
type digester struct {
	h hash.Hash
	b [8]byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) u(v uint64) {
	binary.LittleEndian.PutUint64(d.b[:], v)
	d.h.Write(d.b[:])
}

func (d *digester) i(v int64)   { d.u(uint64(v)) }
func (d *digester) f(v float64) { d.u(math.Float64bits(v)) }

func (d *digester) flag(v bool) {
	if v {
		d.u(1)
	} else {
		d.u(0)
	}
}

func (d *digester) s(v string) {
	d.i(int64(len(v)))
	d.h.Write([]byte(v))
}

func (d *digester) box(b Box) {
	d.f(b.X1)
	d.f(b.Y1)
	d.f(b.X2)
	d.f(b.Y2)
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:8]) }

// reportDigest hashes every Report field bit-exactly, slices
// length-prefixed, so two reports share a digest only if they are equal
// down to the last bit of every charged second and curve point.
func reportDigest(rep *Report) string {
	d := newDigester()
	d.i(int64(rep.Strategy))
	d.i(int64(len(rep.Results)))
	for _, r := range rep.Results {
		d.i(int64(r.ObjectID))
		d.i(r.Frame)
		d.s(r.Class)
		d.box(r.Box)
		d.f(r.Score)
	}
	d.i(rep.FramesProcessed)
	d.f(rep.DetectSeconds)
	d.f(rep.DecodeSeconds)
	d.f(rep.ScanSeconds)
	d.f(rep.Recall)
	d.i(rep.CacheHits)
	d.i(rep.CacheMisses)
	d.i(rep.RemoteCacheHits)
	d.i(int64(len(rep.CurveSamples)))
	for _, v := range rep.CurveSamples {
		d.i(v)
	}
	d.i(int64(len(rep.CurveSeconds)))
	for _, v := range rep.CurveSeconds {
		d.f(v)
	}
	d.i(int64(len(rep.CurveFound)))
	for _, v := range rep.CurveFound {
		d.i(int64(v))
	}
	return d.sum()
}

// trackReportDigest is reportDigest for a TrackReport: every field, the
// submitted predicate included, hashed bit-exactly. Each optional clause
// is prefixed with a presence flag.
func trackReportDigest(rep *TrackReport) string {
	d := newDigester()
	p := rep.Predicate
	d.s(p.Class)
	for _, r := range []Region{p.From, p.To, p.Visits} {
		d.i(int64(len(r)))
		for _, pt := range r {
			d.f(pt.X)
			d.f(pt.Y)
		}
	}
	d.flag(p.Crosses != nil)
	if c := p.Crosses; c != nil {
		for _, v := range []float64{c.A.X, c.A.Y, c.B.X, c.B.Y} {
			d.f(v)
		}
	}
	d.flag(p.Direction != nil)
	if dir := p.Direction; dir != nil {
		d.f(dir.MinDeg)
		d.f(dir.MaxDeg)
	}
	d.i(p.MinDuration)
	d.i(p.MaxDuration)
	d.f(p.MinSpeed)
	d.f(p.MaxSpeed)
	d.i(int64(len(rep.Results)))
	for _, r := range rep.Results {
		d.i(int64(r.TrackID))
		d.s(r.Class)
		d.i(r.Start)
		d.i(r.End)
		d.box(r.StartBox)
		d.box(r.EndBox)
		d.i(int64(r.Hits))
		d.f(r.AvgSpeed)
	}
	d.i(rep.FramesProcessed)
	d.i(rep.CoarseFrames)
	d.i(rep.RefineFrames)
	d.i(int64(rep.Intervals))
	d.i(rep.IntervalFrames)
	d.i(rep.DenseFrames)
	d.f(rep.DetectSeconds)
	d.f(rep.DecodeSeconds)
	d.i(rep.CacheHits)
	d.i(rep.CacheMisses)
	d.i(rep.RemoteCacheHits)
	return d.sum()
}

var digestSpec = SynthSpec{
	NumFrames:    60_000,
	NumInstances: 200,
	Class:        "car",
	MeanDuration: 120,
	SkewFraction: 1.0 / 8,
	ChunkFrames:  2000,
	Seed:         301,
}

// digestDataset is the repository most digest rows search: skewed, noisy
// detector, 30 native chunks.
func digestDataset(t *testing.T, opts ...DatasetOption) *Dataset {
	t.Helper()
	ds, err := Synthesize(digestSpec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// sessionReport drives a Session to Search's full stopping condition and
// returns its report.
func sessionReport(t *testing.T, src Source, q Query, opts Options) *Report {
	t.Helper()
	sess, err := NewSession(src, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	for !sess.run.done() {
		if _, ok, err := sess.Step(); err != nil {
			t.Fatal(err)
		} else if !ok {
			break
		}
	}
	return sess.run.rep
}

// TestReportDigests pins seeded report bytes across commits: every row's
// reports must hash to the digest recorded here, so a refactor that claims
// byte-identity proves it against the code it replaced, not only against
// another entry point of itself. Single-frame rows also assert that a
// Session driven to Search's stopping condition reports identically.
func TestReportDigests(t *testing.T) {
	ds := digestDataset(t)
	car := Query{Class: "car", RecallTarget: 0.95}
	trackSearch := func(src Source, opts TrackOptions) func(t *testing.T) []*TrackReport {
		return func(t *testing.T) []*TrackReport {
			rep, err := TrackSearch(src, trackPred(), opts)
			if err != nil {
				t.Fatal(err)
			}
			return []*TrackReport{rep}
		}
	}
	search := func(src Source, q Query, opts Options, session bool) func(t *testing.T) []*Report {
		return func(t *testing.T) []*Report {
			rep, err := SearchSource(src, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if session {
				if got := sessionReport(t, src, q, opts); !reflect.DeepEqual(rep, got) {
					t.Fatalf("Session diverged from Search: frames %d vs %d, results %d vs %d",
						got.FramesProcessed, rep.FramesProcessed, len(got.Results), len(rep.Results))
				}
			}
			return []*Report{rep}
		}
	}
	rows := []struct {
		name  string
		run   func(t *testing.T) []*Report
		track func(t *testing.T) []*TrackReport
		want  []string
	}{
		{"exsample/default", search(ds, car, Options{Seed: 1}, true), nil, []string{"dabf3a324d202b8d"}},
		{"exsample/numchunks16", search(ds, car, Options{Seed: 2, NumChunks: 16}, true), nil, []string{"eecd3eba1b109d6d"}},
		{"exsample/bayesucb", search(ds, car, Options{Seed: 5, policy: core.BayesUCB}, true), nil, []string{"dbcc746dd9e3f017"}},
		{"exsample/greedy", search(ds, car, Options{Seed: 6, policy: core.Greedy}, true), nil, []string{"f7450f543eab2e75"}},
		{"exsample/batch8", search(ds, car, Options{Seed: 10, BatchSize: 8}, false), nil, []string{"6b98563371492acf"}},
		{"exsample/custom-prior", search(ds, car, Options{Seed: 11, Alpha0: 0.5, Beta0: 2}, true), nil, []string{"34b8975d24b6997e"}},
		{"baseline/random", search(ds, car, Options{Seed: 12, Strategy: StrategyRandom}, true), nil, []string{"bc21accfd13a6795"}},
		{"baseline/random-plus", search(ds, car, Options{Seed: 13, Strategy: StrategyRandomPlus}, true), nil, []string{"39e5c1f20e190074"}},
		{"baseline/sequential", search(ds, Query{Class: "car", Limit: 20}, Options{Seed: 14, Strategy: StrategySequential, MaxFrames: 6000}, true), nil, []string{"c40314c501b91c64"}},
		{"proxy/plain", search(ds, car, Options{Seed: 15, Strategy: StrategyProxy}, true), nil, []string{"f0f546a414cb8c17"}},
		{"proxy/sharded-addshard", search(digestShardedProxySource(t), car, Options{Seed: 25, Strategy: StrategyProxy}, true), nil, []string{"ae535d5550e417e1"}},
		{"source/sharded-session-addshard", digestShardedSession, nil, []string{"896fb963d4dd8d45"}},
		{"source/stream-standing", digestStreamStanding, nil, []string{"52cd2fa27c6f692d"}},
		{"engine/global-budget", digestGlobalBudget, nil, []string{"622ebed7ddd20c0e", "b7868b137e759634", "45a4ddd4e53868cc"}},
		{"track/dataset", nil, trackSearch(trackScene(t), TrackOptions{Seed: 23}), []string{"329780815d90032a"}},
		{"track/sharded-boundary", nil, trackSearch(digestTrackPair(t), TrackOptions{Seed: 24}), []string{"19cf616647ccded4"}},
		{"track/engine", nil, digestTrackEngine, []string{"19cf616647ccded4"}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var got []string
			vacuous := func(i int, frames int64) {
				if frames == 0 {
					t.Fatalf("report %d processed no frames — vacuous row", i)
				}
			}
			if row.track != nil {
				for i, rep := range row.track(t) {
					vacuous(i, rep.FramesProcessed)
					got = append(got, trackReportDigest(rep))
				}
			} else {
				for i, rep := range row.run(t) {
					vacuous(i, rep.FramesProcessed)
					got = append(got, reportDigest(rep))
				}
			}
			if !reflect.DeepEqual(got, row.want) {
				t.Errorf("digests = %#v, want %#v", got, row.want)
			}
		})
	}
}

// digestShardedProxySource composes three shards, the third attached by
// AddShard, so a proxy scan scores frames on every slot and each slot past
// the first decorrelates its scorer's seed.
func digestShardedProxySource(t *testing.T) *ShardedSource {
	ss, err := NewShardedSource("digest-proxy", elasticShard(t, 4000, 331), elasticShard(t, 4000, 332))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.AddShard(elasticShard(t, 4000, 333)); err != nil {
		t.Fatal(err)
	}
	return ss
}

// digestShardedSession steps a default ExSample Session over two elastic
// shards, attaching a third shard mid-run so the sampler's arm set grows
// and the recall denominator widens.
func digestShardedSession(t *testing.T) []*Report {
	ss, err := NewShardedSource("digest", elasticShard(t, 4000, 311), elasticShard(t, 4000, 312))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(ss, Query{Class: "car", Limit: 1 << 30}, Options{Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	for sess.Frames() < 700 {
		if _, ok, err := sess.Step(); err != nil || !ok {
			t.Fatalf("step %d: ok=%v err=%v", sess.Frames(), ok, err)
		}
		if sess.Frames() == 250 {
			if _, err := ss.AddShard(elasticShard(t, 4000, 313)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return []*Report{sess.run.rep}
}

// digestStreamStanding runs a standing engine query over a motion-gated
// StreamSource ring (one segment gated) to its frame budget.
func digestStreamStanding(t *testing.T) []*Report {
	s, err := NewStreamSource(StreamConfig{MotionThreshold: gateThreshold}, liveSegment(t, 2000, 321))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(deadSegment(t, 2000, 322)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(liveSegment(t, 2000, 323)); err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, EngineOptions{Workers: 2, FramesPerRound: 4, EventBuffer: 1 << 12})
	h, err := e.SubmitStanding(context.Background(), s, Query{Class: "car", Limit: 1 << 30}, Options{Seed: 20, MaxFrames: 900})
	if err != nil {
		t.Fatal(err)
	}
	for range h.Events() {
	}
	rep, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return []*Report{rep}
}

// blockFirst holds the first DetectBatch call until release is closed,
// signalling entered once it is inside — a deterministic round boundary
// for admitting a second engine query.
type blockFirst struct {
	backend.Backend
	entered, release chan struct{}
	calls            int
}

func (b *blockFirst) DetectBatch(ctx context.Context, class string, frames []int64) ([][]backend.Detection, error) {
	if b.calls++; b.calls == 1 {
		close(b.entered)
		<-b.release
	}
	return b.Backend.DetectBatch(ctx, class, frames)
}

// digestGlobalBudget runs an ExSample query beside a Random query under a
// contended global budget, so each round's marginal values move the
// quotas, then replays the ExSample query against the warm memo cache.
// One worker keeps detection (and so every cache outcome) serial; the
// Random query is admitted while the first round is held inside the
// detector, so it joins at the second round every time.
func digestGlobalBudget(t *testing.T) []*Report {
	gate := &blockFirst{Backend: digestDataset(t).Backend(), entered: make(chan struct{}), release: make(chan struct{})}
	ds := digestDataset(t, WithBackend(gate))
	e := newTestEngine(t, EngineOptions{Workers: 1, FramesPerRound: 8, GlobalBudget: 10, CacheEntries: 1 << 14})
	q := Query{Class: "car", Limit: 1 << 30}
	hot, err := e.Submit(context.Background(), ds, q, Options{Seed: 21, MaxFrames: 600})
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered
	cold, err := e.Submit(context.Background(), ds, q, Options{Seed: 22, Strategy: StrategyRandom, MaxFrames: 300})
	if err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	var reps []*Report
	for _, h := range []*QueryHandle{hot, cold} {
		rep, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	if g, r := cold.BudgetCounters(); g >= r {
		t.Fatalf("cold counters = (%d, %d): the budget never constrained it", g, r)
	}
	replay, err := e.Submit(context.Background(), ds, q, Options{Seed: 21, MaxFrames: 600})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replay.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return append(reps, rep)
}

// digestTrackPair composes two noisy moving-object scenes into one
// 40k-frame source, so candidate intervals can pad across the boundary.
func digestTrackPair(t *testing.T) *ShardedSource {
	var shards []*Dataset
	for _, seed := range []uint64{331, 332} {
		ds, err := Synthesize(SynthSpec{NumFrames: 20_000, NumInstances: 6, Class: "car",
			MeanDuration: 300, ChunkFrames: 1000, Seed: seed, TravelX: 300})
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, ds)
	}
	ss, err := NewShardedSource("track-pair", shards...)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// digestTrackEngine runs a track query over the two-shard scene through
// the engine: eight-frame rounds on four workers, so refine batches of
// both shards detect concurrently.
func digestTrackEngine(t *testing.T) []*TrackReport {
	e := newTestEngine(t, EngineOptions{Workers: 4, FramesPerRound: 8})
	h, err := e.SubmitTrack(context.Background(), digestTrackPair(t), trackPred(), TrackOptions{Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return []*TrackReport{rep}
}
