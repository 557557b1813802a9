package exsample

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"github.com/exsample/exsample/backend"
)

// reportDigest hashes every Report field bit-exactly: integers as
// themselves, floats through math.Float64bits, strings and slices
// length-prefixed, so two reports share a digest only if they are equal
// down to the last bit of every charged second and curve point.
func reportDigest(rep *Report) string {
	h := sha256.New()
	var b [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	i := func(v int64) { u(uint64(v)) }
	f := func(v float64) { u(math.Float64bits(v)) }
	i(int64(rep.Strategy))
	i(int64(len(rep.Results)))
	for _, r := range rep.Results {
		i(int64(r.ObjectID))
		i(r.Frame)
		i(int64(len(r.Class)))
		h.Write([]byte(r.Class))
		f(r.Box.X1)
		f(r.Box.Y1)
		f(r.Box.X2)
		f(r.Box.Y2)
		f(r.Score)
	}
	i(rep.FramesProcessed)
	f(rep.DetectSeconds)
	f(rep.DecodeSeconds)
	f(rep.ScanSeconds)
	f(rep.Recall)
	i(rep.CacheHits)
	i(rep.CacheMisses)
	i(rep.RemoteCacheHits)
	i(int64(len(rep.CurveSamples)))
	for _, v := range rep.CurveSamples {
		i(v)
	}
	i(int64(len(rep.CurveSeconds)))
	for _, v := range rep.CurveSeconds {
		f(v)
	}
	i(int64(len(rep.CurveFound)))
	for _, v := range rep.CurveFound {
		i(int64(v))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
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
	tiny, err := Synthesize(SynthSpec{NumFrames: 48, NumInstances: 6, Class: "car",
		MeanDuration: 4, ChunkFrames: 8, Seed: 303})
	if err != nil {
		t.Fatal(err)
	}
	rare, err := Synthesize(SynthSpec{NumFrames: 60_000, NumInstances: 4, Class: "unicorn",
		MeanDuration: 20, ChunkFrames: 2000, Seed: 305}, WithPerfectDetector())
	if err != nil {
		t.Fatal(err)
	}
	car := Query{Class: "car", RecallTarget: 0.95}
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
		name string
		run  func(t *testing.T) []*Report
		want []string
	}{
		{"exsample/default", search(ds, car, Options{Seed: 1}, true), []string{"dabf3a324d202b8d"}},
		{"exsample/numchunks16", search(ds, car, Options{Seed: 2, NumChunks: 16}, true), []string{"eecd3eba1b109d6d"}},
		{"exsample/autochunk", search(ds, car, Options{Seed: 3, AutoChunk: true}, true), []string{"4f9c884fe553fd40"}},
		{"exsample/autochunk-tiny", search(tiny, Query{Class: "car", Limit: 1 << 30}, Options{Seed: 4, AutoChunk: true}, true), []string{"f6ecf38e593ef73d"}},
		{"exsample/bayesucb", search(ds, car, Options{Seed: 5, Policy: PolicyBayesUCB}, true), []string{"dbcc746dd9e3f017"}},
		{"exsample/greedy", search(ds, car, Options{Seed: 6, Policy: PolicyGreedy}, true), []string{"f7450f543eab2e75"}},
		{"exsample/uniform-within", search(ds, car, Options{Seed: 7, UniformWithinChunk: true}, true), []string{"4d1ccfa5ddc87372"}},
		{"exsample/fuse-proxy", search(ds, car, Options{Seed: 8, FuseProxyWithinChunk: true, ProxyQuality: 0.7}, true), []string{"43a34ad0bf6193f6"}},
		{"exsample/home-chunk", search(ds, car, Options{Seed: 9, HomeChunkAccounting: true}, true), []string{"515a56224b59f4ce"}},
		{"exsample/batch8", search(ds, car, Options{Seed: 10, BatchSize: 8}, false), []string{"6b98563371492acf"}},
		{"exsample/custom-prior", search(ds, car, Options{Seed: 11, Alpha0: 0.5, Beta0: 2}, true), []string{"34b8975d24b6997e"}},
		{"baseline/random", search(ds, car, Options{Seed: 12, Strategy: StrategyRandom}, true), []string{"bc21accfd13a6795"}},
		{"baseline/random-plus", search(ds, car, Options{Seed: 13, Strategy: StrategyRandomPlus}, true), []string{"39e5c1f20e190074"}},
		{"baseline/sequential", search(ds, Query{Class: "car", Limit: 20}, Options{Seed: 14, Strategy: StrategySequential, MaxFrames: 6000}, true), []string{"c40314c501b91c64"}},
		{"proxy/plain", search(ds, car, Options{Seed: 15, Strategy: StrategyProxy, ProxyQuality: 0.8}, true), []string{"f0f546a414cb8c17"}},
		{"proxy/dup-radius", search(ds, car, Options{Seed: 16, Strategy: StrategyProxy, ProxyQuality: 0.8, ProxyDupRadius: 300}, true), []string{"e0e7f1430da36f44"}},
		{"proxy/train-common", search(ds, car, Options{Seed: 17, Strategy: StrategyProxy, ProxyTrainPositives: 5}, true), []string{"e6386d7d7244e4cb"}},
		{"proxy/train-rare-fallback", search(rare, Query{Class: "unicorn", Limit: 3},
			Options{Seed: 18, Strategy: StrategyProxy, ProxyTrainPositives: 4, ProxyTrainBudget: 200, MaxFrames: 3000}, true), []string{"8e8e168174af11a7"}},
		{"source/sharded-session-addshard", digestShardedSession, []string{"896fb963d4dd8d45"}},
		{"source/stream-standing", digestStreamStanding, []string{"52cd2fa27c6f692d"}},
		{"engine/global-budget", digestGlobalBudget, []string{"e5ad2d9f4af30007", "b7868b137e759634", "67c3946333a52381"}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			reps := row.run(t)
			got := make([]string, len(reps))
			for i, rep := range reps {
				if rep.FramesProcessed == 0 {
					t.Fatalf("report %d processed no frames — vacuous row", i)
				}
				got[i] = reportDigest(rep)
			}
			if !reflect.DeepEqual(got, row.want) {
				t.Errorf("digests = %#v, want %#v", got, row.want)
			}
		})
	}
}

// digestShardedSession steps a default ExSample Session over two elastic
// shards, attaching a third shard mid-run so the sampler's arm set grows
// and the recall denominator widens.
func digestShardedSession(t *testing.T) []*Report {
	ss, err := NewShardedSource("digest", elasticShard(t, 4000, 311), elasticShard(t, 4000, 312))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := ss.NewSession(Query{Class: "car", Limit: 1 << 30}, Options{Seed: 19})
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
	e := newTestEngine(t, EngineOptions{Workers: 1, FramesPerRound: 8, GlobalBudget: 10, FloorQuota: 2, CacheEntries: 1 << 14})
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
