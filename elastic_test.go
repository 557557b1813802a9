package exsample

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/backend/router"
	"github.com/exsample/exsample/internal/shard"
)

// shardSpec returns the SynthSpec shared by a shard and its replica twins.
func shardSpec(framesEach int64, seed uint64) SynthSpec {
	return SynthSpec{
		NumFrames:    framesEach,
		NumInstances: 40,
		Class:        "car",
		MeanDuration: 100,
		SkewFraction: 1.0 / 8,
		ChunkFrames:  framesEach / 8,
		Seed:         seed,
	}
}

// elasticShard synthesizes one shard dataset.
func elasticShard(t *testing.T, framesEach int64, seed uint64, opts ...DatasetOption) *Dataset {
	t.Helper()
	ds, err := Synthesize(shardSpec(framesEach, seed), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// frameShard returns which of the equal-size shards a global frame lives
// on, by layout arithmetic (shards are composed in order).
func frameShard(frame, framesEach int64) int { return int(frame / framesEach) }

func TestElasticNoOpChurnByteIdentity(t *testing.T) {
	// The satellite acceptance test: attaching a shard mid-query and
	// draining it before it is ever sampled must leave a seeded Report
	// byte-identical to a run that never saw the churn — fenced arms are
	// skipped before the sampling policy draws randomness, so the pick
	// stream is untouched.
	const framesEach = 4000
	q := Query{Class: "car", Limit: 1 << 30}
	opts := Options{Seed: 73}

	run := func(churn bool) *Report {
		shards := []*Dataset{
			elasticShard(t, framesEach, 201),
			elasticShard(t, framesEach, 202),
			elasticShard(t, framesEach, 203),
		}
		ss, err := NewShardedSource("fleet", shards...)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := NewSession(ss, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Session is caller-driven: the caller bounds the run at 900 steps
		// (well past the churn window).
		for steps := 0; steps < 900; {
			_, ok, err := sess.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			steps++
			if churn && steps == 120 {
				// Attach and drain with no pick in between: the shard is
				// never used, so the query's next sync sees its chunks
				// already fenced and scores nothing new. (A pick between
				// the two would sample the then-active shard — a real
				// topology change, not a no-op.)
				slot, err := ss.AddShard(elasticShard(t, framesEach, 299))
				if err != nil {
					t.Fatal(err)
				}
				if err := ss.DrainShard(slot); err != nil {
					t.Fatal(err)
				}
			}
		}
		return sess.run.rep
	}

	want := run(false)
	got := run(true)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("no-op churn changed the report:\nplain:   frames=%d results=%d seconds=%v\nchurned: frames=%d results=%d seconds=%v",
			want.FramesProcessed, len(want.Results), want.TotalSeconds(),
			got.FramesProcessed, len(got.Results), got.TotalSeconds())
	}
	// The churned run really did sample between attach and drain, so the
	// identity is not vacuous.
	if want.FramesProcessed < 200 {
		t.Fatalf("run too short to exercise the churn window: %d frames", want.FramesProcessed)
	}
}

func TestElasticDrainFencesShardMidQuery(t *testing.T) {
	// Draining a shard mid-query: picks already made still apply, but no
	// frame of the drained shard is sampled after the drain, the belief
	// state of the other shards carries on, and the query completes with
	// every frame applied exactly once.
	const framesEach = 4000
	shards := shardDatasets(t, 3, framesEach)
	ss, err := NewShardedSource("fleet", shards...)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(ss, Query{Class: "car", Limit: 1 << 30}, Options{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	drainedAt := int64(-1)
	var sawShard1Before bool
	for sess.Frames() < 900 {
		info, ok, err := sess.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if seen[info.Frame] {
			t.Fatalf("frame %d applied twice", info.Frame)
		}
		seen[info.Frame] = true
		sh := frameShard(info.Frame, framesEach)
		if drainedAt >= 0 && sh == 1 {
			t.Fatalf("frame %d (shard 1) sampled after the drain", info.Frame)
		}
		if drainedAt < 0 && sh == 1 {
			sawShard1Before = true
		}
		if drainedAt < 0 && sess.Frames() == 300 {
			if err := ss.DrainShard(1); err != nil {
				t.Fatal(err)
			}
			drainedAt = sess.Frames()
		}
	}
	if !sawShard1Before {
		t.Fatal("shard 1 was never sampled before the drain — fencing untested")
	}
	if got := sess.Frames(); got != 900 {
		t.Fatalf("query processed %d frames, want 900 (two shards hold plenty)", got)
	}
	if int64(len(seen)) != sess.Frames() {
		t.Fatalf("%d distinct frames for %d processed — lost or double-applied work", len(seen), sess.Frames())
	}
	if st := ss.ShardStats(); st[1].Status != "draining" || st[0].Status != "active" {
		t.Fatalf("shard stats statuses = %q/%q", st[0].Status, st[1].Status)
	}
	if ss.NumActiveShards() != 2 {
		t.Fatalf("NumActiveShards = %d", ss.NumActiveShards())
	}
}

func TestElasticAddShardMidQuery(t *testing.T) {
	// A shard attached mid-query becomes sampleable at the next pick: its
	// chunks join as fresh prior arms, its ground truth joins the
	// repository, and the running query starts drawing from it without
	// restarting.
	const framesEach = 4000
	shards := shardDatasets(t, 2, framesEach)
	ss, err := NewShardedSource("fleet", shards...)
	if err != nil {
		t.Fatal(err)
	}
	if gen := ss.Generation(); gen != 1 {
		t.Fatalf("fresh source generation = %d, want 1", gen)
	}
	sess, err := NewSession(ss, Query{Class: "car", Limit: 1 << 30}, Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	var sawNewShard bool
	for {
		info, ok, err := sess.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if frameShard(info.Frame, framesEach) == 2 {
			sawNewShard = true
			break
		}
		if sess.Frames() == 200 {
			if slot, err := ss.AddShard(elasticShard(t, framesEach, 300)); err != nil || slot != 2 {
				t.Fatalf("AddShard: slot=%d err=%v", slot, err)
			}
			if gen := ss.Generation(); gen != 2 {
				t.Fatalf("generation after attach = %d, want 2", gen)
			}
			if ss.NumFrames() != 3*framesEach {
				t.Fatalf("NumFrames after attach = %d", ss.NumFrames())
			}
			if n, _ := ss.GroundTruthCount("car"); n != 120 {
				t.Fatalf("GroundTruthCount after attach = %d, want 120", n)
			}
		}
		if sess.Frames() > 4000 {
			break
		}
	}
	if !sawNewShard {
		t.Fatal("attached shard never sampled by the running query")
	}
	// The running query's recall denominator grew to the reachable
	// population the moment the shard became samplable (40 per shard × 3),
	// so recall can never exceed 1 and RecallTarget tracks the enlarged
	// repository.
	if sess.run.truthTotal != 120 {
		t.Fatalf("recall denominator = %d after attach, want 120", sess.run.truthTotal)
	}
	// A query submitted after the attach sees the enlarged repository from
	// its first pick.
	rep, err := SearchSource(ss, Query{Class: "car", Limit: 5}, Options{Seed: 9, MaxFrames: 400})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FramesProcessed == 0 {
		t.Fatal("post-attach query made no progress")
	}
}

func TestElasticBoundedBudgetWidensOnAttach(t *testing.T) {
	// A MaxFrames budget larger than the repository is clamped at
	// submission, but regains its headroom when an attached shard grows
	// the repository: the query runs past the old size up to its bound.
	const framesEach = 1000
	served := &atomic.Int64{}
	fired := &atomic.Bool{}
	var ss *ShardedSource
	shards := make([]*Dataset, 2)
	for i := range shards {
		twin := elasticShard(t, framesEach, uint64(700+i))
		shards[i] = elasticShard(t, framesEach, uint64(700+i), WithBackend(&gateBackend{
			inner:   twin.Backend(),
			served:  served,
			trigger: 500,
			fired:   fired,
			onFire: func() {
				if _, err := ss.AddShard(elasticShard(t, framesEach, 777)); err != nil {
					t.Errorf("attach: %v", err)
				}
			},
		}))
	}
	var err error
	ss, err = NewShardedSource("fleet", shards...)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, EngineOptions{Workers: 2, FramesPerRound: 4})
	h, err := e.Submit(context.Background(), ss, Query{Class: "car", Limit: 1 << 30},
		Options{Seed: 51, MaxFrames: 3000})
	if err != nil {
		t.Fatal(err)
	}
	for range h.Events() {
	}
	rep, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FramesProcessed != 3000 {
		t.Fatalf("processed %d frames, want 3000 (the bound, reachable after the attach)", rep.FramesProcessed)
	}
}

func TestElasticAllDrainingErrors(t *testing.T) {
	// The satellite error-path bar: a source whose every shard is draining
	// rejects new queries with a clear error instead of panicking or
	// spinning, across all three entry points.
	ds := smallDataset(t)
	ss, err := NewShardedSource("lone", ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.DrainShard(0); err != nil {
		t.Fatal(err)
	}
	q := Query{Class: "car", Limit: 1}
	if _, err := SearchSource(ss, q, Options{Seed: 1}); !errors.Is(err, ErrNoActiveShards) {
		t.Errorf("Search on an all-draining source: %v, want ErrNoActiveShards", err)
	}
	if _, err := NewSession(ss, q, Options{Seed: 1}); !errors.Is(err, ErrNoActiveShards) {
		t.Errorf("NewSession on an all-draining source: %v, want ErrNoActiveShards", err)
	}
	e := newTestEngine(t, EngineOptions{Workers: 1})
	if _, err := e.Submit(context.Background(), ss, q, Options{Seed: 1}); !errors.Is(err, ErrNoActiveShards) {
		t.Errorf("Engine.Submit on an all-draining source: %v, want ErrNoActiveShards", err)
	}
	// Attaching a fresh shard re-opens the source.
	if _, err := ss.AddShard(smallDataset(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := SearchSource(ss, q, Options{Seed: 1, MaxFrames: 50}); err != nil {
		t.Fatalf("Search after re-attach: %v", err)
	}
}

func TestElasticTopologyMutationErrors(t *testing.T) {
	shards := shardDatasets(t, 2, 2000)
	ss, err := NewShardedSource("fleet", shards...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.AddShard(nil); err == nil {
		t.Error("nil shard attached")
	}
	if err := ss.DrainShard(-1); err == nil {
		t.Error("negative shard index drained")
	}
	if err := ss.DrainShard(2); err == nil {
		t.Error("out-of-range shard index drained")
	}
	if err := ss.DrainShard(0); err != nil {
		t.Fatal(err)
	}
	if err := ss.DrainShard(0); err == nil {
		t.Error("double drain accepted")
	}
}

// gateBackend wraps a backend, counting served frames on a shared counter
// and firing a callback exactly once when the count crosses a threshold —
// the deterministic mid-query trigger for the engine churn tests. The
// callback runs on the worker goroutine, i.e. strictly before the round's
// results apply, so the topology change is visible to the very next
// scheduling round.
type gateBackend struct {
	inner   backend.Backend
	served  *atomic.Int64
	trigger int64
	fired   *atomic.Bool
	onFire  func()
}

func (g *gateBackend) DetectBatch(ctx context.Context, class string, frames []int64) ([][]backend.Detection, error) {
	dets, err := g.inner.DetectBatch(ctx, class, frames)
	if err != nil {
		return nil, err
	}
	if g.served.Add(int64(len(frames))) >= g.trigger && g.fired.CompareAndSwap(false, true) {
		g.onFire()
	}
	return dets, nil
}

func (g *gateBackend) Hints() backend.Hints { return g.inner.Hints() }

func TestElasticEngineSurvivesShardDrain(t *testing.T) {
	// Acceptance (b): an Engine query over a 3-shard source survives one
	// shard drained mid-query — the in-flight round finishes and applies,
	// every later round avoids the drained shard, and the report has no
	// lost or double-applied frames.
	const framesEach = 4000
	const perRound = 4
	const maxFrames = 600
	served := &atomic.Int64{}
	fired := &atomic.Bool{}
	var ss *ShardedSource
	shards := make([]*Dataset, 3)
	for i := range shards {
		twin := elasticShard(t, framesEach, uint64(400+i))
		shards[i] = elasticShard(t, framesEach, uint64(400+i), WithBackend(&gateBackend{
			inner:   twin.Backend(),
			served:  served,
			trigger: 200,
			fired:   fired,
			onFire: func() {
				if err := ss.DrainShard(2); err != nil {
					t.Errorf("drain: %v", err)
				}
			},
		}))
	}
	var err error
	ss, err = NewShardedSource("fleet", shards...)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, EngineOptions{Workers: 4, FramesPerRound: perRound, EventBuffer: 1 << 16})
	h, err := e.Submit(context.Background(), ss, Query{Class: "car", Limit: 1 << 30},
		Options{Seed: 21, MaxFrames: maxFrames})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	var events []QueryEvent
	for ev := range h.Events() {
		if seen[ev.Frame] {
			t.Fatalf("frame %d applied twice", ev.Frame)
		}
		seen[ev.Frame] = true
		events = append(events, ev)
	}
	rep, err := h.Wait()
	if err != nil {
		t.Fatalf("query did not survive the drain: %v", err)
	}
	if rep.FramesProcessed != maxFrames {
		t.Fatalf("processed %d frames, want %d", rep.FramesProcessed, maxFrames)
	}
	if int64(len(seen)) != rep.FramesProcessed || h.Dropped() != 0 {
		t.Fatalf("%d distinct frames, %d dropped events, for %d processed — lost or double-applied work",
			len(seen), h.Dropped(), rep.FramesProcessed)
	}
	// The drain fired inside a round that had served < trigger+perRound
	// frames; that round's in-flight picks may still include shard 2
	// (draining shards finish in-flight work), but every event after it
	// must not.
	var sawShard2Before bool
	for _, ev := range events {
		sh := frameShard(ev.Frame, framesEach)
		if ev.FramesProcessed <= 200+perRound {
			if sh == 2 {
				sawShard2Before = true
			}
			continue
		}
		if sh == 2 {
			t.Fatalf("frame %d (drained shard) applied at position %d, after the drain settled",
				ev.Frame, ev.FramesProcessed)
		}
	}
	if !sawShard2Before {
		t.Fatal("shard 2 was never sampled before the drain — fencing untested")
	}
}

func TestElasticEngineSurvivesReplicaDeath(t *testing.T) {
	// Acceptance (a): an Engine query whose shards sit behind 3-replica
	// routers survives one replica killed mid-query on every shard, and
	// the report is byte-identical to (1) a run with a healthy router
	// fleet and (2) a plain routerless run — failover is invisible above
	// the backend seam.
	const framesEach = 4000
	const maxFrames = 500
	q := Query{Class: "car", Limit: 1 << 30}
	opts := Options{Seed: 33, MaxFrames: maxFrames}

	runEngine := func(ss *ShardedSource) *Report {
		t.Helper()
		e := newTestEngine(t, EngineOptions{Workers: 4, FramesPerRound: 4})
		h, err := e.Submit(context.Background(), ss, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		for range h.Events() {
		}
		rep, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// Plain routerless fleet — the PR 3 baseline.
	plainShards := make([]*Dataset, 3)
	for i := range plainShards {
		plainShards[i] = elasticShard(t, framesEach, uint64(500+i))
	}
	ssPlain, err := NewShardedSource("fleet", plainShards...)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runEngine(ssPlain)

	// Routered fleet: each shard fronted by 3 equivalent twin replicas.
	// kill, when set, marks replica 0 dead once the fleet has served
	// enough frames.
	build := func(kill bool) (*ShardedSource, []*router.Router) {
		t.Helper()
		served := &atomic.Int64{}
		fired := &atomic.Bool{}
		var routers []*router.Router
		var killFns []func()
		shards := make([]*Dataset, 3)
		for i := range shards {
			// The doomed replica 0 outweighs its twins 100:1, so the router
			// keeps picking it until the kill trips its breaker, whatever
			// wall-clock latencies it measured on the way.
			specs := make([]router.ReplicaSpec, 3)
			var killReplica func()
			for rIdx := range specs {
				twin := elasticShard(t, framesEach, uint64(500+i))
				dead := &atomic.Bool{}
				specs[rIdx] = router.ReplicaSpec{Backend: &mortalBackend{inner: twin.Backend(), dead: dead}, Weight: 1}
				if rIdx == 0 {
					specs[rIdx].Weight = 100
					killReplica = func() { dead.Store(true) }
				}
			}
			r, err := router.New(router.Config{Specs: specs})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(r.Close)
			routers = append(routers, r)
			killFns = append(killFns, killReplica)
			var be backend.Backend = r
			if kill {
				be = &gateBackend{
					inner:   r,
					served:  served,
					trigger: 150,
					fired:   fired,
					onFire: func() {
						for _, k := range killFns {
							k()
						}
					},
				}
			}
			shards[i] = elasticShard(t, framesEach, uint64(500+i), WithBackend(be))
		}
		ss, err := NewShardedSource("fleet", shards...)
		if err != nil {
			t.Fatal(err)
		}
		return ss, routers
	}

	ssHealthy, _ := build(false)
	healthy := runEngine(ssHealthy)
	if !reflect.DeepEqual(baseline, healthy) {
		t.Fatalf("healthy router fleet diverged from the routerless baseline (frames %d vs %d, results %d vs %d, seconds %v vs %v)",
			healthy.FramesProcessed, baseline.FramesProcessed,
			len(healthy.Results), len(baseline.Results),
			healthy.TotalSeconds(), baseline.TotalSeconds())
	}

	ssKilled, routers := build(true)
	killed := runEngine(ssKilled)
	if !reflect.DeepEqual(baseline, killed) {
		t.Fatalf("replica death became visible in the report (frames %d vs %d, results %d vs %d, seconds %v vs %v)",
			killed.FramesProcessed, baseline.FramesProcessed,
			len(killed.Results), len(baseline.Results),
			killed.TotalSeconds(), baseline.TotalSeconds())
	}
	var failovers int64
	var sawOpen bool
	for _, r := range routers {
		failovers += r.Failovers()
		for _, st := range r.Stats() {
			if st.State == router.Open {
				sawOpen = true
			}
		}
	}
	if failovers < 1 {
		t.Fatalf("no batch ever failed over (failovers=%d) — the kill never bit", failovers)
	}
	if !sawOpen {
		t.Fatal("no breaker opened on the killed replicas")
	}
}

// hookBackend calls hook with its running DetectBatch count after each
// served batch — a deterministic mid-query trigger that needs no sleep. The
// hook runs on the detecting goroutine, before the batch's results apply.
type hookBackend struct {
	backend.Backend
	calls atomic.Int64
	hook  func(call int64)
}

func (b *hookBackend) DetectBatch(ctx context.Context, class string, frames []int64) ([][]backend.Detection, error) {
	dets, err := b.Backend.DetectBatch(ctx, class, frames)
	if err == nil {
		b.hook(b.calls.Add(1))
	}
	return dets, err
}

// trackPair builds a two-shard track scene (6 cars on each 20k-frame
// shard) whose shard 0 detects through a hookBackend calling hook.
func trackPair(t *testing.T, hook func(ss *ShardedSource, call int64)) *ShardedSource {
	t.Helper()
	mk := func(seed uint64, opts ...DatasetOption) *Dataset {
		ds, err := Synthesize(SynthSpec{
			NumFrames:    20_000,
			NumInstances: 6,
			Class:        "car",
			MeanDuration: 300,
			ChunkFrames:  1000,
			Seed:         seed,
			TravelX:      300,
		}, append([]DatasetOption{WithPerfectDetector()}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	var ss *ShardedSource
	hb := &hookBackend{Backend: mk(7).Backend(), hook: func(n int64) { hook(ss, n) }}
	ss, err := NewShardedSource("pair", mk(7, WithBackend(hb)), mk(8))
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

func TestTrackQueriesHonorDrainAndGate(t *testing.T) {
	// A running track query keeps DrainShard's and the motion gate's
	// promise as distinct-object queries do: once shard 1 is drained or
	// gated, its coarse arms are fenced and its refine frames are skipped,
	// so no new frame of shard 1 reaches the detector beyond the round in
	// flight. Shard 0's backend churns shard 1 on its k-th DetectBatch;
	// one k lands in the coarse phase, one in the refine phase.
	drivers := []struct {
		name string
		// slack is how many shard-1 frames the round in flight may still
		// detect after the churn; coarseK and refineK are shard 0's batch
		// counts that land in each phase.
		slack, coarseK, refineK int64
		run                     func(ss *ShardedSource) (*TrackReport, error)
	}{
		{"search", 0, 50, 1500, func(ss *ShardedSource) (*TrackReport, error) {
			return TrackSearch(ss, trackPred(), TrackOptions{Seed: 9})
		}},
		{"engine", 8, 50, 300, func(ss *ShardedSource) (*TrackReport, error) {
			e := newTestEngine(t, EngineOptions{Workers: 4, FramesPerRound: 8})
			h, err := e.SubmitTrack(context.Background(), ss, trackPred(), TrackOptions{Seed: 9})
			if err != nil {
				return nil, err
			}
			return h.Wait()
		}},
	}
	base, err := TrackSearch(trackPair(t, func(*ShardedSource, int64) {}), trackPred(), TrackOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	churns := map[string]func(ss *ShardedSource) error{
		"drain": func(ss *ShardedSource) error { return ss.DrainShard(1) },
		"gate":  func(ss *ShardedSource) error { return ss.setShardStatus(1, shard.Gated) },
	}
	for _, churn := range []string{"drain", "gate"} {
		for _, d := range drivers {
			for _, phase := range []string{"coarse", "refine"} {
				t.Run(churn+"/"+d.name+"/"+phase, func(t *testing.T) {
					k := d.coarseK
					if phase == "refine" {
						k = d.refineK
					}
					atChurn := int64(-1)
					ss := trackPair(t, func(ss *ShardedSource, n int64) {
						if n == k {
							atChurn = ss.ShardStats()[1].DetectCalls
							if err := churns[churn](ss); err != nil {
								t.Error(err)
							}
						}
					})
					rep, err := d.run(ss)
					if err != nil {
						t.Fatalf("query failed after the %s: %v", churn, err)
					}
					if atChurn < 0 {
						t.Fatalf("shard 0 served fewer than %d batches; the %s never fired", k, churn)
					}
					if grew := ss.ShardStats()[1].DetectCalls - atChurn; grew > d.slack {
						t.Fatalf("shard 1 detected %d frames after the %s, want at most %d", grew, churn, d.slack)
					}
					// The churn landed in the phase it names: a coarse churn
					// cuts shard 1's grid short, a refine churn leaves the
					// grid whole and cuts shard 1's refine frames.
					if phase == "coarse" && rep.CoarseFrames >= base.CoarseFrames {
						t.Fatalf("coarse frames %d, want fewer than the undisturbed %d", rep.CoarseFrames, base.CoarseFrames)
					}
					if phase == "refine" && (rep.CoarseFrames != base.CoarseFrames || rep.RefineFrames >= base.RefineFrames) {
						t.Fatalf("coarse/refine frames %d/%d, want %d/fewer than %d",
							rep.CoarseFrames, rep.RefineFrames, base.CoarseFrames, base.RefineFrames)
					}
				})
			}
		}
	}
	for _, d := range drivers {
		t.Run("gate/"+d.name+"/reopen", func(t *testing.T) {
			// A gate that reopens before the grid runs out lets the coarse
			// phase cover the whole grid.
			const gateK, reopenK = 20, 40
			atGate, grew := int64(-1), int64(-1)
			ss := trackPair(t, func(ss *ShardedSource, n int64) {
				var err error
				switch n {
				case gateK:
					atGate = ss.ShardStats()[1].DetectCalls
					err = ss.setShardStatus(1, shard.Gated)
				case reopenK:
					grew = ss.ShardStats()[1].DetectCalls - atGate
					err = ss.setShardStatus(1, shard.Active)
				}
				if err != nil {
					t.Error(err)
				}
			})
			rep, err := d.run(ss)
			if err != nil {
				t.Fatalf("query failed across the gate: %v", err)
			}
			if grew < 0 {
				t.Fatal("the gate never reopened")
			}
			if grew > d.slack {
				t.Fatalf("shard 1 detected %d frames while gated, want at most %d", grew, d.slack)
			}
			if rep.CoarseFrames != base.CoarseFrames {
				t.Fatalf("coarse frames %d, want the undisturbed run's %d", rep.CoarseFrames, base.CoarseFrames)
			}
		})
	}
}

// mortalBackend is a backend with a kill switch, standing in for a replica
// whose process dies.
type mortalBackend struct {
	inner backend.Backend
	dead  *atomic.Bool
}

func (m *mortalBackend) DetectBatch(ctx context.Context, class string, frames []int64) ([][]backend.Detection, error) {
	if m.dead.Load() {
		return nil, errReplicaDown
	}
	return m.inner.DetectBatch(ctx, class, frames)
}

var errReplicaDown = errors.New("replica down: connection refused")

func (m *mortalBackend) Hints() backend.Hints { return m.inner.Hints() }

func TestFrozenLayoutsHonorDrainAndGate(t *testing.T) {
	// A custom arm layout (NumChunks) cannot map a shard onto its arms one
	// to one, yet it must keep DrainShard's and the motion gate's promise:
	// no pick routes to a draining or gated shard. Arms wholly inside such
	// a shard are fenced; a frame drawn from an arm straddling the boundary
	// is discarded uncharged. NumChunks 7 straddles the 2-shard boundary; 8
	// aligns with it.
	layouts := []struct {
		name string
		opts Options
	}{
		{"numchunks8", Options{Seed: 31, NumChunks: 8}},
		{"numchunks7", Options{Seed: 32, NumChunks: 7}},
	}
	step := func(t *testing.T, sess *Session) StepInfo {
		t.Helper()
		info, ok, err := sess.Step()
		if err != nil || !ok {
			t.Fatalf("step %d: ok=%v err=%v", sess.Frames(), ok, err)
		}
		return info
	}
	for _, l := range layouts {
		t.Run("drain/"+l.name, func(t *testing.T) {
			const framesEach = 20_000
			ss, err := NewShardedSource("fleet", elasticShard(t, framesEach, 341), elasticShard(t, framesEach, 342))
			if err != nil {
				t.Fatal(err)
			}
			sess, err := NewSession(ss, Query{Class: "car", Limit: 1 << 30}, l.opts)
			if err != nil {
				t.Fatal(err)
			}
			for sess.Frames() < 200 {
				step(t, sess)
			}
			if err := ss.DrainShard(1); err != nil {
				t.Fatal(err)
			}
			drained := 0
			for sess.Frames() < 2000 {
				if frameShard(step(t, sess).Frame, framesEach) == 1 {
					drained++
				}
			}
			if drained != 0 {
				t.Fatalf("%d of 1800 post-drain picks landed on the drained shard", drained)
			}
		})
		t.Run("gate/"+l.name, func(t *testing.T) {
			const framesEach = 2000
			live0, live2 := liveSegment(t, framesEach, 351), liveSegment(t, framesEach, 353)
			s, err := NewStreamSource(StreamConfig{MotionThreshold: gateThreshold}, live0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range []*Dataset{deadSegment(t, framesEach, 352), live2} {
				if _, err := s.Append(d); err != nil {
					t.Fatal(err)
				}
			}
			if segs := s.Segments(); !segs[1].Gated {
				t.Fatal("dead segment was not gated")
			}
			sess, err := NewSession(s, Query{Class: "car", Limit: 1 << 30}, l.opts)
			if err != nil {
				t.Fatal(err)
			}
			gated := 0
			for sess.Frames() < 3000 {
				if frameShard(step(t, sess).Frame, framesEach) == 1 {
					gated++
				}
			}
			if gated != 0 {
				t.Fatalf("%d of 3000 picks landed in the gated segment", gated)
			}
			if calls := s.ShardStats()[1].DetectCalls; calls != 0 {
				t.Fatalf("gated segment took %d detector calls", calls)
			}
			// Recall is measured against the population active at submit,
			// as for every run that cannot follow the topology.
			n0, _ := live0.GroundTruthCount("car")
			n2, _ := live2.GroundTruthCount("car")
			if sess.run.truthTotal != n0+n2 {
				t.Fatalf("recall denominator = %d, want the live segments' %d", sess.run.truthTotal, n0+n2)
			}
		})
	}
}
