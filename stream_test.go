package exsample

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// liveSegment synthesizes one busy camera segment (dense motion, ~40 cars).
func liveSegment(t *testing.T, framesEach int64, seed uint64) *Dataset {
	t.Helper()
	return elasticShard(t, framesEach, seed)
}

// deadSegment synthesizes a segment with almost nothing in it: one object
// visible for about one frame, so the motion gate's strided probe pass sees
// (nearly) only sensor flicker and the segment's energy sits far below any
// sane threshold.
func deadSegment(t *testing.T, framesEach int64, seed uint64) *Dataset {
	t.Helper()
	ds, err := Synthesize(SynthSpec{
		NumFrames:    framesEach,
		NumInstances: 1,
		Class:        "car",
		MeanDuration: 1,
		SkewFraction: 1.0 / 8,
		ChunkFrames:  framesEach / 8,
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// waitParked yields until the standing query parks (or the deadline fires)
// — the deterministic synchronization point of the ingest tests: a parked
// query has consumed every active frame it can reach.
func waitParked(t *testing.T, h *QueryHandle, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !h.Parked() {
		if time.Now().After(deadline) {
			t.Fatalf("standing query never parked (%s)", what)
		}
		runtime.Gosched()
	}
}

// drainEvents reads the handle's (closed or closing) event channel dry.
func drainEvents(h *QueryHandle) []QueryEvent {
	var out []QueryEvent
	for ev := range h.Events() {
		out = append(out, ev)
	}
	return out
}

const gateThreshold = 0.12

func TestStreamMotionGateFencesDeadSegments(t *testing.T) {
	// The motion-gate acceptance bar: a dead segment is attached already
	// fenced, so over the whole query its DetectCalls stay exactly zero —
	// the only charge the stream ever takes for it is the strided gate
	// probe pass.
	const framesEach = 2000
	s, err := NewStreamSource(StreamConfig{MotionThreshold: gateThreshold},
		liveSegment(t, framesEach, 801))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(deadSegment(t, framesEach, 802)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(liveSegment(t, framesEach, 803)); err != nil {
		t.Fatal(err)
	}
	segs := s.Segments()
	if segs[0].Gated || !segs[1].Gated || segs[2].Gated {
		t.Fatalf("gate verdicts = %v/%v/%v (energies %v/%v/%v), want live/dead/live",
			segs[0].Gated, segs[1].Gated, segs[2].Gated,
			segs[0].Energy, segs[1].Energy, segs[2].Energy)
	}
	if segs[0].Energy < 0.2 || segs[2].Energy < 0.2 {
		t.Fatalf("live segments probed suspiciously quiet: %v / %v", segs[0].Energy, segs[2].Energy)
	}
	st := s.StreamStats()
	if st.Gated != 1 || st.Live != 3 || st.GateSeconds <= 0 {
		t.Fatalf("stream stats = %+v, want 1 gated of 3 live with a positive gate charge", st)
	}
	if s.NumActiveShards() != 2 {
		t.Fatalf("NumActiveShards = %d, want 2 (gated segment fenced)", s.NumActiveShards())
	}

	rep, err := SearchSource(s, Query{Class: "car", Limit: 1 << 30}, Options{Seed: 5, MaxFrames: 800})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FramesProcessed != 800 {
		t.Fatalf("processed %d frames, want 800", rep.FramesProcessed)
	}
	for _, sh := range s.ShardStats() {
		switch sh.Shard {
		case 1:
			if sh.DetectCalls != 0 {
				t.Fatalf("gated segment took %d detector calls, want 0", sh.DetectCalls)
			}
			if sh.Status != "gated" {
				t.Fatalf("gated segment status = %q", sh.Status)
			}
		default:
			if sh.DetectCalls == 0 {
				t.Fatalf("live segment %d never reached the detector", sh.Shard)
			}
		}
	}
}

func TestStreamStandingMatchesOfflineSearch(t *testing.T) {
	// The determinism regression bar: a standing engine query over the ring
	// must report byte-identically to an offline Search over a ShardedSource
	// composed of the same segment history with the same slots drained —
	// same seed, same budget. Streaming changes when frames become
	// sampleable, never what the sampler does with them.
	const framesEach = 2000
	const budget = 500
	q := Query{Class: "car", Limit: 1 << 30}
	opts := Options{Seed: 67, MaxFrames: budget}
	seeds := []uint64{901, 902, 903, 904, 905, 906}

	s, err := NewStreamSource(StreamConfig{Retention: 4}, liveSegment(t, framesEach, seeds[0]))
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds[1:] {
		if _, err := s.Append(liveSegment(t, framesEach, seed)); err != nil {
			t.Fatal(err)
		}
	}
	// Retention 4 over 6 appends: slots 0 and 1 evicted.
	if st := s.StreamStats(); st.Evicted != 2 || st.Live != 4 {
		t.Fatalf("ring state = %+v, want 2 evicted / 4 live", st)
	}
	e := newTestEngine(t, EngineOptions{Workers: 4, FramesPerRound: 1, EventBuffer: 1 << 10})
	h, err := e.SubmitStanding(context.Background(), s, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	for range h.Events() {
	}
	got, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}

	offline := make([]*Dataset, len(seeds))
	for i, seed := range seeds {
		offline[i] = liveSegment(t, framesEach, seed)
	}
	ss, err := NewShardedSource("stream", offline...)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 2; slot++ {
		if err := ss.DrainShard(slot); err != nil {
			t.Fatal(err)
		}
	}
	want, err := SearchSource(ss, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("standing stream query diverged from offline search:\noffline: frames=%d results=%d seconds=%v\nstream:  frames=%d results=%d seconds=%v",
			want.FramesProcessed, len(want.Results), want.TotalSeconds(),
			got.FramesProcessed, len(got.Results), got.TotalSeconds())
	}
	if got.FramesProcessed != budget {
		t.Fatalf("budget not spent: %d frames", got.FramesProcessed)
	}
}

func TestStreamStandingParksAndWakesOnAppend(t *testing.T) {
	// The tentpole lifecycle: a standing query drains the ring, parks
	// (leaves the scheduler entirely — no terminal Reason), wakes when a
	// segment is appended, emits the new segment's alerts incrementally,
	// and parks again. Frames are applied exactly once across the whole
	// life of the query.
	const framesEach = 1000
	s, err := NewStreamSource(StreamConfig{}, liveSegment(t, framesEach, 811))
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, EngineOptions{Workers: 2, FramesPerRound: 8, EventBuffer: 1 << 15})
	// No Limit and no RecallTarget: an open-ended alert query, legal only
	// for SubmitStanding.
	h, err := e.SubmitStanding(context.Background(), s, Query{Class: "car"}, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	waitParked(t, h, "after consuming the initial segment")
	if _, err := s.Append(liveSegment(t, framesEach, 812)); err != nil {
		t.Fatal(err)
	}
	waitParked(t, h, "after consuming the appended segment")
	if parks, wakes := e.Stats().Parks, e.Stats().Wakes; parks < 2 || wakes < 1 {
		t.Fatalf("park/wake counters = %d/%d, want at least 2/1", parks, wakes)
	}

	h.Cancel()
	rep, err := h.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled standing query returned %v, want context.Canceled", err)
	}
	if rep.FramesProcessed != 2*framesEach {
		t.Fatalf("processed %d frames, want %d (both segments, every frame exactly once)",
			rep.FramesProcessed, 2*framesEach)
	}
	seen := make(map[int64]bool)
	for _, ev := range drainEvents(h) {
		if seen[ev.Frame] {
			t.Fatalf("frame %d emitted twice", ev.Frame)
		}
		seen[ev.Frame] = true
	}
	if len(seen) != 2*framesEach || h.Dropped() != 0 {
		t.Fatalf("%d distinct events, %d dropped, want %d/0", len(seen), h.Dropped(), 2*framesEach)
	}
}

func TestStreamStandingParksOnEmptyRingAndTypedSentinel(t *testing.T) {
	// Satellite: when retention + the gate leave zero active shards,
	// bounded entry points fail with the typed ErrNoActiveShards sentinel,
	// while a standing query parks and catches the next live append.
	const framesEach = 1000
	s, err := NewStreamSource(StreamConfig{Retention: 1, MotionThreshold: gateThreshold},
		liveSegment(t, framesEach, 821))
	if err != nil {
		t.Fatal(err)
	}
	// Appending a dead segment evicts the only live one: the ring now
	// retains a single gated segment and nothing is samplable.
	if _, err := s.Append(deadSegment(t, framesEach, 822)); err != nil {
		t.Fatal(err)
	}
	if s.NumActiveShards() != 0 {
		t.Fatalf("NumActiveShards = %d, want 0", s.NumActiveShards())
	}
	q := Query{Class: "car", Limit: 1}
	if _, err := SearchSource(s, q, Options{Seed: 1}); !errors.Is(err, ErrNoActiveShards) {
		t.Fatalf("Search error = %v, want ErrNoActiveShards", err)
	}
	if _, err := NewSession(s, q, Options{Seed: 1}); !errors.Is(err, ErrNoActiveShards) {
		t.Fatalf("NewSession error = %v, want ErrNoActiveShards", err)
	}
	e := newTestEngine(t, EngineOptions{Workers: 2, FramesPerRound: 4, EventBuffer: 1 << 15})
	if _, err := e.Submit(context.Background(), s, q, Options{Seed: 1}); !errors.Is(err, ErrNoActiveShards) {
		t.Fatalf("Engine.Submit error = %v, want ErrNoActiveShards", err)
	}

	h, err := e.SubmitStanding(context.Background(), s, Query{Class: "car"}, Options{Seed: 2})
	if err != nil {
		t.Fatalf("standing query rejected on an all-fenced ring: %v", err)
	}
	waitParked(t, h, "on the empty ring")
	if _, err := s.Append(liveSegment(t, framesEach, 823)); err != nil {
		t.Fatal(err)
	}
	waitParked(t, h, "after the ring came back to life")
	h.Cancel()
	rep, err := h.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if rep.FramesProcessed != framesEach {
		t.Fatalf("processed %d frames, want %d (exactly the live segment)", rep.FramesProcessed, framesEach)
	}
	for _, ev := range drainEvents(h) {
		if slot := int(ev.Frame / framesEach); slot != 2 {
			t.Fatalf("frame %d belongs to slot %d, want only the live slot 2", ev.Frame, slot)
		}
	}
}

func TestStreamReplayDeterminism(t *testing.T) {
	// Replaying an identical ingest schedule — appends issued only at park
	// boundaries, so arrival order relative to the sampler is pinned — must
	// reproduce the identical alert log and final report. This is what
	// makes a live incident replayable offline.
	const framesEach = 1000
	type step struct {
		seed uint64
		dead bool
	}
	schedule := []step{{831, false}, {832, true}, {833, false}, {834, true}, {835, false}}

	run := func() ([]QueryEvent, *Report) {
		t.Helper()
		s, err := NewStreamSource(StreamConfig{Retention: 4, MotionThreshold: gateThreshold},
			liveSegment(t, framesEach, 830))
		if err != nil {
			t.Fatal(err)
		}
		e := newTestEngine(t, EngineOptions{Workers: 3, FramesPerRound: 3, EventBuffer: 1 << 15})
		h, err := e.SubmitStanding(context.Background(), s, Query{Class: "car"}, Options{Seed: 19})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range schedule {
			waitParked(t, h, "between schedule steps")
			seg := liveSegment(t, framesEach, st.seed)
			if st.dead {
				seg = deadSegment(t, framesEach, st.seed)
			}
			info, err := s.Append(seg)
			if err != nil {
				t.Fatal(err)
			}
			if info.Gated != st.dead {
				t.Fatalf("segment seed %d gated=%v, want %v", st.seed, info.Gated, st.dead)
			}
		}
		waitParked(t, h, "after the full schedule")
		h.Cancel()
		rep, err := h.Wait()
		if !errors.Is(err, context.Canceled) {
			t.Fatal(err)
		}
		return drainEvents(h), rep
	}

	events1, rep1 := run()
	events2, rep2 := run()
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("replayed ingest diverged: frames %d vs %d, results %d vs %d, seconds %v vs %v",
			rep1.FramesProcessed, rep2.FramesProcessed, len(rep1.Results), len(rep2.Results),
			rep1.TotalSeconds(), rep2.TotalSeconds())
	}
	if !reflect.DeepEqual(events1, events2) {
		t.Fatalf("replayed alert logs diverged: %d vs %d events", len(events1), len(events2))
	}
	// 1 initial + 3 live appends, dead segments fenced at birth.
	if want := int64(4 * framesEach); rep1.FramesProcessed != want {
		t.Fatalf("processed %d frames, want %d (live segments only)", rep1.FramesProcessed, want)
	}
}

func TestStreamRetentionEvictsMidQuery(t *testing.T) {
	// Eviction fencing under a live query, deterministically: a Session
	// (caller-driven, single-threaded) is mid-segment when retention drains
	// the ring's tail; no frame of the evicted slot may be sampled after
	// the append that evicted it returns.
	const framesEach = 3000
	s, err := NewStreamSource(StreamConfig{Retention: 2}, liveSegment(t, framesEach, 841))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(s, Query{Class: "car", Limit: 1 << 30}, Options{Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	var sawSlot0, evicted bool
	for sess.Frames() < 900 {
		info, ok, err := sess.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		slot := int(info.Frame / framesEach)
		if !evicted && slot == 0 {
			sawSlot0 = true
		}
		if evicted && slot == 0 {
			t.Fatalf("frame %d (evicted slot 0) sampled after the eviction", info.Frame)
		}
		if !evicted && sess.Frames() == 150 {
			if _, err := s.Append(liveSegment(t, framesEach, 842)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Append(liveSegment(t, framesEach, 843)); err != nil {
				t.Fatal(err)
			}
			evicted = true
			if segs := s.Segments(); !segs[0].Evicted || segs[1].Evicted {
				t.Fatalf("ring after appends = %+v, want exactly slot 0 evicted", segs)
			}
		}
	}
	if !sawSlot0 {
		t.Fatal("slot 0 never sampled before its eviction — fencing untested")
	}
	if got := sess.Frames(); got != 900 {
		t.Fatalf("query processed %d frames, want 900 (two live segments remain)", got)
	}
	if st := s.StreamStats(); st.Live != 2 || st.Evicted != 1 {
		t.Fatalf("stream stats = %+v, want 2 live / 1 evicted", st)
	}
}

func TestStreamChurnSoak(t *testing.T) {
	// The race/churn soak: eight concurrent queries — half standing, half
	// bounded — over a ring whose writer keeps appending (live and dead)
	// and whose retention keeps evicting, all under the race detector. No
	// query loses or double-applies a frame, nothing samples a gated
	// segment, and the standing queries survive the full churn.
	runStreamChurnSoak(t, EngineOptions{Workers: 4, FramesPerRound: 4, EventBuffer: 1 << 16})
}

func TestStreamChurnSoakGlobalBudget(t *testing.T) {
	// The same churn soak with the global marginal-value budget driving the
	// rounds: values are polled while standing queries park, wake and see
	// their arm set grow, and the budget (16 frames over 8 queries, floor 1)
	// keeps every query — including the near-zero-value ones late in the
	// run — progressing without loss, duplication or gated-segment samples.
	runStreamChurnSoak(t, EngineOptions{Workers: 4, FramesPerRound: 4,
		EventBuffer: 1 << 16, GlobalBudget: 16})
}

func runStreamChurnSoak(t *testing.T, engOpts EngineOptions) {
	const framesEach = 1000
	const appends = 11
	dead := func(slot int) bool { return slot%3 == 2 }

	s, err := NewStreamSource(StreamConfig{Retention: 5, MotionThreshold: gateThreshold},
		liveSegment(t, framesEach, 860))
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, engOpts)

	var standing, bounded []*QueryHandle
	for i := 0; i < 4; i++ {
		h, err := e.SubmitStanding(context.Background(), s, Query{Class: "car"},
			Options{Seed: uint64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		standing = append(standing, h)
	}
	for i := 0; i < 4; i++ {
		h, err := e.Submit(context.Background(), s, Query{Class: "car", Limit: 1 << 30},
			Options{Seed: uint64(200 + i), MaxFrames: 600})
		if err != nil {
			t.Fatal(err)
		}
		bounded = append(bounded, h)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for slot := 1; slot <= appends; slot++ {
			seg := liveSegment(t, framesEach, uint64(860+slot))
			if dead(slot) {
				seg = deadSegment(t, framesEach, uint64(860+slot))
			}
			info, err := s.Append(seg)
			if err != nil {
				t.Errorf("append %d: %v", slot, err)
				return
			}
			if info.Gated != dead(slot) {
				t.Errorf("segment %d gated=%v, want %v", slot, info.Gated, dead(slot))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()

	check := func(h *QueryHandle, rep *Report, label string) {
		t.Helper()
		seen := make(map[int64]bool)
		for _, ev := range drainEvents(h) {
			if seen[ev.Frame] {
				t.Fatalf("%s: frame %d applied twice", label, ev.Frame)
			}
			seen[ev.Frame] = true
			slot := int(ev.Frame / framesEach)
			if slot < 0 || slot > appends {
				t.Fatalf("%s: frame %d outside any appended segment", label, ev.Frame)
			}
			if slot > 0 && dead(slot) {
				t.Fatalf("%s: frame %d sampled from gated slot %d", label, ev.Frame, slot)
			}
		}
		if int64(len(seen)) != rep.FramesProcessed || h.Dropped() != 0 {
			t.Fatalf("%s: %d distinct frames, %d dropped, report says %d — lost or double work",
				label, len(seen), h.Dropped(), rep.FramesProcessed)
		}
	}

	for i, h := range bounded {
		rep, err := h.Wait()
		if err != nil {
			t.Fatalf("bounded query %d: %v", i, err)
		}
		if rep.FramesProcessed == 0 {
			t.Fatalf("bounded query %d made no progress", i)
		}
		check(h, rep, "bounded")
	}
	for i, h := range standing {
		waitParked(t, h, "soak wind-down")
		h.Cancel()
		rep, err := h.Wait()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("standing query %d: %v", i, err)
		}
		check(h, rep, "standing")
		if rep.FramesProcessed == 0 {
			t.Fatalf("standing query %d made no progress", i)
		}
	}
	// Gated slots never cost a detector call, churn or no churn.
	for _, sh := range s.ShardStats() {
		if sh.Shard > 0 && dead(sh.Shard) && sh.DetectCalls != 0 {
			t.Fatalf("gated slot %d took %d detector calls", sh.Shard, sh.DetectCalls)
		}
	}
	if p, w := e.Stats().Parks, e.Stats().Wakes; p == 0 || w == 0 {
		t.Fatalf("soak never exercised park/wake (parks=%d wakes=%d)", p, w)
	}
}

func TestStreamConstructionAndValidation(t *testing.T) {
	const framesEach = 1000
	if _, err := NewStreamSource(StreamConfig{Retention: -1}, liveSegment(t, framesEach, 871)); err == nil {
		t.Error("negative retention accepted")
	}
	if _, err := NewStreamSource(StreamConfig{MotionThreshold: -0.1}, liveSegment(t, framesEach, 871)); err == nil {
		t.Error("negative motion threshold accepted")
	}
	if _, err := NewStreamSource(StreamConfig{}); err == nil {
		t.Error("stream with no initial segment accepted")
	}
	if _, err := NewStreamSource(StreamConfig{}, nil); err == nil {
		t.Error("nil initial segment accepted")
	}
	s, err := NewStreamSource(StreamConfig{}, liveSegment(t, framesEach, 873))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(nil); err == nil {
		t.Error("nil append accepted")
	}

	e := newTestEngine(t, EngineOptions{Workers: 1})
	ctx := context.Background()
	bad := []struct {
		q    Query
		opts Options
	}{
		{Query{}, Options{}},
		{Query{Class: "car", Limit: -1}, Options{}},
		{Query{Class: "car", RecallTarget: 1.5}, Options{}},
		{Query{Class: "car"}, Options{BatchSize: 4}},
		{Query{Class: "car"}, Options{NumChunks: 8}},
	}
	for i, c := range bad {
		if _, err := e.SubmitStanding(ctx, s, c.q, c.opts); err == nil {
			t.Errorf("bad standing submission %d accepted: %+v %+v", i, c.q, c.opts)
		}
	}
	// A standing query against a fixed local Dataset is rejected: there is
	// no live topology to follow, so "standing" would just be a bounded
	// query that can never wake.
	if _, err := e.SubmitStanding(ctx, smallDataset(t), Query{Class: "car"}, Options{}); err == nil {
		t.Error("standing query against a non-elastic source accepted")
	}
}
