package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/exsample/exsample/internal/video"
)

func mkChunks(t *testing.T, numFrames int64, m int) []video.Chunk {
	t.Helper()
	chunks, err := video.SplitRange(0, numFrames, m)
	if err != nil {
		t.Fatal(err)
	}
	return chunks
}

func TestNewValidation(t *testing.T) {
	chunks := []video.Chunk{{ID: 0, Start: 0, End: 10}}
	if _, err := New(nil, Config{}); err == nil {
		t.Error("no chunks accepted")
	}
	if _, err := New([]video.Chunk{{Start: 5, End: 5}}, Config{}); err == nil {
		t.Error("empty chunk accepted")
	}
	if _, err := New(chunks, Config{Alpha0: -1}); err == nil {
		t.Error("negative alpha0 accepted")
	}
	// A non-finite prior would spin the Gamma sampler's rejection loop.
	for _, bad := range []Config{{Alpha0: math.NaN()}, {Beta0: math.NaN()}, {Alpha0: math.Inf(1)}, {Beta0: math.Inf(-1)}} {
		if _, err := New(chunks, bad); err == nil {
			t.Errorf("prior (%v, %v) accepted", bad.Alpha0, bad.Beta0)
		}
	}
	if _, err := New(chunks, Config{Policy: Policy(99)}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := New(chunks, Config{Within: WithinChunk(99)}); err == nil {
		t.Error("unknown within order accepted")
	}
}

func TestSamplerExhaustsAllFramesOnce(t *testing.T) {
	const numFrames = 500
	s, err := New(mkChunks(t, numFrames, 8), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	for {
		p, ok := s.Next()
		if !ok {
			break
		}
		if p.Frame < 0 || p.Frame >= numFrames {
			t.Fatalf("frame %d out of range", p.Frame)
		}
		if seen[p.Frame] {
			t.Fatalf("frame %d sampled twice", p.Frame)
		}
		if !s.Chunks()[p.Chunk].Contains(p.Frame) {
			t.Fatalf("frame %d not inside reported chunk %d", p.Frame, p.Chunk)
		}
		seen[p.Frame] = true
		if err := s.Update(p.Chunk, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != numFrames {
		t.Fatalf("sampled %d distinct frames, want %d", len(seen), numFrames)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("Next succeeded after exhaustion")
	}
}

func TestSamplerExhaustionAllPolicies(t *testing.T) {
	for _, pol := range []Policy{Thompson, BayesUCB, Greedy} {
		for _, within := range []WithinChunk{WithinRandomPlus, WithinUniform} {
			s, err := New(mkChunks(t, 200, 4), Config{Seed: 5, Policy: pol, Within: within})
			if err != nil {
				t.Fatal(err)
			}
			count := 0
			for {
				p, ok := s.Next()
				if !ok {
					break
				}
				count++
				if err := s.Update(p.Chunk, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
			if count != 200 {
				t.Errorf("%v/%v: sampled %d frames, want 200", pol, within, count)
			}
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() []Pick {
		s, err := New(mkChunks(t, 300, 6), Config{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		var picks []Pick
		for i := 0; i < 100; i++ {
			p, ok := s.Next()
			if !ok {
				break
			}
			picks = append(picks, p)
			// Pretend chunk 2 yields results.
			if p.Chunk == 2 {
				s.Update(p.Chunk, 1, 0)
			} else {
				s.Update(p.Chunk, 0, 0)
			}
		}
		return picks
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pick %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestAdaptationConcentratesOnRichChunk(t *testing.T) {
	// Chunk 7 always yields a new result; others never do. After a burn-in,
	// ExSample should allocate most samples to chunk 7.
	const m = 16
	s, err := New(mkChunks(t, 1600000, m), Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 2000
	for i := 0; i < steps; i++ {
		p, ok := s.Next()
		if !ok {
			t.Fatal("exhausted early")
		}
		if p.Chunk == 7 {
			s.Update(p.Chunk, 1, 0)
		} else {
			s.Update(p.Chunk, 0, 0)
		}
	}
	alloc := s.Allocation()
	if alloc[7] < 0.5 {
		t.Fatalf("allocation to rich chunk = %v, want > 0.5 (alloc=%v)", alloc[7], alloc)
	}
}

func TestAdaptationRecoversFromEarlyLuck(t *testing.T) {
	// Chunk 0 yields one early result then nothing; chunk 1 yields steadily.
	// Thompson sampling must not lock onto chunk 0 (§III-B).
	s, err := New(mkChunks(t, 200000, 2), Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	first := true
	for i := 0; i < 3000; i++ {
		p, ok := s.Next()
		if !ok {
			t.Fatal("exhausted early")
		}
		switch {
		case p.Chunk == 0 && first:
			s.Update(0, 1, 0)
			first = false
		case p.Chunk == 1 && i%3 == 0:
			s.Update(1, 1, 0)
		default:
			s.Update(p.Chunk, 0, 0)
		}
	}
	alloc := s.Allocation()
	if alloc[1] < 0.5 {
		t.Fatalf("allocation to steady chunk = %v, want > 0.5", alloc[1])
	}
}

func TestGreedyGetsStuckMoreThanThompson(t *testing.T) {
	// Quantifies the §III-B warning: with an early lucky result in a dead
	// chunk, greedy keeps hammering it far longer than Thompson.
	stuck := func(policy Policy) float64 {
		s, err := New(mkChunks(t, 200000, 2), Config{Seed: 17, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		// Seed chunk 0 with a lucky hit.
		for {
			p, ok := s.Next()
			if !ok {
				t.Fatal("exhausted")
			}
			if p.Chunk == 0 {
				s.Update(0, 1, 0)
				break
			}
			s.Update(p.Chunk, 0, 0)
		}
		deadDraws := 0
		for i := 0; i < 500; i++ {
			p, ok := s.Next()
			if !ok {
				break
			}
			if p.Chunk == 0 {
				deadDraws++
			}
			// Chunk 1 yields results at a decent rate; chunk 0 never again.
			if p.Chunk == 1 && i%4 == 0 {
				s.Update(1, 1, 0)
			} else {
				s.Update(p.Chunk, 0, 0)
			}
		}
		return float64(deadDraws) / 500
	}
	// The prior-smoothed point estimate decays as 1.1/(n+1), so greedy does
	// eventually leave the dead chunk; the claim under test is the relative
	// one — greedy wastes more draws there than Thompson before moving on.
	g := stuck(Greedy)
	th := stuck(Thompson)
	if g <= th {
		t.Fatalf("greedy dead-chunk fraction %v <= thompson %v; expected greedy to get stuck longer", g, th)
	}
}

func TestUpdateValidation(t *testing.T) {
	s, err := New(mkChunks(t, 100, 2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Update(-1, 0, 0); err == nil {
		t.Error("negative chunk accepted")
	}
	if err := s.Update(2, 0, 0); err == nil {
		t.Error("out-of-range chunk accepted")
	}
	if err := s.Update(0, -1, 0); err == nil {
		t.Error("negative d0 accepted")
	}
	if err := s.Update(0, 0, -1); err == nil {
		t.Error("negative d1 accepted")
	}
}

func TestStatsAndPointEstimate(t *testing.T) {
	s, err := New(mkChunks(t, 100, 2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.Update(0, 2, 0)
	s.Update(0, 0, 1)
	n1, n := s.Stats(0)
	if n1 != 1 || n != 2 {
		t.Fatalf("Stats = (%d, %d)", n1, n)
	}
	// (1 + 0.1) / (2 + 1) with defaults.
	want := 1.1 / 3.0
	if got := s.PointEstimate(0); got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("PointEstimate = %v, want %v", got, want)
	}
	if s.total != 2 {
		t.Fatalf("total samples = %d", s.total)
	}
}

func TestNegativeN1IsHandled(t *testing.T) {
	// An object found in chunk 0 and re-sighted from chunk 1 drives chunk
	// 1's N1 negative; the sampler must keep functioning.
	s, err := New(mkChunks(t, 1000, 2), Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s.Update(1, 0, 1)
	s.Update(1, 0, 1)
	n1, _ := s.Stats(1)
	if n1 != -2 {
		t.Fatalf("N1 = %d", n1)
	}
	if pe := s.PointEstimate(1); pe <= 0 {
		t.Fatalf("PointEstimate = %v, want positive (floored at prior)", pe)
	}
	for i := 0; i < 100; i++ {
		if _, ok := s.Next(); !ok {
			t.Fatal("sampler died on negative N1")
		}
		s.Update(0, 0, 0)
	}
}

func TestBatchedDrawsDoNotRepeatFrames(t *testing.T) {
	// The batched §III-F loop draws repeated Next picks; the
	// without-replacement within-chunk orders guarantee no frame repeats
	// however the draws are grouped into batches.
	s, err := New(mkChunks(t, 1000, 4), Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	for i := 0; i < 16; i++ {
		p, ok := s.Next()
		if !ok {
			t.Fatalf("sampler exhausted after %d of 16 draws", i)
		}
		if seen[p.Frame] {
			t.Fatalf("frame %d repeated within batch", p.Frame)
		}
		seen[p.Frame] = true
		if err := s.Update(p.Chunk, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllocationSumsToOne(t *testing.T) {
	f := func(seed uint64) bool {
		s, err := New(mkChunks(t, 500, 5), Config{Seed: seed})
		if err != nil {
			return false
		}
		for i := 0; i < 100; i++ {
			p, ok := s.Next()
			if !ok {
				break
			}
			s.Update(p.Chunk, i%2, 0)
		}
		sum := 0.0
		for _, w := range s.Allocation() {
			if w < 0 {
				return false
			}
			sum += w
		}
		return sum > 0.999 && sum < 1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAllocationBeforeSampling(t *testing.T) {
	s, err := New(mkChunks(t, 100, 4), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range s.Allocation() {
		if w != 0 {
			t.Fatalf("Allocation before sampling = %v", s.Allocation())
		}
	}
}

func TestBayesUCBAdapts(t *testing.T) {
	s, err := New(mkChunks(t, 1600000, 8), Config{Seed: 23, Policy: BayesUCB})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		p, ok := s.Next()
		if !ok {
			t.Fatal("exhausted early")
		}
		if p.Chunk == 3 {
			s.Update(p.Chunk, 1, 0)
		} else {
			s.Update(p.Chunk, 0, 0)
		}
	}
	if alloc := s.Allocation(); alloc[3] < 0.4 {
		t.Fatalf("BayesUCB allocation to rich chunk = %v", alloc[3])
	}
}

func TestPolicyAndWithinStrings(t *testing.T) {
	if Thompson.String() != "thompson" || BayesUCB.String() != "bayes-ucb" || Greedy.String() != "greedy" {
		t.Error("policy names wrong")
	}
	if WithinRandomPlus.String() != "random+" || WithinUniform.String() != "uniform" {
		t.Error("within names wrong")
	}
	if Policy(42).String() == "" || WithinChunk(42).String() == "" {
		t.Error("unknown enum String empty")
	}
}

func TestFirstDrawsSpreadAcrossChunks(t *testing.T) {
	// With identical priors Thompson breaks ties at random: over many
	// sampler instances the first pick should not always be chunk 0.
	counts := make(map[int]int)
	for seed := uint64(0); seed < 64; seed++ {
		s, err := New(mkChunks(t, 6400, 8), Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		p, ok := s.Next()
		if !ok {
			t.Fatal("no pick")
		}
		counts[p.Chunk]++
	}
	if len(counts) < 4 {
		t.Fatalf("first picks hit only %d distinct chunks: %v", len(counts), counts)
	}
}

// drainSampler drives a sampler to exhaustion, returning the picks.
func drainSampler(t *testing.T, s *Sampler) []Pick {
	t.Helper()
	var picks []Pick
	for {
		p, ok := s.Next()
		if !ok {
			return picks
		}
		picks = append(picks, p)
		if err := s.Update(p.Chunk, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAppendGrowsArms(t *testing.T) {
	base := mkChunks(t, 400, 4)
	s, err := New(base, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	extra := []video.Chunk{{ID: 4, Start: 400, End: 500}, {ID: 5, Start: 500, End: 600}}
	if err := s.Append(extra); err != nil {
		t.Fatal(err)
	}
	if got := s.NumChunks(); got != 6 {
		t.Fatalf("NumChunks = %d, want 6", got)
	}
	if err := s.Append([]video.Chunk{{Start: 5, End: 5}}); err == nil {
		t.Fatal("empty appended chunk accepted")
	}
	seen := make(map[int64]bool)
	for _, p := range drainSampler(t, s) {
		if seen[p.Frame] {
			t.Fatalf("frame %d sampled twice", p.Frame)
		}
		seen[p.Frame] = true
	}
	if len(seen) != 600 {
		t.Fatalf("sampled %d distinct frames, want 600 (base + appended)", len(seen))
	}
}

// TestDisabledArmConsumesNoRandomness is the byte-identity property behind
// elastic drains: a sampler with an appended-then-disabled arm must produce
// exactly the pick sequence of a sampler that never saw the arm.
func TestDisabledArmConsumesNoRandomness(t *testing.T) {
	for _, pol := range []Policy{Thompson, BayesUCB, Greedy} {
		ref, err := New(mkChunks(t, 300, 3), Config{Seed: 11, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		churned, err := New(mkChunks(t, 300, 3), Config{Seed: 11, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		if err := churned.Append([]video.Chunk{{ID: 3, Start: 300, End: 350}}); err != nil {
			t.Fatal(err)
		}
		if err := churned.SetEnabled(3, false); err != nil {
			t.Fatal(err)
		}
		refPicks := drainSampler(t, ref)
		gotPicks := drainSampler(t, churned)
		if len(refPicks) != len(gotPicks) {
			t.Fatalf("%v: %d picks with fenced arm, want %d", pol, len(gotPicks), len(refPicks))
		}
		for i := range refPicks {
			if refPicks[i] != gotPicks[i] {
				t.Fatalf("%v: pick %d = %+v, want %+v", pol, i, gotPicks[i], refPicks[i])
			}
		}
	}
}

func TestSetEnabledFencesAndReadmits(t *testing.T) {
	chunks := mkChunks(t, 200, 4)
	s, err := New(chunks, Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetEnabled(99, false); err == nil {
		t.Fatal("out-of-range chunk accepted")
	}
	if err := s.SetEnabled(1, false); err != nil {
		t.Fatal(err)
	}
	if !s.arms[1].disabled {
		t.Fatal("chunk 1 still enabled after fence")
	}
	for i := 0; i < 150; i++ {
		p, ok := s.Next()
		if !ok {
			break
		}
		if p.Chunk == 1 {
			t.Fatalf("pick %d drawn from fenced chunk 1", i)
		}
		if err := s.Update(p.Chunk, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Updates for in-flight picks of a fenced chunk still apply.
	if err := s.Update(1, 1, 0); err != nil {
		t.Fatal(err)
	}
	if n1, n := s.Stats(1); n1 != 1 || n != 1 {
		t.Fatalf("fenced chunk stats = (%d, %d), want (1, 1)", n1, n)
	}
	// Re-admitting the chunk makes the rest of the repository reachable.
	if err := s.SetEnabled(1, true); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	for {
		p, ok := s.Next()
		if !ok {
			break
		}
		seen[p.Frame] = true
		if err := s.Update(p.Chunk, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	for f := chunks[1].Start; f < chunks[1].End; f++ {
		if !seen[f] {
			t.Fatalf("frame %d of re-admitted chunk never sampled", f)
		}
	}
}

func TestAllArmsDisabledExhausts(t *testing.T) {
	s, err := New(mkChunks(t, 100, 2), Config{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		if err := s.SetEnabled(j, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("Next succeeded with every arm fenced")
	}
}

// TestMaxPointEstimate covers the marginal-value semantics the global
// budget allocator depends on: fresh samplers report the prior, misses
// decay the value, hits raise it, fenced arms are invisible, and an
// exhausted sampler reports zero.
func TestMaxPointEstimate(t *testing.T) {
	chunks, err := video.SplitRange(0, 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(chunks, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	prior := DefaultAlpha0 / DefaultBeta0
	if got := s.MaxPointEstimate(); got != prior {
		t.Fatalf("fresh sampler MaxPointEstimate = %v, want prior %v", got, prior)
	}
	// Misses on one chunk decay it; the untouched chunks hold the max at
	// the prior.
	for i := 0; i < 5; i++ {
		if err := s.Update(0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.MaxPointEstimate(); got != prior {
		t.Fatalf("after misses on one arm MaxPointEstimate = %v, want prior %v (other arms untouched)", got, prior)
	}
	// A hit raises the max above the prior.
	if err := s.Update(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	want := (2 + DefaultAlpha0) / (1 + DefaultBeta0)
	if got := s.MaxPointEstimate(); got != want {
		t.Fatalf("after 2 hits MaxPointEstimate = %v, want %v", got, want)
	}
	// Fencing the hot arm hides it.
	if err := s.SetEnabled(1, false); err != nil {
		t.Fatal(err)
	}
	if got := s.MaxPointEstimate(); got != prior {
		t.Fatalf("with hot arm fenced MaxPointEstimate = %v, want prior %v", got, prior)
	}
	if err := s.SetEnabled(1, true); err != nil {
		t.Fatal(err)
	}
	// Draining every frame drops the value to zero.
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	if got := s.MaxPointEstimate(); got != 0 {
		t.Fatalf("exhausted sampler MaxPointEstimate = %v, want 0", got)
	}
}
