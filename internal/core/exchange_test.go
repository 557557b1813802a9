package core

import (
	"math"
	"testing"

	"github.com/exsample/exsample/internal/video"
)

// Exactness of the exchangeable-arms path: Next scores groups, and the
// reference below scores arms one by one, as the sampler did before groups
// existed (with an exact tie-break for Greedy, see referencePick). Both run
// over the same fixed belief state; the share of decisions each belief key
// wins must agree.

// armState is a block of arms brought to one (N1, n) state.
type armState struct {
	count int
	n1, n int64
}

// mixedSampler builds a sampler whose arms are the given blocks, set up
// through Update alone (the first update carries N1, so a block with n = 0
// must have N1 = 0), followed by one disabled and one exhausted arm whose
// beliefs would otherwise lead every decision. It returns the sampler and
// the two arms that must never win.
func mixedSampler(t *testing.T, cfg Config, blocks []armState) (*Sampler, map[int]bool) {
	t.Helper()
	blocks = append(blocks,
		armState{count: 1, n1: 40, n: 2}, // disabled
		armState{count: 1, n1: 40, n: 2}, // exhausted
	)
	m := 0
	for _, b := range blocks {
		m += b.count
	}
	const frames = 4
	chunks, err := video.SplitRange(0, int64(m)*frames, m)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(chunks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := 0
	for _, b := range blocks {
		for i := 0; i < b.count; i, j = i+1, j+1 {
			for k := int64(0); k < b.n; k++ {
				d0, d1 := 0, 0
				if k == 0 {
					d0, d1 = int(max(b.n1, 0)), int(max(-b.n1, 0))
				}
				if err := s.Update(j, d0, d1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	disabled, exhausted := m-2, m-1
	// Drain the exhausted arm: fence everything else, pick its frames out,
	// then re-admit the rest.
	for a := 0; a < m; a++ {
		if a != exhausted {
			if err := s.SetEnabled(a, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	for f := 0; f < frames; f++ {
		if p, ok := s.Next(); !ok || p.Chunk != exhausted {
			t.Fatalf("drain pick %d = %+v, %v", f, p, ok)
		}
	}
	for a := 0; a < m; a++ {
		if a != disabled {
			if err := s.SetEnabled(a, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s, map[int]bool{disabled: true, exhausted: true}
}

// referencePick is the per-arm policy loop: every drawable arm scored on
// its own in index order, first strict maximum wins. Greedy breaks exact
// ties by a uniform 64-bit priority per arm. (The per-arm loop this package
// used to run added 1e-12·U to the estimate instead; at an estimate of 1
// that noise has only about 4500 distinct values, so a few percent of
// 500-way ties went to the lowest index.)
func referencePick(s *Sampler) int {
	best, bestScore, bestPriority := -1, 0.0, uint64(0)
	for j := range s.arms {
		if s.arms[j].disabled || s.orders[j] != nil && s.orders[j].Remaining() == 0 {
			continue
		}
		alpha, beta := s.alphaBeta(j)
		var sc float64
		var priority uint64
		if s.cfg.Policy == Greedy {
			sc, priority = alpha/beta, s.rng.Uint64()
		} else {
			sc = s.rng.Gamma(alpha, beta)
		}
		if best < 0 || sc > bestScore || sc == bestScore && priority > bestPriority {
			best, bestScore, bestPriority = j, sc, priority
		}
	}
	return best
}

type beliefKey struct{ n1, n int64 }

// winShares tallies which belief key each of n decisions picks, and
// returns the first picked arm that was not drawable, or -1.
func winShares(s *Sampler, never map[int]bool, n int, pick func() int) (map[beliefKey]int, int) {
	wins := make(map[beliefKey]int)
	for i := 0; i < n; i++ {
		j := pick()
		if j < 0 || never[j] {
			return wins, j
		}
		n1, nj := s.Stats(j)
		wins[beliefKey{max(n1, 0), nj}]++
	}
	return wins, -1
}

func testGroupWinsMatchReference(t *testing.T, cfg Config, blocks []armState, decisions int) {
	t.Parallel()
	grouped, never := mixedSampler(t, cfg, blocks)
	reference, _ := mixedSampler(t, cfg, blocks)
	got, gotBad := winShares(grouped, never, decisions, grouped.choose)
	want, wantBad := winShares(reference, never, decisions, func() int { return referencePick(reference) })
	if gotBad != -1 || wantBad != -1 {
		t.Fatalf("picked an arm that is not drawable: grouped %d, per arm %d", gotBad, wantBad)
	}
	keys := make(map[beliefKey]bool)
	for k := range got {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	n := float64(decisions)
	for k := range keys {
		p := float64(got[k]+want[k]) / (2 * n)
		if p == 1 {
			continue
		}
		z := (float64(got[k]) - float64(want[k])) / n / math.Sqrt(p*(1-p)*2/n)
		if math.Abs(z) > 4 {
			t.Errorf("key %+v wins %d of %d grouped, %d per arm: z = %.2f", k, got[k], decisions, want[k], z)
		}
	}
	if len(got) < 3 {
		t.Fatalf("only %d keys ever won: %v", len(got), got)
	}
}

// TestThompsonGroupWinsMatchPerArm: drawing a large group's maximum once
// and handing the win to a uniform member is the per-arm Thompson arg-max
// in distribution.
func TestThompsonGroupWinsMatchPerArm(t *testing.T) {
	testGroupWinsMatchReference(t, Config{Seed: 41}, []armState{
		{count: 500},
		{count: 39, n: 1},
		{count: 1, n1: -2, n: 1}, // floors into the key (0, 1)
		{count: 40, n1: 3, n: 1},
		{count: thompsonCrossover - 1, n1: 2, n: 1},
		{count: thompsonCrossover, n1: 4, n: 2},
		{count: 1, n1: 8, n: 2},
		{count: 1, n1: 5, n: 1},
		{count: 1, n1: 1, n: 1},
	}, 100_000)
}

// TestGreedyGroupWinsMatchPerArm: with a (1, 1) prior several keys share
// the point estimate 1 exactly, and Greedy must split its picks among the
// tied arms uniformly, as the reference's per-arm priorities do.
func TestGreedyGroupWinsMatchPerArm(t *testing.T) {
	testGroupWinsMatchReference(t, Config{Seed: 43, Policy: Greedy, Alpha0: 1, Beta0: 1}, []armState{
		{count: 500},
		{count: 40, n1: 1, n: 1},
		{count: 1, n1: -3, n: 1}, // floors into the key (0, 1)
		{count: thompsonCrossover - 1, n1: 3, n: 3},
		{count: 40, n1: 2, n: 3},
		{count: 1, n1: 6, n: 6},
		{count: 1, n1: 1, n: 4},
	}, 100_000)
}
