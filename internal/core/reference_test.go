package core

import (
	"math"
	"testing"

	"github.com/exsample/exsample/internal/stats"
	"github.com/exsample/exsample/internal/video"
	"github.com/exsample/exsample/internal/xrand"
)

// referenceChoose is the sequential scan choose ran before Thompson
// compared large groups in probability space: every candidate scored in
// slot order — a small Thompson group's members one Gamma draw each, any
// other group once, a large Thompson group by inverting its maximum — and
// the first strict maximum wins (BayesUCB gives an equal score to the
// lower index). It counts its inversions on s.inversions.
func referenceChoose(s *Sampler) int {
	bestArm, bestGroup, best := -1, -1, 0.0
	level := 1 - 1/float64(s.total+2)
	for gi := range s.groups {
		g := &s.groups[gi]
		if g.size == 0 {
			continue
		}
		if s.cfg.Policy == Thompson && g.size < thompsonCrossover {
			for j := g.head; j >= 0; j = s.arms[j].next {
				if sc := s.rng.Gamma(g.alpha, g.beta); bestArm < 0 && bestGroup < 0 || sc > best {
					bestArm, bestGroup, best = int(j), -1, sc
				}
			}
			continue
		}
		var sc float64
		switch s.cfg.Policy {
		case BayesUCB:
			q, err := stats.GammaQuantile(level, g.alpha, g.beta)
			if err != nil {
				q = g.alpha / g.beta
			}
			sc = q
		case Greedy:
			sc = g.alpha / g.beta
		default:
			u := s.rng.Float64()
			for u == 0 {
				u = s.rng.Float64()
			}
			s.inversions++
			x, _ := stats.GammaQInv(g.alpha, -math.Expm1(math.Log(u)/float64(g.size)))
			sc = x / g.beta
		}
		// Only Thompson scores arms on their own, so under BayesUCB the
		// lead is always a group.
		first := bestArm < 0 && bestGroup < 0
		if first || sc > best || sc == best && s.cfg.Policy == BayesUCB && s.lowest(gi) < s.lowest(bestGroup) {
			bestArm, bestGroup, best = -1, gi, sc
		}
	}
	switch {
	case bestGroup < 0:
		return bestArm
	case s.cfg.Policy == BayesUCB:
		return s.lowest(bestGroup)
	case s.cfg.Policy == Greedy:
		return s.tiedMember(best)
	default:
		return s.member(bestGroup, s.rng.IntN(int(s.groups[bestGroup].size)))
	}
}

// referenceNext is Next with referenceChoose in place of choose.
func referenceNext(s *Sampler) (Pick, bool) {
	for {
		best := referenceChoose(s)
		if best < 0 {
			return Pick{}, false
		}
		o, err := s.order(best)
		if err != nil {
			return Pick{}, false
		}
		frame, ok := o.Next()
		if !ok || o.Remaining() == 0 {
			s.leave(best)
		}
		if ok {
			return Pick{Frame: frame, Chunk: best}, true
		}
	}
}

// twinSamplers builds two identical samplers over m chunks of the given
// length.
func twinSamplers(t testing.TB, m int, frames int64, cfg Config) (*Sampler, *Sampler) {
	t.Helper()
	chunks, err := video.SplitRange(0, int64(m)*frames, m)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(chunks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(chunks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// skewedUpdate draws the discriminator's (d0, d1) for a frame from chunk
// j: one chunk in ten is rich, and d1 > d0 now and then drives N1
// negative.
func skewedUpdate(rng *xrand.RNG, j int) (d0, d1 int) {
	p := 0.01
	if j%10 == 3 {
		p = 0.4
	}
	if rng.Bool(p) {
		d0 = 1 + rng.IntN(2)
	}
	if rng.Bool(p / 2) {
		d1 = 1 + rng.IntN(3)
	}
	return d0, d1
}

// TestThompsonMatchesReferenceScan: the two-phase Thompson scan makes the
// reference scan's every pick, over chunk counts on both sides of
// thompsonCrossover and up to a many-chunk query, under a skewed update
// stream with negative N1, SetEnabled fences and Append.
func TestThompsonMatchesReferenceScan(t *testing.T) {
	for _, m := range []int{1, 19, 20, 21, 64, 1000} {
		for _, seed := range []uint64{1, 2, 3, 11} {
			const frames = 40
			s, ref := twinSamplers(t, m, frames, Config{Seed: seed})
			rng := xrand.New(seed + 100)
			picks := min(600, m*frames/2)
			for i := 0; i < picks; i++ {
				got, gotOK := s.Next()
				want, wantOK := referenceNext(ref)
				if got != want || gotOK != wantOK {
					t.Fatalf("m=%d seed=%d pick %d: %+v %v, reference %+v %v", m, seed, i, got, gotOK, want, wantOK)
				}
				if !gotOK {
					break
				}
				d0, d1 := skewedUpdate(rng, got.Chunk)
				for _, x := range []*Sampler{s, ref} {
					if err := x.Update(got.Chunk, d0, d1); err != nil {
						t.Fatal(err)
					}
				}
				switch r := rng.IntN(40); {
				case r == 0:
					j, on := rng.IntN(s.NumChunks()), rng.Bool(0.5)
					for _, x := range []*Sampler{s, ref} {
						if err := x.SetEnabled(j, on); err != nil {
							t.Fatal(err)
						}
					}
				case r == 1:
					end := s.chunks[len(s.chunks)-1].End
					c := []video.Chunk{{ID: s.NumChunks(), Start: end, End: end + frames}}
					for _, x := range []*Sampler{s, ref} {
						if err := x.Append(c); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
}

// inversionsPerPick drives picks decisions of a Thompson sampler over m
// chunks under the skewed update stream and returns the inversions per
// pick of the two-phase scan and of the reference scan.
func inversionsPerPick(t *testing.T, m, picks int, seed uint64) (scan, reference float64) {
	t.Helper()
	s, ref := twinSamplers(t, m, 4096, Config{Seed: seed})
	rng := xrand.New(seed + 100)
	for i := 0; i < picks; i++ {
		p, ok := s.Next()
		if want, _ := referenceNext(ref); !ok || p != want {
			t.Fatalf("m=%d seed=%d pick %d: %+v %v, reference %+v", m, seed, i, p, ok, want)
		}
		d0, d1 := skewedUpdate(rng, p.Chunk)
		for _, x := range []*Sampler{s, ref} {
			if err := x.Update(p.Chunk, d0, d1); err != nil {
				t.Fatal(err)
			}
		}
	}
	return float64(s.inversions) / float64(picks), float64(ref.inversions) / float64(picks)
}

// TestThompsonInversionsPerPick is the work-count ratchet of the
// probability-space comparison: the group maxima a Thompson decision
// inverts, per pick, over 500 picks with one chunk in ten rich. A lone
// group is never inverted.
func TestThompsonInversionsPerPick(t *testing.T) {
	for _, c := range []struct {
		m     int
		limit float64
	}{{1000, 0.6}, {64, 0.2}} {
		for _, seed := range []uint64{1, 2, 3} {
			scan, reference := inversionsPerPick(t, c.m, 500, seed)
			t.Logf("%d chunks, seed %d: %.3f inversions per pick, reference scan %.3f", c.m, seed, scan, reference)
			if scan > c.limit {
				t.Errorf("%d chunks, seed %d: %.3f inversions per pick, want <= %v", c.m, seed, scan, c.limit)
			}
		}
	}
	// With no updates every drawable arm stays in the prior group.
	s, _ := twinSamplers(t, 1000, 4096, Config{Seed: 5})
	for i := 0; i < 500; i++ {
		if _, ok := s.Next(); !ok {
			t.Fatal("sampler exhausted")
		}
	}
	if s.inversions != 0 {
		t.Fatalf("one group: %d inversions over 500 picks, want 0", s.inversions)
	}
}
