package core

import (
	"testing"

	"github.com/exsample/exsample/internal/video"
)

// maxFuzzArms bounds the arm count so a group can still outgrow
// thompsonCrossover while every check stays cheap.
const maxFuzzArms = 64

// FuzzSamplerGroups drives random operation sequences decoded from the fuzz
// input — Update (N1 may go negative), SetEnabled (no-op toggles
// included), Append and Next — then draws until the sampler is exhausted.
// After every operation it checks the exchangeable-arm groups against a
// naive recomputation from the arms (see checkGroups), and every Next
// against referenceNext on a twin sampler given the same operations.
func FuzzSamplerGroups(f *testing.F) {
	f.Add(byte(0), []byte{0, 1, 9, 1, 2, 0xfd, 4, 0, 0})
	f.Add(byte(5), []byte{2, 3, 0, 2, 3, 0, 2, 3, 1, 2, 3, 1, 0, 3, 0x0c, 4, 0, 0})
	f.Add(byte(26), []byte{3, 0, 2, 0, 0, 1, 0, 1, 1, 5, 0, 0, 3, 7, 0, 1, 9, 3})
	f.Add(byte(0x47), []byte{0, 0, 4, 0, 1, 4, 0, 2, 4, 1, 0, 0xfc, 2, 1, 0, 4, 0, 0, 3, 2, 3, 2, 1, 1})
	f.Fuzz(func(t *testing.T, setup byte, ops []byte) {
		arms := int(setup%32) + 1
		policy := Policy(setup/32) % 3
		chunks, err := video.SplitRange(0, int64(arms)*3, arms)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Seed: uint64(setup), Policy: policy}
		s, err := New(chunks, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(chunks, cfg)
		if err != nil {
			t.Fatal(err)
		}
		next := func() bool {
			got, ok := s.Next()
			if want, wantOK := referenceNext(ref); got != want || ok != wantOK {
				t.Fatalf("Next = %+v %v, reference %+v %v", got, ok, want, wantOK)
			}
			return ok
		}
		peak := checkGroups(t, s, 0)
		for ; len(ops) >= 3; ops = ops[3:] {
			j, b := int(ops[1])%len(s.arms), ops[2]
			switch ops[0] % 6 {
			case 0:
				// d1 > d0 drives N1 negative.
				err = s.Update(j, int(b&3), int(b>>2&3))
				ref.Update(j, int(b&3), int(b>>2&3))
			case 2:
				err = s.SetEnabled(j, b&1 == 0)
				ref.SetEnabled(j, b&1 == 0)
			case 3:
				if len(s.arms) < maxFuzzArms {
					end := s.chunks[len(s.chunks)-1].End
					c := []video.Chunk{{ID: len(s.chunks), Start: end, End: end + int64(b%4) + 1}}
					err = s.Append(c)
					ref.Append(c)
				}
			default:
				// Ops 1, 4 and 5 draw.
				next()
			}
			if err != nil {
				t.Fatalf("op %v: %v", ops[:3], err)
			}
			peak = checkGroups(t, s, peak)
		}
		for {
			ok := next()
			peak = checkGroups(t, s, peak)
			if !ok {
				break
			}
		}
		for j := range s.arms {
			if s.arms[j].group >= 0 {
				t.Fatalf("arm %d still drawable after Next reported exhaustion", j)
			}
		}
	})
}

// checkGroups recomputes the drawable arms (enabled, frames left) and
// their belief keys (max(N1, 0), n) from scratch and checks the sampler's
// group state against them:
//   - the non-empty groups partition exactly the drawable arms by key,
//     with the belief alphaBeta computes;
//   - each member list is well formed in both directions and its arms
//     name the slot they are listed in;
//   - the index finds every group, and holds nothing else;
//   - free slots are empty, listed once each on the free list, and reused
//     before the slot table grows: it is exactly as long as the most
//     groups ever live at once.
//
// It returns that peak, given the peak so far.
func checkGroups(t *testing.T, s *Sampler, peak int) int {
	t.Helper()
	type key struct{ n1, n int64 }
	want := make(map[key]map[int]bool)
	for j := range s.arms {
		a := &s.arms[j]
		if a.disabled || s.orders[j] != nil && s.orders[j].Remaining() == 0 {
			if a.group != -1 {
				t.Fatalf("arm %d is not drawable but sits in slot %d", j, a.group)
			}
			continue
		}
		k := key{max(a.n1, 0), a.n}
		if want[k] == nil {
			want[k] = make(map[int]bool)
		}
		want[k][j] = true
	}
	live := 0
	seen := make(map[key]bool)
	for gi := range s.groups {
		g := &s.groups[gi]
		if g.size == 0 {
			continue
		}
		live++
		k := key{g.n1, g.n}
		if seen[k] {
			t.Fatalf("key %+v has two groups", k)
		}
		seen[k] = true
		if alpha, beta := s.belief(g.n1, g.n); g.alpha != alpha || g.beta != beta {
			t.Fatalf("slot %d belief (%v, %v), want (%v, %v)", gi, g.alpha, g.beta, alpha, beta)
		}
		var fwd []int32
		for j, prev := g.head, int32(-1); j >= 0; prev, j = j, s.arms[j].next {
			if len(fwd) > len(s.arms) {
				t.Fatalf("slot %d member list cycles", gi)
			}
			if s.arms[j].prev != prev || s.arms[j].group != int32(gi) {
				t.Fatalf("slot %d member %d: prev %d group %d, want prev %d group %d",
					gi, j, s.arms[j].prev, s.arms[j].group, prev, gi)
			}
			if !want[k][int(j)] {
				t.Fatalf("slot %d %+v lists arm %d, whose key is (%d, %d) or which is not drawable",
					gi, k, j, max(s.arms[j].n1, 0), s.arms[j].n)
			}
			fwd = append(fwd, j)
		}
		if len(fwd) != int(g.size) || len(fwd) != len(want[k]) || g.tail != fwd[len(fwd)-1] {
			t.Fatalf("slot %d %+v: %d listed, size %d, %d drawable with the key, tail %d",
				gi, k, len(fwd), g.size, len(want[k]), g.tail)
		}
		if e := s.index[s.probe(g.n1, g.n)]; e != int32(gi)+1 {
			t.Fatalf("index finds slot %d for key %+v, want %d", e-1, k, gi)
		}
	}
	if live != len(want) {
		t.Fatalf("%d live groups for %d drawable keys", live, len(want))
	}
	entries := 0
	for _, e := range s.index {
		if e != 0 {
			entries++
			if e < 1 || int(e) > len(s.groups) || s.groups[e-1].size == 0 {
				t.Fatalf("index entry %d names no live group", e)
			}
		}
	}
	if entries != live || 2*entries > len(s.index) {
		t.Fatalf("index holds %d entries in %d positions for %d live groups", entries, len(s.index), live)
	}
	free := 0
	onList := make(map[int32]bool)
	for gi := s.free; gi >= 0; gi = s.groups[gi].head {
		if onList[gi] || s.groups[gi].size != 0 {
			t.Fatalf("free list revisits slot %d or lists a live one (size %d)", gi, s.groups[gi].size)
		}
		onList[gi] = true
		free++
	}
	if free+live != len(s.groups) {
		t.Fatalf("%d free + %d live slots, table has %d", free, live, len(s.groups))
	}
	peak = max(peak, live)
	if len(s.groups) != peak {
		t.Fatalf("slot table grew to %d with at most %d groups ever live", len(s.groups), peak)
	}
	return peak
}
