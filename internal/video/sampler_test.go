package video

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/exsample/exsample/internal/xrand"
)

// drainOrder pulls every frame from an order and verifies the
// without-replacement permutation property over [start, end).
func drainOrder(t *testing.T, o FrameOrder, start, end int64) []int64 {
	t.Helper()
	n := end - start
	seen := make(map[int64]bool, n)
	var frames []int64
	for {
		f, ok := o.Next()
		if !ok {
			break
		}
		if f < start || f >= end {
			t.Fatalf("frame %d outside [%d, %d)", f, start, end)
		}
		if seen[f] {
			t.Fatalf("frame %d emitted twice", f)
		}
		seen[f] = true
		frames = append(frames, f)
	}
	if int64(len(frames)) != n {
		t.Fatalf("emitted %d frames, want %d", len(frames), n)
	}
	if o.Remaining() != 0 {
		t.Fatalf("Remaining = %d after drain", o.Remaining())
	}
	return frames
}

func TestUniformOrderIsPermutation(t *testing.T) {
	o, err := NewUniformOrder(100, 612, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	drainOrder(t, o, 100, 612)
}

func TestUniformOrderEmptyRange(t *testing.T) {
	if _, err := NewUniformOrder(5, 5, xrand.New(1)); err == nil {
		t.Fatal("empty range accepted")
	}
}

func TestUniformOrderUniformity(t *testing.T) {
	// The first draw should be uniform over the range.
	const n = 10
	counts := make([]int, n)
	for trial := 0; trial < 20000; trial++ {
		o, err := NewUniformOrder(0, n, xrand.NewFrom(9, uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		f, _ := o.Next()
		counts[f]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-2000) > 5*math.Sqrt(2000) {
			t.Errorf("frame %d drawn %d times, want ~2000", i, c)
		}
	}
}

func TestUniformOrderRemaining(t *testing.T) {
	o, _ := NewUniformOrder(0, 5, xrand.New(2))
	if o.Remaining() != 5 {
		t.Fatalf("Remaining = %d", o.Remaining())
	}
	o.Next()
	if o.Remaining() != 4 {
		t.Fatalf("Remaining after one draw = %d", o.Remaining())
	}
}

func TestRandomPlusIsPermutation(t *testing.T) {
	f := func(rawN uint16, rawSeg uint16, seed uint64) bool {
		n := int64(rawN%2000) + 1
		seg := int64(rawSeg%300) + 1
		o, err := NewRandomPlusOrder(10, 10+n, seg, xrand.New(seed))
		if err != nil {
			return false
		}
		seen := make(map[int64]bool, n)
		count := int64(0)
		for {
			fr, ok := o.Next()
			if !ok {
				break
			}
			if fr < 10 || fr >= 10+n || seen[fr] {
				return false
			}
			seen[fr] = true
			count++
		}
		return count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRandomPlusStratification(t *testing.T) {
	// With initial segments of 100 frames over 1000 frames, the first 10
	// draws must land in 10 distinct segments.
	o, err := NewRandomPlusOrder(0, 1000, 100, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	segs := make(map[int64]bool)
	for i := 0; i < 10; i++ {
		f, ok := o.Next()
		if !ok {
			t.Fatal("order exhausted early")
		}
		seg := f / 100
		if segs[seg] {
			t.Fatalf("segment %d sampled twice within first level", seg)
		}
		segs[seg] = true
	}
	// The order keeps producing at deeper levels.
	for i := 0; i < 10; i++ {
		if _, ok := o.Next(); !ok {
			t.Fatal("order exhausted early at level 2")
		}
	}
}

func TestRandomPlusHalfSegmentProperty(t *testing.T) {
	// After 2k draws over k initial segments, every half-segment holds at
	// least one sample (this is the motivating property from §III-F: avoid
	// sampling temporally close frames early).
	const n, seg = 1024, 128 // 8 segments
	o, err := NewRandomPlusOrder(0, n, seg, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	sampled := make([]bool, n)
	for i := 0; i < 16; i++ { // 8 full segments + 8 half segments
		f, ok := o.Next()
		if !ok {
			t.Fatal("exhausted early")
		}
		sampled[f] = true
	}
	for half := int64(0); half < n/(seg/2); half++ {
		lo, hi := half*seg/2, (half+1)*seg/2
		found := false
		for i := lo; i < hi; i++ {
			if sampled[i] {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("half-segment [%d,%d) has no sample after 2 levels", lo, hi)
		}
	}
}

func TestRandomPlusWholeRangeDefault(t *testing.T) {
	// initialSegment <= 0 uses the whole range: first draw uniform.
	o, err := NewRandomPlusOrder(0, 100, 0, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	drainOrder(t, o, 0, 100)
}

func TestRandomPlusSingleFrame(t *testing.T) {
	o, err := NewRandomPlusOrder(7, 8, 1, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	f, ok := o.Next()
	if !ok || f != 7 {
		t.Fatalf("Next = %d, %v", f, ok)
	}
	if _, ok := o.Next(); ok {
		t.Fatal("second Next succeeded on single-frame range")
	}
}

func TestSequentialOrderStride(t *testing.T) {
	o, err := NewSequentialOrder(0, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 3, 6, 9, 1, 4, 7, 2, 5, 8}
	for i, w := range want {
		f, ok := o.Next()
		if !ok {
			t.Fatalf("exhausted at %d", i)
		}
		if f != w {
			t.Fatalf("draw %d = %d, want %d", i, f, w)
		}
	}
	if _, ok := o.Next(); ok {
		t.Fatal("order continued past range")
	}
}

func TestSequentialOrderIsPermutation(t *testing.T) {
	f := func(rawN uint16, rawStride uint8) bool {
		n := int64(rawN%500) + 1
		stride := int64(rawStride%30) + 1
		o, err := NewSequentialOrder(20, 20+n, stride)
		if err != nil {
			return false
		}
		seen := make(map[int64]bool)
		for {
			fr, ok := o.Next()
			if !ok {
				break
			}
			if seen[fr] || fr < 20 || fr >= 20+n {
				return false
			}
			seen[fr] = true
		}
		return int64(len(seen)) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSequentialOrderDefaultStride(t *testing.T) {
	o, err := NewSequentialOrder(0, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		f, ok := o.Next()
		if !ok || f != i {
			t.Fatalf("draw %d = %d, %v", i, f, ok)
		}
	}
}

// TestRandomPlusInitMatchesNew pins the in-place constructor to the
// allocated one: same (seed, stream) pair, same emission sequence. The
// sampler's lazy chunk opens rely on this equivalence for determinism.
func TestRandomPlusInitMatchesNew(t *testing.T) {
	for _, tc := range []struct{ start, end, seg int64 }{
		{0, 100, 0},
		{10, 138, 16},
		{0, 1000, 100}, // bitset larger than the inline storage
	} {
		ref, err := NewRandomPlusOrder(tc.start, tc.end, tc.seg, xrand.NewFrom(5, 9))
		if err != nil {
			t.Fatal(err)
		}
		var got RandomPlusOrder
		if err := got.Init(tc.start, tc.end, tc.seg, 5, 9); err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			rf, rok := ref.Next()
			gf, gok := got.Next()
			if rf != gf || rok != gok {
				t.Fatalf("range [%d,%d) seg %d draw %d: Init order = (%d, %v), New order = (%d, %v)",
					tc.start, tc.end, tc.seg, i, gf, gok, rf, rok)
			}
			if !rok {
				break
			}
		}
	}
}

// TestRandomPlusListedOffsetsMatchBitset: a long range's order lists its
// first emitted offsets inline and allocates the bitset only at the fifth;
// its emission sequence must be the one an order with the bitset from the
// start emits, draw for draw, to the end of the range.
func TestRandomPlusListedOffsetsMatchBitset(t *testing.T) {
	for _, tc := range []struct{ start, end, seg int64 }{
		{0, 257, 0},
		{0, 2000, 0},
		{100, 5100, 0},
		{0, 3000, 128},
		{7, 1031, 1},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			var lazy, eager RandomPlusOrder
			if err := lazy.Init(tc.start, tc.end, tc.seg, seed, 4); err != nil {
				t.Fatal(err)
			}
			if err := eager.Init(tc.start, tc.end, tc.seg, seed, 4); err != nil {
				t.Fatal(err)
			}
			if lazy.sampled != nil {
				t.Fatalf("range [%d,%d) opened with a bitset", tc.start, tc.end)
			}
			eager.sampled = make([]uint64, (eager.n+63)/64)
			for i := 0; ; i++ {
				lf, lok := lazy.Next()
				ef, eok := eager.Next()
				if lf != ef || lok != eok {
					t.Fatalf("range [%d,%d) seg %d seed %d draw %d: listed order = (%d, %v), bitset order = (%d, %v)",
						tc.start, tc.end, tc.seg, seed, i, lf, lok, ef, eok)
				}
				if (i < 4) != (lazy.sampled == nil) {
					t.Fatalf("range [%d,%d): after %d draws the bitset is allocated = %v", tc.start, tc.end, i+1, lazy.sampled != nil)
				}
				if !lok {
					break
				}
			}
		}
	}
}

// TestRandomPlusInitReuse verifies a struct can be re-initialized and
// behaves like a fresh order (state from the previous use fully cleared).
func TestRandomPlusInitReuse(t *testing.T) {
	var o RandomPlusOrder
	for round := 0; round < 3; round++ {
		if err := o.Init(0, 200, 0, 7, uint64(round)); err != nil {
			t.Fatal(err)
		}
		ref, err := NewRandomPlusOrder(0, 200, 0, xrand.NewFrom(7, uint64(round)))
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int64]bool)
		for {
			gf, gok := o.Next()
			rf, rok := ref.Next()
			if gf != rf || gok != rok {
				t.Fatalf("round %d: reused order diverged: (%d, %v) vs (%d, %v)", round, gf, gok, rf, rok)
			}
			if !gok {
				break
			}
			if seen[gf] {
				t.Fatalf("round %d: frame %d emitted twice", round, gf)
			}
			seen[gf] = true
		}
		if len(seen) != 200 {
			t.Fatalf("round %d: emitted %d frames, want 200", round, len(seen))
		}
	}
}
