package video

import (
	"fmt"

	"github.com/exsample/exsample/internal/xrand"
)

// FrameOrder produces frames from a range without replacement. Next returns
// the next frame to process and false once the range is exhausted.
type FrameOrder interface {
	Next() (frame int64, ok bool)
	// Remaining returns how many frames have not been emitted yet.
	Remaining() int64
}

// UniformOrder emits the frames of [start, end) in uniform random order
// without replacement, using a lazy Fisher–Yates shuffle so memory grows
// with the number of frames actually drawn, not the range size. This is the
// paper's "random" baseline (§II-B).
type UniformOrder struct {
	start, n int64
	drawn    int64
	swaps    map[int64]int64
	rng      *xrand.RNG
}

// NewUniformOrder creates a uniform without-replacement order over
// [start, end).
func NewUniformOrder(start, end int64, rng *xrand.RNG) (*UniformOrder, error) {
	if end <= start {
		return nil, fmt.Errorf("video: empty range [%d, %d)", start, end)
	}
	return &UniformOrder{start: start, n: end - start, swaps: make(map[int64]int64), rng: rng}, nil
}

// Next returns the next frame in the shuffled order.
func (u *UniformOrder) Next() (int64, bool) {
	if u.drawn >= u.n {
		return 0, false
	}
	i := u.drawn
	j := i + u.rng.Int64N(u.n-i)
	vj, ok := u.swaps[j]
	if !ok {
		vj = j
	}
	vi, ok := u.swaps[i]
	if !ok {
		vi = i
	}
	u.swaps[j] = vi
	delete(u.swaps, i) // index i is never revisited
	u.drawn++
	return u.start + vj, true
}

// Remaining returns the number of frames not yet emitted.
func (u *UniformOrder) Remaining() int64 { return u.n - u.drawn }

// RandomPlusOrder implements the paper's random+ strategy (§III-F): sample
// one random frame from each segment at a coarse granularity, then one frame
// from each not-yet-sampled half-segment, and so on, halving until every
// frame has been emitted. This avoids the early temporal clustering of pure
// random sampling while remaining unbiased within segments.
type RandomPlusOrder struct {
	start, n int64
	rng      *xrand.RNG
	ownRNG   xrand.RNG // backing generator when built via Init

	// sampled is the bitset over [0, n) of emitted offsets. A range past
	// the inline storage starts without one: its first emitted offsets
	// are listed in sampledInline (listed of them), and the bitset is
	// allocated only when a fifth is marked. Most chunks of a many-armed
	// sampler are visited a few times at most and never need one.
	sampled  []uint64
	listed   int
	emitted  int64
	segSize  int64   // current level's segment size
	pending  []int64 // frames queued for emission at the current level
	pendIdx  int
	finished bool

	// Inline backing storage for small chunks: a sampler lazily opening
	// one order per visited chunk is the engine's cold-start hot path, and
	// with ranges of <= 256 frames neither the bitset nor the first levels'
	// pending queue needs a heap allocation; a longer range lists its first
	// four offsets here instead. An order must not be copied once
	// initialized.
	sampledInline [4]uint64
	pendInline    [4]int64
}

// NewRandomPlusOrder creates a random+ order over [start, end).
// initialSegment is the segment size of the first level (e.g. one hour of
// frames); values <= 0 or larger than the range select the whole range,
// making the first draw uniform.
func NewRandomPlusOrder(start, end, initialSegment int64, rng *xrand.RNG) (*RandomPlusOrder, error) {
	r := &RandomPlusOrder{}
	if err := r.init(start, end, initialSegment, rng); err != nil {
		return nil, err
	}
	return r, nil
}

// Init (re)initializes r in place over [start, end), seeding an order-owned
// generator to the exact stream NewRandomPlusOrder draws when handed
// xrand.NewFrom(seed, stream). It exists so callers that open many orders
// lazily — one per chunk of a many-armed sampler — can slab-allocate the
// structs and keep cold chunk opens allocation-free.
func (r *RandomPlusOrder) Init(start, end, initialSegment int64, seed, stream uint64) error {
	r.ownRNG.SeedFrom(seed, stream)
	return r.init(start, end, initialSegment, &r.ownRNG)
}

func (r *RandomPlusOrder) init(start, end, initialSegment int64, rng *xrand.RNG) error {
	if end <= start {
		return fmt.Errorf("video: empty range [%d, %d)", start, end)
	}
	n := end - start
	if initialSegment <= 0 || initialSegment > n {
		initialSegment = n
	}
	r.start, r.n = start, n
	r.rng = rng
	r.sampledInline = [4]uint64{}
	r.sampled, r.listed = nil, 0
	if words := (n + 63) / 64; words <= int64(len(r.sampledInline)) {
		r.sampled = r.sampledInline[:words]
	}
	r.emitted = 0
	r.segSize = initialSegment
	if r.pending == nil {
		r.pending = r.pendInline[:0]
	} else {
		r.pending = r.pending[:0]
	}
	r.pendIdx = 0
	r.finished = false
	r.fillLevel()
	return nil
}

func (r *RandomPlusOrder) isSampled(i int64) bool {
	if r.sampled == nil {
		return r.listedIn(i, i+1)
	}
	return r.sampled[i/64]&(1<<(uint(i)%64)) != 0
}

// listedIn reports whether a listed offset lies in [a, b), for an order
// that has no bitset yet.
func (r *RandomPlusOrder) listedIn(a, b int64) bool {
	for _, f := range r.sampledInline[:r.listed] {
		if int64(f) >= a && int64(f) < b {
			return true
		}
	}
	return false
}

func (r *RandomPlusOrder) markSampled(i int64) {
	if r.sampled == nil {
		if r.listed < len(r.sampledInline) {
			r.sampledInline[r.listed] = uint64(i)
			r.listed++
			return
		}
		r.sampled = make([]uint64, (r.n+63)/64)
		for _, f := range r.sampledInline[:r.listed] {
			r.sampled[f/64] |= 1 << (f % 64)
		}
	}
	r.sampled[i/64] |= 1 << (uint(i) % 64)
}

// segmentHasSample reports whether any frame in [a, b) has been emitted,
// using word-level scans of the bitset (or a scan of the listed offsets).
func (r *RandomPlusOrder) segmentHasSample(a, b int64) bool {
	if r.sampled == nil {
		return r.listedIn(a, b)
	}
	for a < b {
		w := a / 64
		bitLo := uint(a % 64)
		// End of this word or of the segment, whichever first.
		wordEnd := (w + 1) * 64
		hi := b
		if wordEnd < hi {
			hi = wordEnd
		}
		bitHi := uint(hi - w*64) // exclusive bit index within word, 1..64
		mask := ^uint64(0) << bitLo
		if bitHi < 64 {
			mask &= (uint64(1) << bitHi) - 1
		}
		if r.sampled[w]&mask != 0 {
			return true
		}
		a = hi
	}
	return false
}

// fillLevel builds the emission queue for the current segment size: one
// uniformly chosen frame from every segment that does not yet contain a
// sample, in shuffled segment order. If a level yields nothing the segment
// size is halved until either a level yields frames or everything is
// emitted.
func (r *RandomPlusOrder) fillLevel() {
	for {
		if r.emitted >= r.n {
			r.finished = true
			return
		}
		r.pending = r.pending[:0]
		r.pendIdx = 0
		for a := int64(0); a < r.n; a += r.segSize {
			b := a + r.segSize
			if b > r.n {
				b = r.n
			}
			if r.segSize == 1 {
				if !r.isSampled(a) {
					r.pending = append(r.pending, a)
				}
				continue
			}
			if r.segmentHasSample(a, b) {
				continue
			}
			r.pending = append(r.pending, a+r.rng.Int64N(b-a))
		}
		r.rng.Shuffle(len(r.pending), func(i, j int) {
			r.pending[i], r.pending[j] = r.pending[j], r.pending[i]
		})
		if len(r.pending) > 0 {
			return
		}
		if r.segSize == 1 {
			r.finished = true
			return
		}
		r.segSize /= 2
		if r.segSize < 1 {
			r.segSize = 1
		}
	}
}

// Next returns the next frame in random+ order.
func (r *RandomPlusOrder) Next() (int64, bool) {
	for {
		if r.finished {
			return 0, false
		}
		if r.pendIdx < len(r.pending) {
			f := r.pending[r.pendIdx]
			r.pendIdx++
			if r.isSampled(f) {
				// A same-level earlier emission cannot collide (one pick per
				// disjoint segment), but stay defensive.
				continue
			}
			r.markSampled(f)
			r.emitted++
			return r.start + f, true
		}
		// Level exhausted: halve and refill.
		if r.segSize > 1 {
			r.segSize /= 2
		} else if r.emitted >= r.n {
			r.finished = true
			return 0, false
		}
		r.fillLevel()
	}
}

// Remaining returns the number of frames not yet emitted.
func (r *RandomPlusOrder) Remaining() int64 { return r.n - r.emitted }

// SequentialOrder emits frames in ascending order with an optional stride
// (the paper's naive 1-out-of-n baseline). After one pass at stride s it
// revisits skipped frames in subsequent passes with offset rotation so the
// full range is eventually covered.
type SequentialOrder struct {
	start, n int64
	stride   int64
	pass     int64
	pos      int64
	emitted  int64
}

// NewSequentialOrder creates a sequential order over [start, end) visiting
// every stride-th frame per pass. stride <= 0 selects 1.
func NewSequentialOrder(start, end, stride int64) (*SequentialOrder, error) {
	if end <= start {
		return nil, fmt.Errorf("video: empty range [%d, %d)", start, end)
	}
	if stride <= 0 {
		stride = 1
	}
	return &SequentialOrder{start: start, n: end - start, stride: stride}, nil
}

// Next returns the next frame in sequential (strided) order.
func (s *SequentialOrder) Next() (int64, bool) {
	if s.emitted >= s.n {
		return 0, false
	}
	for {
		if s.pos >= s.n {
			s.pass++
			if s.pass >= s.stride {
				return 0, false
			}
			s.pos = s.pass
			continue
		}
		f := s.pos
		s.pos += s.stride
		s.emitted++
		return s.start + f, true
	}
}

// Remaining returns the number of frames not yet emitted.
func (s *SequentialOrder) Remaining() int64 { return s.n - s.emitted }
