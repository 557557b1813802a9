package trackquery

import (
	"fmt"
	"sort"

	"github.com/exsample/exsample/internal/core"
	"github.com/exsample/exsample/internal/video"
)

// Phase identifies where a Plan is in its accelerate/refine lifecycle.
type Phase int

const (
	// PhaseCoarse: walking the stride grid round-robin over the chunks.
	PhaseCoarse Phase = iota
	// PhaseRefine: densifying the candidate intervals.
	PhaseRefine
	// PhaseDone: every interval fully observed.
	PhaseDone
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case PhaseCoarse:
		return "coarse"
	case PhaseRefine:
		return "refine"
	case PhaseDone:
		return "done"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Interval is an inclusive candidate frame range to densify and track.
type Interval struct {
	Start, End int64
}

// Len returns the interval's frame count.
func (iv Interval) Len() int64 { return iv.End - iv.Start + 1 }

// Config parameterizes a Plan.
type Config struct {
	// NumFrames is the source's total frame count.
	NumFrames int64
	// Chunks are the source's chunks in real-frame space; they must tile
	// [0, NumFrames). Each chunk with a grid point becomes one coarse arm,
	// which Fence can disable and re-enable.
	Chunks []video.Chunk
	// Stride is the coarse-grid spacing: phase 1 visits frames k*Stride.
	Stride int64
	// Pad widens each coarse hit h into the candidate interval
	// [h-Pad, h+Pad] before merging; it must cover the stride gap (the
	// root package sets it to Stride) or objects whose presence spans
	// a grid point can be truncated.
	Pad int64
	// Seed is read by nothing: the coarse walk is a fixed order.
	Seed uint64
}

// arm is one source chunk's slice of the coarse grid: grid indexes
// [next, end) are still unissued, and index k stands for frame k*Stride.
type arm struct {
	chunk     video.Chunk // the source chunk, as Fence tests it
	next, end int64
	fenced    bool
}

// Plan is the track query's frame-picking state machine. It is not
// goroutine-safe; the engine drives it from the scheduler goroutine only.
//
// Phase 1 walks the coarse grid round-robin over the enabled arms, each
// arm in ascending order, so one round's frames spread across chunks (and
// shards). The grid always runs to completion before anything is refined,
// so no adaptive order could change the hit set. When the grid is
// exhausted the plan merges padded hit neighborhoods into disjoint
// intervals and phase 2 issues each interval's unobserved frames in
// ascending order. An interval becomes ready — retrievable via TakeReady —
// once every frame in it has been observed; because the refine queue is
// ascending and applies happen in issue order, intervals complete in
// interval order, which is what makes downstream track IDs deterministic
// across batch sizes.
//
// Memory: the observed set is a bitset of NumFrames bits, allocated with
// the plan; the grid, the hit list, the intervals and the refine queue
// grow with the work actually issued.
type Plan struct {
	cfg  Config
	arms []arm
	turn int // arm the round-robin walk tries next

	phase         Phase
	pendingCoarse int

	applied []uint64 // bitset of frames observed (coarse + refine)
	hits    []int64  // coarse frames with ≥1 detection

	intervals    []Interval
	missing      []int // per-interval unobserved frame count
	totalMissing int
	refineQueue  []int64
	refineIdx    int
	ready        []Interval

	coarseIssued, refineIssued int64
	coarseHits, refineHits     int64
}

// NewPlan validates the config and lays out the coarse grid: each source
// chunk becomes the arm holding the grid indexes whose frames it contains.
func NewPlan(cfg Config) (*Plan, error) {
	if cfg.NumFrames <= 0 {
		return nil, fmt.Errorf("trackquery: NumFrames %d <= 0", cfg.NumFrames)
	}
	if cfg.Stride < 1 {
		return nil, fmt.Errorf("trackquery: Stride %d < 1", cfg.Stride)
	}
	if cfg.Pad < 0 {
		return nil, fmt.Errorf("trackquery: Pad %d < 0", cfg.Pad)
	}
	if err := video.ValidateChunks(cfg.Chunks, cfg.NumFrames); err != nil {
		return nil, fmt.Errorf("trackquery: %w", err)
	}
	arms := make([]arm, 0, len(cfg.Chunks))
	for _, c := range cfg.Chunks {
		kLo := CeilDiv(c.Start, cfg.Stride)
		kHi := CeilDiv(c.End, cfg.Stride)
		if kHi > kLo {
			arms = append(arms, arm{chunk: c, next: kLo, end: kHi})
		}
	}
	return &Plan{
		cfg:     cfg,
		arms:    arms,
		applied: make([]uint64, (cfg.NumFrames-1)/64+1),
	}, nil
}

// CeilDiv returns ⌈a/b⌉ for a ≥ 0 and b ≥ 1 without overflowing, however
// close a and b are to the int64 limit: the number of multiples of b in
// [0, a).
func CeilDiv(a, b int64) int64 {
	if a == 0 {
		return 0
	}
	return (a-1)/b + 1
}

// observed reports whether frame, in [0, NumFrames), has been observed.
func (p *Plan) observed(frame int64) bool {
	return p.applied[frame>>6]&(1<<(frame&63)) != 0
}

// Next returns the next frame to detect. chunk is the coarse arm during
// phase 1 (echo it back to Observe) and -1 during refine. ok is false when
// nothing can be issued right now — either the plan is done, or phase 1
// has issued every grid point of its enabled arms and is waiting on
// outstanding observes before it can build intervals.
func (p *Plan) Next() (frame int64, chunk int, ok bool) {
	if p.phase == PhaseCoarse {
		if j := p.nextArm(); j >= 0 {
			a := &p.arms[j]
			frame = a.next * p.cfg.Stride
			a.next++
			p.pendingCoarse++
			p.coarseIssued++
			return frame, j, true
		}
		if p.pendingCoarse > 0 {
			return 0, 0, false // grid issued; intervals wait on observes
		}
		p.transition()
	}
	if p.phase == PhaseRefine && p.refineIdx < len(p.refineQueue) {
		f := p.refineQueue[p.refineIdx]
		p.refineIdx++
		p.refineIssued++
		return f, -1, true
	}
	return 0, 0, false
}

// nextArm returns the first enabled arm with a grid point left, starting
// at the round-robin turn, and moves the turn past it; -1 when there is
// none.
func (p *Plan) nextArm() int {
	for range p.arms {
		j := p.turn
		if p.turn++; p.turn == len(p.arms) {
			p.turn = 0
		}
		if a := &p.arms[j]; !a.fenced && a.next < a.end {
			return j
		}
	}
	return -1
}

// Fence enables exactly the coarse arms whose source chunk is active. A
// fenced arm issues no grid point but keeps its place in the grid, and
// re-enabling it before the grid is exhausted resumes it there; once
// phase 1 has closed, fencing changes nothing. A grid point of an arm
// still fenced when the rest of the grid runs out is never issued.
func (p *Plan) Fence(active func(video.Chunk) bool) {
	for j := range p.arms {
		p.arms[j].fenced = !active(p.arms[j].chunk)
	}
}

// Observe feeds back one detection result: whether the frame contained any
// detection of the query class. chunk must be the value Next returned with
// the frame. Frames must be observed exactly once, in any order within a
// phase; the engine guarantees all of a round's observes land before the
// next round's Next calls. A frame the caller skips without detecting is
// observed as a miss: its interval completes without it.
func (p *Plan) Observe(frame int64, chunk int, hit bool) error {
	if frame < 0 || frame >= p.cfg.NumFrames {
		return fmt.Errorf("trackquery: frame %d outside [0, %d)", frame, p.cfg.NumFrames)
	}
	if p.observed(frame) {
		return fmt.Errorf("trackquery: frame %d observed twice", frame)
	}
	p.applied[frame>>6] |= 1 << (frame & 63)
	if chunk >= 0 {
		if p.phase != PhaseCoarse {
			return fmt.Errorf("trackquery: coarse observe for frame %d in phase %v", frame, p.phase)
		}
		p.pendingCoarse--
		if hit {
			p.coarseHits++
			p.hits = append(p.hits, frame)
		}
		return nil
	}
	if p.phase != PhaseRefine {
		return fmt.Errorf("trackquery: refine observe for frame %d in phase %v", frame, p.phase)
	}
	if hit {
		p.refineHits++
	}
	i := sort.Search(len(p.intervals), func(i int) bool { return p.intervals[i].End >= frame })
	if i == len(p.intervals) || frame < p.intervals[i].Start {
		return fmt.Errorf("trackquery: refine frame %d outside every interval", frame)
	}
	p.missing[i]--
	p.totalMissing--
	if p.missing[i] == 0 {
		p.ready = append(p.ready, p.intervals[i])
	}
	if p.totalMissing == 0 && p.refineIdx == len(p.refineQueue) {
		p.phase = PhaseDone
	}
	return nil
}

// transition closes phase 1: merge padded hit neighborhoods into the
// candidate intervals and stage the refine queue. Called with zero
// outstanding coarse observes, so the observed set is every grid point
// issued (the whole grid unless an arm stayed fenced).
func (p *Plan) transition() {
	hits := append([]int64(nil), p.hits...)
	sort.Slice(hits, func(i, j int) bool { return hits[i] < hits[j] })

	// Merge [h-Pad, h+Pad] neighborhoods (adjacent ranges coalesce).
	// The clamps are written so that no sum can overflow, whatever Pad.
	for _, h := range hits {
		lo := h - p.cfg.Pad
		if lo < 0 {
			lo = 0
		}
		hi := p.cfg.NumFrames - 1
		if h < hi-p.cfg.Pad {
			hi = h + p.cfg.Pad
		}
		if n := len(p.intervals); n > 0 && lo <= p.intervals[n-1].End+1 {
			if hi > p.intervals[n-1].End {
				p.intervals[n-1].End = hi
			}
			continue
		}
		p.intervals = append(p.intervals, Interval{Start: lo, End: hi})
	}

	p.missing = make([]int, len(p.intervals))
	for i, iv := range p.intervals {
		for f := iv.Start; f <= iv.End; f++ {
			if !p.observed(f) {
				p.refineQueue = append(p.refineQueue, f)
				p.missing[i]++
			}
		}
		if p.missing[i] == 0 {
			p.ready = append(p.ready, iv)
		}
	}
	p.totalMissing = len(p.refineQueue)
	if p.totalMissing == 0 {
		p.phase = PhaseDone
		return
	}
	p.phase = PhaseRefine
}

// TakeReady drains and returns the intervals whose every frame has been
// observed since the last call, in completion order.
func (p *Plan) TakeReady() []Interval {
	r := p.ready
	p.ready = nil
	return r
}

// Phase returns the current phase.
func (p *Plan) Phase() Phase { return p.phase }

// Done reports whether every interval is fully observed.
func (p *Plan) Done() bool { return p.phase == PhaseDone }

// MarginalValue estimates the value of the next detector frame, on the
// same "expected new results per frame" scale the engine's global budget
// ranks distinct-object queries by, under core's default prior: during
// coarse it is the grid's hit rate so far; during refine it is the hit
// density carried into the remaining densification work.
func (p *Plan) MarginalValue() float64 {
	switch p.phase {
	case PhaseCoarse:
		return (float64(p.coarseHits) + core.DefaultAlpha0) / (float64(p.coarseIssued) + core.DefaultBeta0)
	case PhaseRefine:
		return (float64(p.coarseHits+p.refineHits) + core.DefaultAlpha0) / (float64(p.totalMissing) + core.DefaultBeta0)
	default:
		return 0
	}
}

// Intervals returns the candidate intervals (valid after phase 1; nil
// before). Callers must not mutate the slice.
func (p *Plan) Intervals() []Interval { return p.intervals }

// Stats returns issue/hit counters: coarse frames issued, refine frames
// issued, coarse hits, refine hits.
func (p *Plan) Stats() (coarseIssued, refineIssued, coarseHits, refineHits int64) {
	return p.coarseIssued, p.refineIssued, p.coarseHits, p.refineHits
}
