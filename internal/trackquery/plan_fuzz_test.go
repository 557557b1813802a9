package trackquery

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"github.com/exsample/exsample/internal/core"
	"github.com/exsample/exsample/internal/video"
)

// refPlan is the plan with its observed set kept in a map: the reference
// FuzzPlanAgainstMap holds Plan's bitset to. Its grid comes from a scan of
// every frame and its pad is clamped to the repository up front, so none
// of its own arithmetic can overflow, whatever the stride and pad.
type refPlan struct {
	n, pad  int64
	arms    []refArm
	turn    int
	phase   Phase
	pending int

	applied map[int64]bool
	hits    []int64

	intervals    []Interval
	missing      []int
	totalMissing int
	queue        []int64
	qi           int
	ready        []Interval

	coarseIssued, refineIssued int64
	coarseHits, refineHits     int64
}

// refArm is one chunk's unissued grid frames, in ascending order.
type refArm struct {
	chunk  video.Chunk
	grid   []int64
	fenced bool
}

func newRefPlan(cfg Config) *refPlan {
	r := &refPlan{n: cfg.NumFrames, pad: min(cfg.Pad, cfg.NumFrames), applied: make(map[int64]bool)}
	for _, c := range cfg.Chunks {
		var grid []int64
		for f := c.Start; f < c.End; f++ {
			if f%cfg.Stride == 0 {
				grid = append(grid, f)
			}
		}
		if len(grid) > 0 {
			r.arms = append(r.arms, refArm{chunk: c, grid: grid})
		}
	}
	return r
}

func (r *refPlan) Next() (int64, int, bool) {
	if r.phase == PhaseCoarse {
		for range r.arms {
			j := r.turn
			r.turn = (r.turn + 1) % len(r.arms)
			if a := &r.arms[j]; !a.fenced && len(a.grid) > 0 {
				f := a.grid[0]
				a.grid = a.grid[1:]
				r.pending++
				r.coarseIssued++
				return f, j, true
			}
		}
		if r.pending > 0 {
			return 0, 0, false
		}
		r.transition()
	}
	if r.phase == PhaseRefine && r.qi < len(r.queue) {
		f := r.queue[r.qi]
		r.qi++
		r.refineIssued++
		return f, -1, true
	}
	return 0, 0, false
}

func (r *refPlan) Fence(active func(video.Chunk) bool) {
	for j := range r.arms {
		r.arms[j].fenced = !active(r.arms[j].chunk)
	}
}

func (r *refPlan) Observe(frame int64, chunk int, hit bool) error {
	if frame < 0 || frame >= r.n {
		return fmt.Errorf("trackquery: frame %d outside [0, %d)", frame, r.n)
	}
	if r.applied[frame] {
		return fmt.Errorf("trackquery: frame %d observed twice", frame)
	}
	r.applied[frame] = true
	if chunk >= 0 {
		if r.phase != PhaseCoarse {
			return fmt.Errorf("trackquery: coarse observe for frame %d in phase %v", frame, r.phase)
		}
		r.pending--
		if hit {
			r.coarseHits++
			r.hits = append(r.hits, frame)
		}
		return nil
	}
	if r.phase != PhaseRefine {
		return fmt.Errorf("trackquery: refine observe for frame %d in phase %v", frame, r.phase)
	}
	if hit {
		r.refineHits++
	}
	i := 0
	for i < len(r.intervals) && r.intervals[i].End < frame {
		i++
	}
	if i == len(r.intervals) || frame < r.intervals[i].Start {
		return fmt.Errorf("trackquery: refine frame %d outside every interval", frame)
	}
	r.missing[i]--
	r.totalMissing--
	if r.missing[i] == 0 {
		r.ready = append(r.ready, r.intervals[i])
	}
	if r.totalMissing == 0 && r.qi == len(r.queue) {
		r.phase = PhaseDone
	}
	return nil
}

func (r *refPlan) transition() {
	hits := append([]int64(nil), r.hits...)
	sort.Slice(hits, func(i, j int) bool { return hits[i] < hits[j] })
	for _, h := range hits {
		lo, hi := max(h-r.pad, 0), min(h+r.pad, r.n-1)
		if n := len(r.intervals); n > 0 && lo <= r.intervals[n-1].End+1 {
			r.intervals[n-1].End = max(r.intervals[n-1].End, hi)
			continue
		}
		r.intervals = append(r.intervals, Interval{Start: lo, End: hi})
	}
	r.missing = make([]int, len(r.intervals))
	for i, iv := range r.intervals {
		for f := iv.Start; f <= iv.End; f++ {
			if !r.applied[f] {
				r.queue = append(r.queue, f)
				r.missing[i]++
			}
		}
		if r.missing[i] == 0 {
			r.ready = append(r.ready, iv)
		}
	}
	r.totalMissing = len(r.queue)
	if r.totalMissing == 0 {
		r.phase = PhaseDone
		return
	}
	r.phase = PhaseRefine
}

func (r *refPlan) TakeReady() []Interval {
	out := r.ready
	r.ready = nil
	return out
}

func (r *refPlan) MarginalValue() float64 {
	switch r.phase {
	case PhaseCoarse:
		return (float64(r.coarseHits) + core.DefaultAlpha0) / (float64(r.coarseIssued) + core.DefaultBeta0)
	case PhaseRefine:
		return (float64(r.coarseHits+r.refineHits) + core.DefaultAlpha0) / (float64(r.totalMissing) + core.DefaultBeta0)
	default:
		return 0
	}
}

// fuzzSpan maps a fuzzed int64 onto a stride or pad: a non-negative value
// to lo plus its remainder mod 2n (most of them inside the repository,
// some past it), a negative one to a value within 8 of MaxInt64.
func fuzzSpan(v, n, lo int64) int64 {
	if v < 0 {
		return math.MaxInt64 - ^v%8
	}
	return lo + v%(2*n)
}

// FuzzPlanAgainstMap drives Plan and refPlan with the same random chunk
// layout, stride, pad and script of Next, Observe (of issued frames, of
// frames observed before and of arbitrary, possibly out-of-range frames),
// Fence and TakeReady calls, then runs both to the end. After every call
// the two must agree on its outcome (the frame issued, the error message,
// the intervals readied) and on Phase, Done, Stats, Intervals and
// MarginalValue.
//
// numFrames picks the repository length (1 to 300 frames); each layout
// byte b cuts the next chunk 1+b%64 frames long, the last chunk taking the
// rest; script is read two bytes per call, op then arg, op&7 naming it:
//
//	1        Observe issued frame arg>>1 (mod the outstanding count), hit arg&1
//	2        Fence: chunk c stays active iff bit c%8 of arg is set
//	3        Observe an arbitrary frame: n-2+arg%4 when op&0x80, else
//	         arg-16; chunk -1 when op&0x40, else 0; hit op&0x20
//	4        Observe observed frame arg (mod the observed count) again
//	5        TakeReady
//	0, 6, 7  Next
func FuzzPlanAgainstMap(f *testing.F) {
	// One chunk, stride 10, pad 10: issue, observe a hit, run out.
	f.Add(uint16(99), int64(9), int64(10), []byte{}, []byte{0, 0, 1, 1, 0, 0, 1, 0, 5, 0})
	// Four chunks, a fenced arm, duplicates and frames past either end.
	f.Add(uint16(199), int64(6), int64(7), []byte{40, 10, 63, 5},
		[]byte{0, 0, 0, 0, 2, 0x0d, 0, 0, 0, 0, 1, 1, 1, 2, 4, 0, 3, 200, 0x83, 3, 0xc3, 1, 0x43, 2, 0, 0, 1, 3, 2, 0xff, 5, 0})
	// A stride and a pad near MaxInt64: the grid {0} padded over everything.
	f.Add(uint16(299), int64(-1), int64(-3), []byte{100, 100}, []byte{0, 0, 1, 1, 0, 0, 0xa3, 1, 5, 0})
	// Stride 5 and a pad near MaxInt64: every hit's neighborhood is the
	// whole repository. Frame 0 misses, so no hit's h+Pad fits in int64.
	f.Add(uint16(149), int64(4), int64(-2), []byte{50, 50},
		[]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 0, 0, 5, 0})
	// Stride 1: the grid is every frame; refine observes during coarse.
	f.Add(uint16(30), int64(0), int64(0), []byte{3, 3, 3}, []byte{0, 0, 0, 0, 1, 1, 0x43, 21, 0, 0, 1, 0, 1, 0, 4, 1, 5, 0})
	f.Fuzz(func(t *testing.T, numFrames uint16, stride, pad int64, layout, script []byte) {
		n := 1 + int64(numFrames%300)
		cfg := Config{NumFrames: n, Stride: fuzzSpan(stride, n, 1), Pad: fuzzSpan(pad, n, 0)}
		for start := int64(0); start < n; {
			end := n
			if len(cfg.Chunks) < len(layout) {
				end = min(start+1+int64(layout[len(cfg.Chunks)]%64), n)
			}
			cfg.Chunks = append(cfg.Chunks, video.Chunk{ID: len(cfg.Chunks), Start: start, End: end})
			start = end
		}
		p, err := NewPlan(cfg)
		if err != nil {
			t.Fatalf("NewPlan(%+v): %v", cfg, err)
		}
		ref := newRefPlan(cfg)

		type issue struct {
			frame int64
			chunk int
		}
		var outstanding []issue
		var observed []int64
		check := func(what string) {
			t.Helper()
			if p.Phase() != ref.phase || p.Done() != (ref.phase == PhaseDone) {
				t.Fatalf("%s: phase %v done %v, reference %v", what, p.Phase(), p.Done(), ref.phase)
			}
			ci, ri, ch, rh := p.Stats()
			if want := [4]int64{ref.coarseIssued, ref.refineIssued, ref.coarseHits, ref.refineHits}; [4]int64{ci, ri, ch, rh} != want {
				t.Fatalf("%s: stats %v, reference %v", what, [4]int64{ci, ri, ch, rh}, want)
			}
			if !reflect.DeepEqual(p.Intervals(), ref.intervals) {
				t.Fatalf("%s: intervals %v, reference %v", what, p.Intervals(), ref.intervals)
			}
			if got, want := p.MarginalValue(), ref.MarginalValue(); got != want {
				t.Fatalf("%s: marginal value %v, reference %v", what, got, want)
			}
		}
		next := func() bool {
			f, c, ok := p.Next()
			rf, rc, rok := ref.Next()
			if f != rf || c != rc || ok != rok {
				t.Fatalf("Next = (%d, %d, %v), reference (%d, %d, %v)", f, c, ok, rf, rc, rok)
			}
			if ok {
				outstanding = append(outstanding, issue{f, c})
			}
			check("Next")
			return ok
		}
		observe := func(frame int64, chunk int, hit bool) {
			err, rerr := p.Observe(frame, chunk, hit), ref.Observe(frame, chunk, hit)
			if fmt.Sprint(err) != fmt.Sprint(rerr) {
				t.Fatalf("Observe(%d, %d, %v) = %v, reference %v", frame, chunk, hit, err, rerr)
			}
			if err == nil {
				observed = append(observed, frame)
			}
			check(fmt.Sprintf("Observe(%d, %d, %v)", frame, chunk, hit))
		}
		takeReady := func() {
			if got, want := p.TakeReady(), ref.TakeReady(); !reflect.DeepEqual(got, want) {
				t.Fatalf("TakeReady = %v, reference %v", got, want)
			}
		}

		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], script[i+1]
			switch op & 7 {
			case 1:
				if len(outstanding) > 0 {
					j := int(arg>>1) % len(outstanding)
					is := outstanding[j]
					outstanding = append(outstanding[:j], outstanding[j+1:]...)
					observe(is.frame, is.chunk, arg&1 != 0)
				}
			case 2:
				active := func(c video.Chunk) bool { return arg>>(c.ID%8)&1 != 0 }
				p.Fence(active)
				ref.Fence(active)
				check("Fence")
			case 3:
				frame := int64(arg) - 16
				if op&0x80 != 0 {
					frame = n - 2 + int64(arg%4)
				}
				chunk := 0
				if op&0x40 != 0 {
					chunk = -1
				}
				observe(frame, chunk, op&0x20 != 0)
			case 4:
				if len(observed) > 0 {
					frame := observed[int(arg)%len(observed)]
					observe(frame, 0, false)
					observe(frame, -1, true)
				}
			case 5:
				takeReady()
			default:
				next()
			}
		}
		// Run both to the end: observe what is outstanding, in issue
		// order, then alternate Next and Observe until nothing issues.
		for bound := 0; bound < 4*int(n)+16; bound++ {
			for _, is := range outstanding {
				observe(is.frame, is.chunk, is.frame%7 == 3)
			}
			outstanding = outstanding[:0]
			if !next() {
				break
			}
			takeReady()
		}
		takeReady()
	})
}
