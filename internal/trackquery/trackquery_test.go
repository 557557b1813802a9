package trackquery

import (
	"reflect"
	"strings"
	"testing"

	"github.com/exsample/exsample/internal/geom"
	"github.com/exsample/exsample/internal/sorttrack"
	"github.com/exsample/exsample/internal/video"
)

// pathAlong builds a path of 20x20 boxes whose centers move from (x0,y0)
// stepping (dx,dy) per frame.
func pathAlong(n int, x0, y0, dx, dy float64) []sorttrack.PathPoint {
	out := make([]sorttrack.PathPoint, n)
	for i := 0; i < n; i++ {
		cx := x0 + dx*float64(i)
		cy := y0 + dy*float64(i)
		out[i] = sorttrack.PathPoint{Frame: int64(i), Box: geom.Rect(cx-10, cy-10, 20, 20)}
	}
	return out
}

func mustCompile(t *testing.T, p Predicate) *Evaluator {
	t.Helper()
	e, err := Compile(p)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return e
}

func TestEvaluatorClauses(t *testing.T) {
	// 10 frames rightward from (50, 100) at 8 px/frame: centers 50..122.
	right := pathAlong(10, 50, 100, 8, 0)
	square := func(x1, y1, x2, y2 float64) geom.Polygon {
		return geom.BoxPolygon(geom.Box{X1: x1, Y1: y1, X2: x2, Y2: y2})
	}
	cases := []struct {
		name string
		p    Predicate
		want bool
	}{
		{"empty predicate matches", Predicate{}, true},
		{"min duration ok", Predicate{MinDuration: 10}, true},
		{"min duration too long", Predicate{MinDuration: 11}, false},
		{"max duration ok", Predicate{MaxDuration: 10}, true},
		{"max duration exceeded", Predicate{MaxDuration: 9}, false},
		{"from contains start", Predicate{From: square(40, 90, 60, 110)}, true},
		{"from misses start", Predicate{From: square(200, 90, 220, 110)}, false},
		{"to contains end", Predicate{To: square(110, 90, 130, 110)}, true},
		{"to misses end", Predicate{To: square(40, 90, 60, 110)}, false},
		{"visits mid-path", Predicate{Visits: square(80, 95, 90, 105)}, true},
		{"visits nowhere", Predicate{Visits: square(80, 300, 90, 310)}, false},
		{"crosses perpendicular line", Predicate{Crosses: &geom.Segment{A: geom.Point{X: 90, Y: 0}, B: geom.Point{X: 90, Y: 200}}}, true},
		{"crosses line elsewhere", Predicate{Crosses: &geom.Segment{A: geom.Point{X: 300, Y: 0}, B: geom.Point{X: 300, Y: 200}}}, false},
		{"speed in range", Predicate{MinSpeed: 7, MaxSpeed: 9}, true},
		{"speed too slow", Predicate{MinSpeed: 9}, false},
		{"speed too fast", Predicate{MaxSpeed: 7}, false},
		{"direction rightward", Predicate{HasDirection: true, DirMinDeg: 350, DirMaxDeg: 10}, true},
		{"direction wrong way", Predicate{HasDirection: true, DirMinDeg: 170, DirMaxDeg: 190}, false},
		{"conjunction all pass", Predicate{MinDuration: 5, MinSpeed: 7, HasDirection: true, DirMinDeg: 315, DirMaxDeg: 45}, true},
		{"conjunction one fails", Predicate{MinDuration: 5, MinSpeed: 20, HasDirection: true, DirMinDeg: 315, DirMaxDeg: 45}, false},
	}
	for _, c := range cases {
		if got := mustCompile(t, c.p).Match(right); got != c.want {
			t.Errorf("%s: Match = %v, want %v", c.name, got, c.want)
		}
	}
	if mustCompile(t, Predicate{}).Match(nil) {
		t.Error("empty path matched")
	}
	// A stationary object has no heading, so any direction clause fails.
	still := pathAlong(5, 50, 50, 0, 0)
	if mustCompile(t, Predicate{HasDirection: true, DirMinDeg: 0, DirMaxDeg: 360}).Match(still) {
		t.Error("stationary path matched a direction clause")
	}
	if s := AvgSpeed(still); s != 0 {
		t.Errorf("stationary speed = %v", s)
	}
}

func TestHeadingQuadrants(t *testing.T) {
	cases := []struct {
		dx, dy float64
		want   float64
	}{{1, 0, 0}, {0, 1, 90}, {-1, 0, 180}, {0, -1, 270}, {1, 1, 45}}
	for _, c := range cases {
		h, ok := Heading(pathAlong(2, 0, 0, c.dx, c.dy))
		if !ok || h != c.want {
			t.Errorf("Heading(d=%v,%v) = %v ok=%v, want %v", c.dx, c.dy, h, ok, c.want)
		}
	}
}

func TestCompileRejectsInconsistent(t *testing.T) {
	bad := []Predicate{
		{From: geom.Polygon{{X: 0, Y: 0}, {X: 1, Y: 1}}},                 // 2 vertices
		{Visits: geom.Polygon{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}}}, // zero area
		{Crosses: &geom.Segment{A: geom.Point{X: 5, Y: 5}, B: geom.Point{X: 5, Y: 5}}},
		{MinDuration: 10, MaxDuration: 5},
		{MinSpeed: 10, MaxSpeed: 5},
	}
	for i, p := range bad {
		if _, err := Compile(p); err == nil {
			t.Errorf("case %d: degenerate predicate compiled", i)
		}
	}
}

// drive runs a plan to completion against a synthetic hit oracle, pulling
// batch frames per round to mimic engine batching, and returns the ready
// intervals in completion order.
func drive(t *testing.T, p *Plan, batch int, hitAt func(int64) bool) []Interval {
	t.Helper()
	var ready []Interval
	for rounds := 0; rounds < 100000; rounds++ {
		type iss struct {
			frame int64
			chunk int
		}
		var issued []iss
		for len(issued) < batch {
			f, c, ok := p.Next()
			if !ok {
				break
			}
			issued = append(issued, iss{f, c})
		}
		if len(issued) == 0 {
			if p.Done() {
				ready = append(ready, p.TakeReady()...)
				return ready
			}
			t.Fatal("plan stalled: nothing issued but not done")
		}
		for _, is := range issued {
			if err := p.Observe(is.frame, is.chunk, hitAt(is.frame)); err != nil {
				t.Fatalf("Observe(%d): %v", is.frame, err)
			}
		}
		ready = append(ready, p.TakeReady()...)
	}
	t.Fatal("plan did not terminate")
	return nil
}

func planCfg(numFrames, stride, pad int64) Config {
	return Config{
		NumFrames: numFrames,
		Chunks:    []video.Chunk{{ID: 0, Start: 0, End: numFrames}},
		Stride:    stride,
		Pad:       pad,
		Seed:      42,
	}
}

func TestPlanLocalizesAndDensifies(t *testing.T) {
	// Object visible on [130, 170] of 400 frames; stride 10, pad 10.
	hit := func(f int64) bool { return f >= 130 && f <= 170 }
	p, err := NewPlan(planCfg(400, 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	ready := drive(t, p, 4, hit)
	want := []Interval{{Start: 120, End: 180}}
	if !reflect.DeepEqual(ready, want) {
		t.Fatalf("ready = %+v, want %+v", ready, want)
	}
	ci, ri, ch, rh := p.Stats()
	if ci != 40 {
		t.Errorf("coarse issued %d, want 40 (full grid)", ci)
	}
	// Interval has 61 frames, 7 of them already visited on the grid.
	if ri != 61-7 {
		t.Errorf("refine issued %d, want %d", ri, 61-7)
	}
	if ch != 5 { // grid points 130, 140, 150, 160, 170
		t.Errorf("coarse hits %d, want 5", ch)
	}
	if rh != 41-5 {
		t.Errorf("refine hits %d, want %d", rh, 41-5)
	}
	if total := ci + ri; total >= 400/2 {
		t.Errorf("processed %d of 400 frames — no acceleration", total)
	}
}

func TestPlanIntervalsIndependentOfSeedAndBatch(t *testing.T) {
	hit := func(f int64) bool {
		return (f >= 50 && f <= 80) || (f >= 300 && f <= 310) || (f >= 690 && f <= 699)
	}
	var base []Interval
	for i, cfg := range []struct {
		seed  uint64
		batch int
	}{{1, 1}, {1, 17}, {99, 4}, {7, 64}} {
		c := planCfg(800, 8, 8)
		c.Seed = cfg.seed
		p, err := NewPlan(c)
		if err != nil {
			t.Fatal(err)
		}
		got := drive(t, p, cfg.batch, hit)
		if i == 0 {
			base = got
			continue
		}
		if !reflect.DeepEqual(got, base) {
			t.Errorf("seed=%d batch=%d: intervals %+v != base %+v", cfg.seed, cfg.batch, got, base)
		}
	}
	if len(base) != 3 {
		t.Fatalf("expected 3 disjoint intervals, got %+v", base)
	}
}

func TestPlanStrideOneIsDense(t *testing.T) {
	// Stride 1: the grid is every frame, so refine has nothing to add and
	// the plan completes with zero refine issues.
	hit := func(f int64) bool { return f == 25 }
	p, err := NewPlan(planCfg(60, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	ready := drive(t, p, 16, hit)
	want := []Interval{{Start: 22, End: 28}}
	if !reflect.DeepEqual(ready, want) {
		t.Fatalf("ready = %+v, want %+v", ready, want)
	}
	ci, ri, _, _ := p.Stats()
	if ci != 60 || ri != 0 {
		t.Errorf("issued coarse=%d refine=%d, want 60, 0", ci, ri)
	}
}

func TestPlanNoHitsFinishesEmpty(t *testing.T) {
	p, err := NewPlan(planCfg(200, 16, 16))
	if err != nil {
		t.Fatal(err)
	}
	ready := drive(t, p, 8, func(int64) bool { return false })
	if len(ready) != 0 {
		t.Fatalf("ready = %+v, want none", ready)
	}
	if !p.Done() {
		t.Error("plan not done")
	}
	if v := p.MarginalValue(); v != 0 {
		t.Errorf("done marginal value = %v", v)
	}
}

// twoArmCfg is a 200-frame plan over two 100-frame chunks at stride 10:
// arm 0 owns grid points 0..90, arm 1 owns 100..190.
func twoArmCfg() Config {
	return Config{
		NumFrames: 200,
		Chunks:    []video.Chunk{{ID: 0, Start: 0, End: 100}, {ID: 1, Start: 100, End: 200}},
		Stride:    10,
		Pad:       10,
		Seed:      5,
	}
}

// stepCoarse issues and observes (as misses) up to n coarse frames one at a
// time and returns them.
func stepCoarse(t *testing.T, p *Plan, n int) []int64 {
	t.Helper()
	var out []int64
	for len(out) < n {
		f, c, ok := p.Next()
		if !ok || c < 0 {
			break
		}
		if err := p.Observe(f, c, false); err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
	return out
}

func TestPlanFence(t *testing.T) {
	onlyArm0 := func(c video.Chunk) bool { return c.Start < 100 }
	all := func(video.Chunk) bool { return true }

	t.Run("fenced arm issues nothing and keeps its cursor", func(t *testing.T) {
		p, err := NewPlan(twoArmCfg())
		if err != nil {
			t.Fatal(err)
		}
		stepCoarse(t, p, 6)
		cursor := p.arms[1].next
		p.Fence(onlyArm0)
		// Arm 0 has at most 10 grid points; everything after the fence
		// must come from it, and the grid then closes without arm 1.
		for _, f := range stepCoarse(t, p, 100) {
			if f >= 100 {
				t.Fatalf("fenced arm issued grid point %d", f)
			}
		}
		if got := p.arms[1].next; got != cursor {
			t.Fatalf("fenced arm cursor moved %d → %d", cursor, got)
		}
		if _, _, ok := p.Next(); ok || !p.Done() {
			t.Fatalf("plan with no hits not done after its enabled grid ran out (phase %v)", p.Phase())
		}
		if ci, _, _, _ := p.Stats(); ci >= 20 {
			t.Fatalf("coarse issued %d, want fewer than the full grid of 20", ci)
		}
	})

	t.Run("re-enabled arm resumes", func(t *testing.T) {
		p, err := NewPlan(twoArmCfg())
		if err != nil {
			t.Fatal(err)
		}
		p.Fence(onlyArm0)
		for _, f := range stepCoarse(t, p, 5) {
			if f >= 100 {
				t.Fatalf("fenced arm issued grid point %d", f)
			}
		}
		p.Fence(all)
		got := map[int64]bool{}
		for _, f := range stepCoarse(t, p, 100) {
			got[f] = true
		}
		for f := int64(100); f < 200; f += 10 {
			if !got[f] {
				t.Fatalf("re-enabled arm never issued grid point %d", f)
			}
		}
		if ci, _, _, _ := p.Stats(); ci != 20 {
			t.Fatalf("coarse issued %d, want the full grid of 20", ci)
		}
	})

	t.Run("fence after the transition changes nothing", func(t *testing.T) {
		hit := func(f int64) bool { return f >= 130 && f <= 150 }
		want, err := NewPlan(twoArmCfg())
		if err != nil {
			t.Fatal(err)
		}
		wantReady := drive(t, want, 4, hit)
		p, err := NewPlan(twoArmCfg())
		if err != nil {
			t.Fatal(err)
		}
		var ready []Interval
		var refine []int64
		for !p.Done() {
			f, c, ok := p.Next()
			if !ok {
				t.Fatal("plan stalled")
			}
			if c < 0 && len(refine) == 0 {
				// First refine frame: the transition just ran.
				p.Fence(func(video.Chunk) bool { return false })
			}
			if c < 0 {
				refine = append(refine, f)
			}
			if err := p.Observe(f, c, hit(f)); err != nil {
				t.Fatal(err)
			}
			ready = append(ready, p.TakeReady()...)
		}
		if len(refine) == 0 {
			t.Fatal("no refine phase to fence")
		}
		if !reflect.DeepEqual(ready, wantReady) {
			t.Fatalf("ready = %+v, want %+v", ready, wantReady)
		}
		gc, gr, gch, grh := p.Stats()
		wc, wr, wch, wrh := want.Stats()
		if gc != wc || gr != wr || gch != wch || grh != wrh {
			t.Fatalf("stats (%d, %d, %d, %d), want (%d, %d, %d, %d)", gc, gr, gch, grh, wc, wr, wch, wrh)
		}
	})
}

// fiveArmCfg is a 500-frame plan over five 100-frame chunks at stride 10:
// arm j owns grid points 100j..100j+90.
func fiveArmCfg() Config {
	chunks := make([]video.Chunk, 5)
	for j := range chunks {
		chunks[j] = video.Chunk{ID: j, Start: int64(100 * j), End: int64(100 * (j + 1))}
	}
	return Config{NumFrames: 500, Chunks: chunks, Stride: 10, Pad: 10}
}

func TestPlanRoundRobin(t *testing.T) {
	// A round of k Next calls over m enabled arms touches min(k, m)
	// distinct arms, whatever arms are fenced and wherever the walk is.
	for _, enabled := range [][]bool{
		{true, true, true, true, true},
		{true, false, true, false, true},
		{false, false, false, true, false},
	} {
		m := 0
		for _, on := range enabled {
			if on {
				m++
			}
		}
		for _, k := range []int{1, 2, 3, 5, 7} {
			p, err := NewPlan(fiveArmCfg())
			if err != nil {
				t.Fatal(err)
			}
			p.Fence(func(c video.Chunk) bool { return enabled[c.ID] })
			// Up to three rounds, each fully observed before the next,
			// while the m enabled arms' 10 grid points each last.
			for round := 0; round < min(3, 10*m/k); round++ {
				arms := map[int]bool{}
				var frames []int64
				var chunks []int
				for i := 0; i < k; i++ {
					f, c, ok := p.Next()
					if !ok {
						t.Fatalf("enabled %v k=%d round %d: stalled after %d picks", enabled, k, round, i)
					}
					if !enabled[c] {
						t.Fatalf("enabled %v: fenced arm %d issued frame %d", enabled, c, f)
					}
					arms[c] = true
					frames, chunks = append(frames, f), append(chunks, c)
				}
				if want := min(k, m); len(arms) != want {
					t.Errorf("enabled %v k=%d round %d: %d distinct arms, want %d", enabled, k, round, len(arms), want)
				}
				for i, f := range frames {
					if err := p.Observe(f, chunks[i], false); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

func TestPlanFencedArmResumesAtCursor(t *testing.T) {
	// Arm 1's grid points go out in ascending order with no gap and no
	// repeat, however long it stays fenced in between.
	p, err := NewPlan(fiveArmCfg())
	if err != nil {
		t.Fatal(err)
	}
	all := func(video.Chunk) bool { return true }
	noArm1 := func(c video.Chunk) bool { return c.ID != 1 }
	var arm1 []int64
	collect := func(n int) {
		for _, f := range stepCoarse(t, p, n) {
			if f >= 100 && f < 200 {
				arm1 = append(arm1, f)
			}
		}
	}
	collect(12) // three rounds of arms 0–4, less three picks
	before := len(arm1)
	p.Fence(noArm1)
	collect(9)
	if len(arm1) != before {
		t.Fatalf("fenced arm 1 issued %v", arm1[before:])
	}
	p.Fence(all)
	collect(100)
	want := []int64{100, 110, 120, 130, 140, 150, 160, 170, 180, 190}
	if !reflect.DeepEqual(arm1, want) {
		t.Fatalf("arm 1 issued %v, want %v", arm1, want)
	}
}

func TestPlanNextCoarseAllocFree(t *testing.T) {
	// One coarse Next is a cursor bump: nothing to allocate. The grid
	// holds 10000 points, more than AllocsPerRun's warm-up plus runs.
	cfg := fiveArmCfg()
	cfg.Stride = 1
	cfg.NumFrames = 10_000
	for j := range cfg.Chunks {
		cfg.Chunks[j] = video.Chunk{ID: j, Start: int64(2000 * j), End: int64(2000 * (j + 1))}
	}
	p, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, c, ok := p.Next(); !ok || c < 0 {
			t.Fatal("coarse grid ran out")
		}
	})
	if allocs != 0 {
		t.Fatalf("coarse Next allocates %v per call, want 0", allocs)
	}
}

func TestPlanObserveAllocFree(t *testing.T) {
	// Once the plan is built, an observe flips a bit of the observed set
	// and counts: a coarse miss and a refine frame that completes no
	// interval allocate nothing. (A coarse hit appends to the hit list.)
	// 100 000 frames at stride 100 give 1000 grid points; one hit at
	// 50 000 padded by 5000 gives 9990 refine frames in one interval.
	p, err := NewPlan(planCfg(100_000, 100, 5000))
	if err != nil {
		t.Fatal(err)
	}
	step := func(wantChunk bool) {
		f, c, ok := p.Next()
		if !ok || (c >= 0) != wantChunk {
			t.Fatalf("Next = (%d, %d, %v) in phase %v", f, c, ok, p.Phase())
		}
		if err := p.Observe(f, c, f == 50_000 || f%2 == 1); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(400, func() { step(true) }); allocs != 0 {
		t.Fatalf("coarse Next+Observe allocates %v per frame, want 0", allocs)
	}
	for p.Phase() == PhaseCoarse {
		if f, c, ok := p.Next(); ok {
			if err := p.Observe(f, c, f == 50_000); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := p.Intervals(); !reflect.DeepEqual(got, []Interval{{Start: 45_000, End: 55_000}}) {
		t.Fatalf("intervals %v, want [{45000 55000}]", got)
	}
	if allocs := testing.AllocsPerRun(1000, func() { step(false) }); allocs != 0 {
		t.Fatalf("refine Next+Observe allocates %v per frame, want 0", allocs)
	}
	if len(p.TakeReady()) != 0 {
		t.Fatal("the interval completed inside the measured refine frames")
	}
}

func TestPlanSkipCompletesInterval(t *testing.T) {
	// Object on [130, 179]: grid hits 130..170 pad into [120, 180], whose
	// last missing frame 179 would be a hit. Skipping it — observing it
	// as a miss without detecting — readies the interval and counts no
	// refine hit.
	hit := func(f int64) bool { return f >= 130 && f <= 179 }
	p, err := NewPlan(planCfg(400, 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	for {
		f, c, ok := p.Next()
		if !ok {
			t.Fatal("plan stalled before its last refine frame")
		}
		if f == 179 {
			if c != -1 {
				t.Fatalf("frame 179 issued on coarse arm %d", c)
			}
			break
		}
		if err := p.Observe(f, c, hit(f)); err != nil {
			t.Fatal(err)
		}
		if r := p.TakeReady(); len(r) != 0 {
			t.Fatalf("interval ready before its last frame: %+v", r)
		}
	}
	_, _, _, before := p.Stats()
	if err := p.Observe(179, -1, false); err != nil {
		t.Fatal(err)
	}
	if r := p.TakeReady(); !reflect.DeepEqual(r, []Interval{{Start: 120, End: 180}}) {
		t.Fatalf("ready after skip = %+v, want [{120 180}]", r)
	}
	if _, _, _, after := p.Stats(); after != before {
		t.Fatalf("skip counted %d refine hits", after-before)
	}
	if !p.Done() {
		t.Fatal("plan not done after its last frame was skipped")
	}
}

func TestPlanWaitsForOutstandingCoarse(t *testing.T) {
	p, err := NewPlan(planCfg(40, 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	// Issue the whole grid (4 frames) without observing.
	var frames []int64
	var chunks []int
	for {
		f, c, ok := p.Next()
		if !ok {
			break
		}
		frames = append(frames, f)
		chunks = append(chunks, c)
	}
	if len(frames) != 4 {
		t.Fatalf("issued %d coarse frames, want 4", len(frames))
	}
	if p.Phase() != PhaseCoarse {
		t.Fatalf("phase = %v with observes outstanding", p.Phase())
	}
	for i, f := range frames {
		if _, _, ok := p.Next(); ok {
			t.Fatal("Next issued with observes outstanding")
		}
		if err := p.Observe(f, chunks[i], f == 20); err != nil {
			t.Fatal(err)
		}
	}
	// All observed: next call transitions to refine.
	f, c, ok := p.Next()
	if !ok || c != -1 {
		t.Fatalf("Next after transition = (%d, %d, %v)", f, c, ok)
	}
	if p.Phase() != PhaseRefine {
		t.Fatalf("phase = %v, want refine", p.Phase())
	}
}

func TestPlanObserveErrors(t *testing.T) {
	p, err := NewPlan(planCfg(40, 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	f, c, ok := p.Next()
	if !ok {
		t.Fatal("no first pick")
	}
	if err := p.Observe(f, c, false); err != nil {
		t.Fatal(err)
	}
	if err := p.Observe(f, c, false); err == nil {
		t.Error("double observe accepted")
	}
	if err := p.Observe(25, -1, false); err == nil || !strings.Contains(err.Error(), "phase") {
		t.Errorf("refine observe in coarse phase: %v", err)
	}
	for _, f := range []int64{-1, 40, 999} {
		if err := p.Observe(f, 0, false); err == nil {
			t.Errorf("frame %d outside the 40-frame repository accepted", f)
		}
	}
}

func TestPlanMarginalValueDecays(t *testing.T) {
	hit := func(f int64) bool { return f >= 100 && f <= 120 }
	p, err := NewPlan(planCfg(400, 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	if v := p.MarginalValue(); v <= 0 {
		t.Errorf("initial marginal value %v, want > 0 (prior optimism)", v)
	}
	drive(t, p, 4, hit)
	if v := p.MarginalValue(); v != 0 {
		t.Errorf("final marginal value %v, want 0", v)
	}
}

func TestNewPlanRejectsBadConfig(t *testing.T) {
	good := planCfg(100, 10, 10)
	for name, mutate := range map[string]func(*Config){
		"zero frames":    func(c *Config) { c.NumFrames = 0 },
		"zero stride":    func(c *Config) { c.Stride = 0 },
		"negative pad":   func(c *Config) { c.Pad = -1 },
		"no chunks":      func(c *Config) { c.Chunks = nil },
		"chunk past end": func(c *Config) { c.Chunks = []video.Chunk{{ID: 0, Start: 0, End: 500}} },
		"coverage hole": func(c *Config) {
			c.Chunks = []video.Chunk{{ID: 0, Start: 0, End: 40}, {ID: 1, Start: 60, End: 100}}
		},
	} {
		c := good
		mutate(&c)
		if _, err := NewPlan(c); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
