package core

import (
	"runtime"
	"testing"

	"github.com/exsample/exsample/internal/video"
)

// warmSampler builds a sampler and samples until every chunk's
// within-chunk order has been opened (first visit builds it lazily), so a
// subsequent allocation measurement sees only the steady-state decision
// loop.
func warmSampler(t *testing.T, nChunks int, policy Policy) *Sampler {
	t.Helper()
	chunks, err := video.SplitRange(0, int64(nChunks)*4096, nChunks)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(chunks, Config{Seed: 7, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	opened := 0
	seen := make([]bool, nChunks)
	for opened < nChunks {
		p, ok := s.Next()
		if !ok {
			t.Fatal("sampler exhausted during warmup")
		}
		if !seen[p.Chunk] {
			seen[p.Chunk] = true
			opened++
		}
		if err := s.Update(p.Chunk, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestSamplerDecisionAllocFree: one steady-state Thompson decision —
// score every chunk's Gamma belief, draw a frame, feed the update back —
// allocates nothing. This is the §III-F premise (sampling overhead must be
// negligible next to detector inference) expressed as a regression guard.
func TestSamplerDecisionAllocFree(t *testing.T) {
	s := warmSampler(t, 64, Thompson)
	allocs := testing.AllocsPerRun(200, func() {
		p, ok := s.Next()
		if !ok {
			t.Fatal("sampler exhausted")
		}
		if err := s.Update(p.Chunk, 1, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("Thompson decision allocates %.2f objects/decision, want 0", allocs)
	}
}

// TestSamplerDecisionAllocFreeGreedy: the greedy ablation policy shares
// the same budget.
func TestSamplerDecisionAllocFreeGreedy(t *testing.T) {
	s := warmSampler(t, 64, Greedy)
	allocs := testing.AllocsPerRun(200, func() {
		p, ok := s.Next()
		if !ok {
			t.Fatal("sampler exhausted")
		}
		if err := s.Update(p.Chunk, 0, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("greedy decision allocates %.2f objects/decision, want 0", allocs)
	}
}

// TestSamplerManyChunksAllocFree: at 1000 chunks, where most arms share a
// few belief groups and a decision moves an arm between them, the decision
// loop still allocates nothing, and neither do the SetEnabled calls
// thompsonPicker.fence makes on every sync: fencing an arm and re-admitting
// it, and a call per arm that leaves each arm as it is.
func TestSamplerManyChunksAllocFree(t *testing.T) {
	s := warmSampler(t, 1000, Thompson)
	decide := testing.AllocsPerRun(200, func() {
		p, ok := s.Next()
		if !ok {
			t.Fatal("sampler exhausted")
		}
		if err := s.Update(p.Chunk, 1, 1); err != nil {
			t.Fatal(err)
		}
	})
	if decide > 0 {
		t.Fatalf("1000-chunk decision allocates %.2f objects/decision, want 0", decide)
	}
	toggle := testing.AllocsPerRun(200, func() {
		for _, on := range []bool{false, true} {
			if err := s.SetEnabled(17, on); err != nil {
				t.Fatal(err)
			}
		}
	})
	if toggle > 0 {
		t.Fatalf("fence and re-admit allocate %.2f objects, want 0", toggle)
	}
	unchanged := testing.AllocsPerRun(20, func() {
		for j := 0; j < s.NumChunks(); j++ {
			if err := s.SetEnabled(j, true); err != nil {
				t.Fatal(err)
			}
		}
	})
	if unchanged > 0 {
		t.Fatalf("no-op SetEnabled over every arm allocates %.2f objects, want 0", unchanged)
	}
}

// TestAllocationInto reuses the caller's buffer and matches Allocation.
func TestAllocationInto(t *testing.T) {
	s := warmSampler(t, 8, Thompson)
	buf := make([]float64, 0, 8)
	got := s.AllocationInto(buf)
	want := s.Allocation()
	if len(got) != len(want) {
		t.Fatalf("AllocationInto length %d, want %d", len(got), len(want))
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("AllocationInto[%d] = %v, want %v", j, got[j], want[j])
		}
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("AllocationInto did not reuse the caller's buffer")
	}
	allocs := testing.AllocsPerRun(100, func() { got = s.AllocationInto(got) })
	if allocs > 0 {
		t.Fatalf("AllocationInto with a warm buffer allocates %.2f objects/call, want 0", allocs)
	}
}

// TestSamplerColdOpenAllocs pins the first-visit path the warmed guards
// above skip: a decision that lazily opens a chunk's frame order. Before
// the order slab + in-place generator seeding, every cold open cost ~6
// allocations (generator, order struct, bitset, pending queue), which came
// to ~4.5 allocs/frame on a 8192-arm sampler. Small chunks (<= 256 frames)
// open into slab + inline storage, and longer ones list their first four
// emitted frames inline before they allocate a bitset, so 256 cold
// decisions amortize to well under one allocation each either way (a
// bitset per 2000-frame chunk open came to 0.98).
func TestSamplerColdOpenAllocs(t *testing.T) {
	// Count every allocation of the whole sequence: AllocsPerRun rounds its
	// per-run average down to an integer, which reads 0.98 as 0.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, chunkFrames := range []int64{128, 2000} {
		chunks, err := video.SplitRange(0, 512*chunkFrames, 512)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(chunks, Config{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		// No warm-up: most of these decisions hit never-visited chunks.
		const decisions = 256
		opened := make(map[int]bool, decisions)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < decisions; i++ {
			p, ok := s.Next()
			if !ok {
				t.Fatal("sampler exhausted")
			}
			opened[p.Chunk] = true
			if err := s.Update(p.Chunk, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if len(opened) < decisions/2 {
			t.Fatalf("%d-frame chunks: only %d of %d decisions opened a chunk; the guard needs cold opens", chunkFrames, len(opened), decisions)
		}
		allocs := float64(after.Mallocs-before.Mallocs) / decisions
		t.Logf("%d-frame chunks: %d chunks opened, %.3f allocs/decision", chunkFrames, len(opened), allocs)
		if allocs > 0.25 {
			t.Fatalf("%d-frame chunks: cold-open decision allocates %.3f objects/decision, want <= 0.25 (slab-amortized)", chunkFrames, allocs)
		}
	}
}

// TestMaxPointEstimateAllocFree: the marginal-value read the global budget
// scheduler polls once per round must allocate nothing.
func TestMaxPointEstimateAllocFree(t *testing.T) {
	s := warmSampler(t, 64, Thompson)
	var sink float64
	allocs := testing.AllocsPerRun(200, func() { sink += s.MaxPointEstimate() })
	if allocs > 0 {
		t.Fatalf("MaxPointEstimate allocates %.2f objects/call, want 0", allocs)
	}
	_ = sink
}
