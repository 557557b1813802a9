package video

import (
	"testing"
	"testing/quick"
)

func mustRepo(t *testing.T, fps float64, counts ...int64) *Repository {
	t.Helper()
	r, err := NewRepository(fps, counts...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRepository(t *testing.T) {
	r := mustRepo(t, 30, 100, 200, 300)
	if r.NumFrames() != 600 {
		t.Fatalf("NumFrames = %d", r.NumFrames())
	}
	if r.NumFiles() != 3 {
		t.Fatalf("NumFiles = %d", r.NumFiles())
	}
	if f := r.files[1]; f.Start != 100 || f.End() != 300 {
		t.Fatalf("file[1] = %+v", f)
	}
}

func TestNewRepositoryErrors(t *testing.T) {
	if _, err := NewRepository(30); err == nil {
		t.Error("empty repository accepted")
	}
	if _, err := NewRepository(0, 100); err == nil {
		t.Error("zero fps accepted")
	}
	if _, err := NewRepository(30, 100, 0); err == nil {
		t.Error("zero-length file accepted")
	}
}

func TestHours(t *testing.T) {
	r := mustRepo(t, 30, 30*3600) // one hour at 30 fps
	if h := r.Hours(); h < 0.999 || h > 1.001 {
		t.Fatalf("Hours = %v", h)
	}
}

func TestChunkByDurationRespectsFileBoundaries(t *testing.T) {
	r := mustRepo(t, 30, 250, 100)
	chunks, err := r.ChunkByDuration(100)
	if err != nil {
		t.Fatal(err)
	}
	// file 0: [0,100) [100,200) [200,250); file 1: [250,350)
	if len(chunks) != 4 {
		t.Fatalf("got %d chunks: %+v", len(chunks), chunks)
	}
	if chunks[2].Start != 200 || chunks[2].End != 250 {
		t.Fatalf("chunk 2 = %+v", chunks[2])
	}
	if chunks[3].Start != 250 || chunks[3].End != 350 {
		t.Fatalf("chunk 3 = %+v", chunks[3])
	}
	if err := ValidateChunks(chunks, r.NumFrames()); err != nil {
		t.Fatal(err)
	}
}

func TestChunkPerFile(t *testing.T) {
	r := mustRepo(t, 30, 50, 60, 70)
	chunks := r.ChunkPerFile()
	if len(chunks) != 3 {
		t.Fatalf("got %d chunks", len(chunks))
	}
	if err := ValidateChunks(chunks, r.NumFrames()); err != nil {
		t.Fatal(err)
	}
}

func TestChunkEvenly(t *testing.T) {
	r := mustRepo(t, 30, 1000)
	chunks, err := r.ChunkEvenly(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 7 {
		t.Fatalf("got %d chunks", len(chunks))
	}
	if err := ValidateChunks(chunks, 1000); err != nil {
		t.Fatal(err)
	}
	// Sizes differ by at most one frame.
	min, max := chunks[0].Len(), chunks[0].Len()
	for _, c := range chunks {
		if c.Len() < min {
			min = c.Len()
		}
		if c.Len() > max {
			max = c.Len()
		}
	}
	if max-min > 1 {
		t.Fatalf("uneven chunks: min %d max %d", min, max)
	}
}

func TestSplitRangeErrors(t *testing.T) {
	if _, err := SplitRange(0, 0, 1); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := SplitRange(0, 10, 0); err == nil {
		t.Error("zero chunks accepted")
	}
	if _, err := SplitRange(0, 10, 11); err == nil {
		t.Error("more chunks than frames accepted")
	}
}

func TestSplitRangeProperty(t *testing.T) {
	f := func(rawN uint16, rawM uint8) bool {
		n := int64(rawN%5000) + 1
		m := int(rawM)%64 + 1
		if int64(m) > n {
			m = int(n)
		}
		chunks, err := SplitRange(0, n, m)
		if err != nil {
			return false
		}
		return ValidateChunks(chunks, n) == nil && len(chunks) == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestValidateChunksRejectsGapsAndOverlaps(t *testing.T) {
	bad := [][]Chunk{
		{},
		{{Start: 0, End: 5}, {Start: 6, End: 10}}, // gap
		{{Start: 0, End: 5}, {Start: 4, End: 10}}, // overlap
		{{Start: 0, End: 5}, {Start: 5, End: 5}},  // empty chunk
		{{Start: 0, End: 5}, {Start: 5, End: 9}},  // doesn't reach end
		{{Start: 1, End: 10}},                     // doesn't start at 0
	}
	for i, chunks := range bad {
		if err := ValidateChunks(chunks, 10); err == nil {
			t.Errorf("case %d accepted: %+v", i, chunks)
		}
	}
}

func TestDecodeCost(t *testing.T) {
	m := DecodeCostModel{KeyframeInterval: 20, SeekCost: 0.004, PerFrameDecode: 0.001}
	// Frame 0 is a keyframe: decode 1 frame.
	if got := m.Cost(0); got != 0.005 {
		t.Errorf("Cost(0) = %v", got)
	}
	// Frame 19 is the farthest from its keyframe: decode 20 frames.
	if got := m.Cost(19); got != 0.024 {
		t.Errorf("Cost(19) = %v", got)
	}
	// Frame 20 is a keyframe again.
	if got := m.Cost(20); got != 0.005 {
		t.Errorf("Cost(20) = %v", got)
	}
}

func TestDecodeCostNoKeyframes(t *testing.T) {
	m := DecodeCostModel{KeyframeInterval: 0, SeekCost: 0.01, PerFrameDecode: 0.002}
	if got := m.Cost(12345); got != 0.012 {
		t.Errorf("Cost = %v", got)
	}
}
