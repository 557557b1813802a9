// Package video models the video repository that ExSample samples from.
//
// Real video never enters the picture: the paper treats the repository as an
// addressable collection of frames, read one at a time through a costly
// random-access decode (the authors use the Hwang library with keyframes
// every 20 frames, §V-A). This package reproduces exactly that interface —
// frames are indices, files carry frame ranges, and a decode-cost model
// charges for keyframe seek plus sequential decode — along with the two
// chunking policies the paper uses (fixed-duration chunks split at file
// boundaries, and one chunk per file for BDD's sub-minute clips).
package video

import (
	"fmt"
	"math"
)

// File is one video file in the repository, occupying the frame range
// [Start, Start+NumFrames) in global repository coordinates.
type File struct {
	Name      string
	Start     int64
	NumFrames int64
	FPS       float64
}

// End returns the exclusive end frame of the file.
func (f File) End() int64 { return f.Start + f.NumFrames }

// Repository is an ordered collection of video files addressed by global
// frame index.
type Repository struct {
	files     []File
	numFrames int64
}

// NewRepository builds a repository from file lengths. Each file is assigned
// a contiguous global frame range in order. fps applies to all files.
func NewRepository(fps float64, frameCounts ...int64) (*Repository, error) {
	if !(fps > 0) || math.IsInf(fps, 1) {
		return nil, fmt.Errorf("video: fps must be positive, got %v", fps)
	}
	if len(frameCounts) == 0 {
		return nil, fmt.Errorf("video: repository needs at least one file")
	}
	r := &Repository{}
	var start int64
	for i, n := range frameCounts {
		if n <= 0 {
			return nil, fmt.Errorf("video: file %d has %d frames", i, n)
		}
		r.files = append(r.files, File{
			Name:      fmt.Sprintf("file-%04d", i),
			Start:     start,
			NumFrames: n,
			FPS:       fps,
		})
		start += n
	}
	r.numFrames = start
	return r, nil
}

// NumFrames returns the total frame count across all files.
func (r *Repository) NumFrames() int64 { return r.numFrames }

// NumFiles returns the number of files.
func (r *Repository) NumFiles() int { return len(r.files) }

// Hours returns the repository length in hours of video.
func (r *Repository) Hours() float64 {
	var h float64
	for _, f := range r.files {
		h += float64(f.NumFrames) / f.FPS / 3600
	}
	return h
}

// Chunk is a contiguous frame range [Start, End) that ExSample treats as one
// sampling arm. Chunks never span file boundaries.
type Chunk struct {
	ID    int
	Start int64
	End   int64
}

// Len returns the number of frames in the chunk.
func (c Chunk) Len() int64 { return c.End - c.Start }

// Contains reports whether the chunk contains the given frame.
func (c Chunk) Contains(frame int64) bool { return frame >= c.Start && frame < c.End }

// ChunkByDuration splits the repository into chunks of at most
// framesPerChunk frames, never crossing file boundaries. This is the paper's
// default policy (20-minute chunks; drives longer than 20 minutes are
// split). A file shorter than framesPerChunk becomes a single chunk.
func (r *Repository) ChunkByDuration(framesPerChunk int64) ([]Chunk, error) {
	if framesPerChunk <= 0 {
		return nil, fmt.Errorf("video: framesPerChunk must be positive, got %d", framesPerChunk)
	}
	var chunks []Chunk
	for _, f := range r.files {
		for start := f.Start; start < f.End(); start += framesPerChunk {
			end := start + framesPerChunk
			if end > f.End() {
				end = f.End()
			}
			chunks = append(chunks, Chunk{ID: len(chunks), Start: start, End: end})
		}
	}
	return chunks, nil
}

// ChunkPerFile returns one chunk per file, the policy forced on the BDD
// dataset by its sub-minute clip lengths (§V-A).
func (r *Repository) ChunkPerFile() []Chunk {
	chunks := make([]Chunk, 0, len(r.files))
	for _, f := range r.files {
		chunks = append(chunks, Chunk{ID: len(chunks), Start: f.Start, End: f.End()})
	}
	return chunks
}

// ChunkEvenly splits the whole repository into exactly m equal-size chunks,
// ignoring file boundaries. This is the policy used in the paper's §IV
// simulations (e.g. 128 chunks over 16M frames).
func (r *Repository) ChunkEvenly(m int) ([]Chunk, error) {
	return SplitRange(0, r.numFrames, m)
}

// SplitRange splits the half-open frame range [start, end) into m chunks of
// near-equal size (within one frame of each other).
func SplitRange(start, end int64, m int) ([]Chunk, error) {
	n := end - start
	if n <= 0 {
		return nil, fmt.Errorf("video: empty range [%d, %d)", start, end)
	}
	if m <= 0 {
		return nil, fmt.Errorf("video: chunk count must be positive, got %d", m)
	}
	if int64(m) > n {
		return nil, fmt.Errorf("video: cannot split %d frames into %d chunks", n, m)
	}
	chunks := make([]Chunk, 0, m)
	for i := 0; i < m; i++ {
		lo := start + n*int64(i)/int64(m)
		hi := start + n*int64(i+1)/int64(m)
		chunks = append(chunks, Chunk{ID: i, Start: lo, End: hi})
	}
	return chunks, nil
}

// ValidateChunks checks that chunks are non-empty, sorted, non-overlapping
// and exactly cover [0, numFrames).
func ValidateChunks(chunks []Chunk, numFrames int64) error {
	if len(chunks) == 0 {
		return fmt.Errorf("video: no chunks")
	}
	var pos int64
	for i, c := range chunks {
		if c.Start != pos {
			return fmt.Errorf("video: chunk %d starts at %d, want %d", i, c.Start, pos)
		}
		if c.Len() <= 0 {
			return fmt.Errorf("video: chunk %d is empty", i)
		}
		pos = c.End
	}
	if pos != numFrames {
		return fmt.Errorf("video: chunks cover [0, %d), want [0, %d)", pos, numFrames)
	}
	return nil
}

// DecodeCostModel charges for reading and decoding one frame by random
// access: a fixed per-read overhead (container seek, io) plus sequential
// decode from the preceding keyframe. The paper re-encodes video with
// keyframes every 20 frames to make this cheap (§V-A).
type DecodeCostModel struct {
	// KeyframeInterval is the distance between keyframes in frames.
	KeyframeInterval int64
	// SeekCost is the fixed cost per random read, in seconds.
	SeekCost float64
	// PerFrameDecode is the cost of decoding one frame, in seconds.
	PerFrameDecode float64
}

// DefaultDecodeCost matches the paper's setup: keyframes every 20 frames and
// io+decode throughput around 100 fps for sequential scoring.
func DefaultDecodeCost() DecodeCostModel {
	return DecodeCostModel{KeyframeInterval: 20, SeekCost: 0.004, PerFrameDecode: 0.001}
}

// Cost returns the time in seconds to randomly read and decode the frame.
func (m DecodeCostModel) Cost(frame int64) float64 {
	if m.KeyframeInterval <= 0 {
		return m.SeekCost + m.PerFrameDecode
	}
	sinceKey := frame % m.KeyframeInterval
	return m.SeekCost + float64(sinceKey+1)*m.PerFrameDecode
}
