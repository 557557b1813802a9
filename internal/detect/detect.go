// Package detect provides the simulated object detector and the internal
// batched detector contract.
//
// The paper treats the detector as a black box with a costly runtime
// (§II-A): the only things the search algorithm observes are the boxes the
// detector emits on the frames it is asked about, and the time each call
// takes. This package reproduces that contract over synthetic ground truth:
// detections are derived from the track model with a configurable noise
// model (per-frame misses, localization jitter, false positives) and a fixed
// per-frame inference cost.
//
// Queries do not call Sim directly. The one contract a query detects
// through is a public backend.Backend (the simulated detector is the
// default one) behind the root package's adapter, which implements
// BatchDetector. Sim rejects no class: a class without ground truth yields
// no true detections, and unknown classes are rejected only at the public
// Backend boundary (Dataset.Backend).
//
// Detection noise is deterministic per (frame, instance): asking about the
// same frame twice yields the same detections, just like a real (stateless)
// network. Determinism comes from hashing (seed, frame, instance) rather
// than from a shared RNG stream.
package detect

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"github.com/exsample/exsample/internal/geom"
	"github.com/exsample/exsample/internal/track"
)

// Detector is the per-frame detector interface Sim implements; offline
// tools (ground-truth builders) drive it directly.
type Detector interface {
	// Detect returns the detections for one frame.
	Detect(frame int64) []track.Detection
	// CostSeconds returns the inference time charged per frame.
	CostSeconds() float64
}

// FrameOutput is one frame's detector output plus the inference cost
// charged for it. Frame-dependent costs (a sharded detector over shards
// with different throughputs) are expressed here, per output, rather than
// through a side-channel on the detector.
//
// Dets is shared, never owned: it is a backend's own slice passed through,
// or a slab a sharded detector remapped one batch into, so no reader may
// write through it. Nothing writes it again either, which is what lets a
// memo tier or a track run keep it across rounds for as long as it likes.
type FrameOutput struct {
	Dets []track.Detection
	Cost float64
}

// BatchDetector is the batched, context-aware detector contract the query
// pipeline runs on. One call covers many frames — the shape a real batch
// endpoint (GPU server, remote HTTP fleet) wants — and the call honors ctx:
// a cancellation mid-batch abandons the remaining frames and returns ctx's
// error. Implementations must be safe for concurrent use; batches for
// different shards (or different queries) run concurrently on the engine's
// worker pool.
type BatchDetector interface {
	// DetectBatch runs the detector on every frame of the batch and
	// appends one output per frame to dst, aligned with frames, returning
	// the extended slice (nil on error). The caller owns dst and scr and
	// passes them to one call at a time; no detection slice the call
	// returns points into either, so the caller reuses both for its next
	// batch while the detection slices live on.
	DetectBatch(ctx context.Context, frames []int64, dst []FrameOutput, scr *Scratch) ([]FrameOutput, error)
}

// Scratch is caller-owned memory a DetectBatch call borrows for the length
// of the call: the frame buffer a detector that translates its batch into
// another frame space (a sharded source's per-shard local frames) writes
// into. One detector of a call owns it: the sharded detector, whose members
// are plain datasets that never ask for it. The zero Scratch is ready to
// use; it is not safe for concurrent use.
type Scratch struct {
	frames []int64
}

// Frames returns the scratch's frame buffer resized to n, growing only when
// capacity is short.
func (s *Scratch) Frames(n int) []int64 {
	if cap(s.frames) < n {
		s.frames = make([]int64, n)
	}
	s.frames = s.frames[:n]
	return s.frames
}

// NoiseModel controls how far the simulated detector deviates from ground
// truth.
type NoiseModel struct {
	// MissProb is the per-frame, per-instance probability that a visible
	// object is not detected.
	MissProb float64
	// EdgeMissBoost adds extra miss probability near the first and last 10%
	// of an instance's visibility interval, where objects are small or
	// partially out of frame — the paper notes a single sampled frame "may
	// not show the light clearly" (§I).
	EdgeMissBoost float64
	// JitterFrac perturbs each box coordinate by a uniform offset of up to
	// this fraction of the box's size.
	JitterFrac float64
	// FalsePositiveRate is the expected number of spurious detections per
	// frame (Bernoulli per frame for rates <= 1).
	FalsePositiveRate float64
	// MinScore and MaxScore bound the confidence scores assigned to true
	// detections; false positives score uniformly below MinScore + 0.2.
	MinScore, MaxScore float64
}

// DefaultNoise returns a moderately noisy detector: 5% misses, 15% extra
// near track edges, 2% box jitter, and 1 false positive per 50 frames.
func DefaultNoise() NoiseModel {
	return NoiseModel{
		MissProb:          0.05,
		EdgeMissBoost:     0.15,
		JitterFrac:        0.02,
		FalsePositiveRate: 0.02,
		MinScore:          0.5,
		MaxScore:          0.99,
	}
}

// Validate reports an error if the noise parameters are out of range.
func (nm NoiseModel) Validate() error {
	// The !(in range) form rejects NaN, which fails every comparison.
	if !(nm.MissProb >= 0 && nm.MissProb <= 1) {
		return fmt.Errorf("detect: MissProb %v outside [0,1]", nm.MissProb)
	}
	if !(nm.EdgeMissBoost >= 0 && nm.EdgeMissBoost <= 1) {
		return fmt.Errorf("detect: EdgeMissBoost %v outside [0,1]", nm.EdgeMissBoost)
	}
	if !(nm.JitterFrac >= 0 && nm.JitterFrac <= 0.5) {
		return fmt.Errorf("detect: JitterFrac %v outside [0,0.5]", nm.JitterFrac)
	}
	if !(nm.FalsePositiveRate >= 0 && nm.FalsePositiveRate <= math.MaxFloat64) {
		return fmt.Errorf("detect: negative FalsePositiveRate %v", nm.FalsePositiveRate)
	}
	return nil
}

// Sim is a simulated detector backed by a ground-truth track index. Detect
// is safe for concurrent use (outputs are hash-derived per frame; the call
// counter is atomic), matching a stateless DNN served to multiple workers.
type Sim struct {
	idx   *track.Index
	class string // "" means all classes
	noise NoiseModel
	cost  float64
	seed  uint64
	calls atomic.Int64
}

// Option configures a Sim detector.
type Option func(*Sim)

// WithClass restricts the detector to one object class, mirroring a
// query-specific detector head.
func WithClass(class string) Option { return func(s *Sim) { s.class = class } }

// WithNoise sets the noise model (default DefaultNoise).
func WithNoise(nm NoiseModel) Option { return func(s *Sim) { s.noise = nm } }

// WithCost sets the per-frame inference cost in seconds (default 1/20 s,
// the paper's measured detector throughput of 20 fps, §V-B).
func WithCost(seconds float64) Option { return func(s *Sim) { s.cost = seconds } }

// NewSim builds a simulated detector over the given ground truth.
func NewSim(idx *track.Index, seed uint64, opts ...Option) (*Sim, error) {
	s := &Sim{
		idx:   idx,
		noise: DefaultNoise(),
		cost:  1.0 / 20.0,
		seed:  seed,
	}
	for _, o := range opts {
		o(s)
	}
	if err := s.noise.Validate(); err != nil {
		return nil, err
	}
	if s.cost < 0 {
		return nil, fmt.Errorf("detect: negative cost %v", s.cost)
	}
	return s, nil
}

// Perfect returns a noise-free detector, the stand-in for the paper's
// reference detector used to build ground truth.
func Perfect(idx *track.Index, opts ...Option) (*Sim, error) {
	base := []Option{WithNoise(NoiseModel{MinScore: 1, MaxScore: 1})}
	return NewSim(idx, 0, append(base, opts...)...)
}

// CostSeconds returns the per-frame inference cost.
func (s *Sim) CostSeconds() float64 { return s.cost }

// Calls returns how many frames have been processed so far.
func (s *Sim) Calls() int64 { return s.calls.Load() }

// Detect returns the detections for one frame. Output is deterministic per
// frame for a given detector.
func (s *Sim) Detect(frame int64) []track.Detection {
	s.calls.Add(1)
	// Gather pointers to the visible instances on the stack; a frame
	// spills to the heap only past 64 of them.
	var buf [64]*track.Instance
	var visible []*track.Instance
	if s.class == "" {
		visible = s.idx.At(frame, buf[:0])
	} else {
		visible = s.idx.AtClass(frame, s.class, buf[:0])
	}
	// The output is sized once, on its first detection, for every visible
	// instance and false positive; a frame with none stays nil.
	fpCount := s.fpCount(frame)
	var dets []track.Detection
	add := func(d track.Detection) {
		if dets == nil {
			dets = make([]track.Detection, 0, len(visible)+fpCount)
		}
		dets = append(dets, d)
	}
	for _, in := range visible {
		u := hash01(s.seed, uint64(frame), uint64(in.ID), 0)
		if u < s.missProb(in, frame) {
			continue // missed
		}
		box := in.BoxAt(frame)
		if s.noise.JitterFrac > 0 {
			jx := (hash01(s.seed, uint64(frame), uint64(in.ID), 1) - 0.5) * 2 * s.noise.JitterFrac * box.Width()
			jy := (hash01(s.seed, uint64(frame), uint64(in.ID), 2) - 0.5) * 2 * s.noise.JitterFrac * box.Height()
			box = box.Translate(jx, jy)
		}
		score := s.noise.MinScore + (s.noise.MaxScore-s.noise.MinScore)*hash01(s.seed, uint64(frame), uint64(in.ID), 3)
		add(track.Detection{
			Frame:   frame,
			Class:   in.Class,
			Box:     box,
			Score:   score,
			TruthID: in.ID,
		})
	}
	// False positives: deterministic per frame.
	for k := 0; k < fpCount; k++ {
		// Placed within a 1920x1080 frame.
		x := hash01(s.seed, uint64(frame), 0xfacade, uint64(4+3*k)) * 1920 * 0.9
		y := hash01(s.seed, uint64(frame), 0xfacade, uint64(5+3*k)) * 1080 * 0.9
		size := 20 + hash01(s.seed, uint64(frame), 0xfacade, uint64(6+3*k))*60
		class := s.class
		if class == "" {
			class = "unknown"
		}
		add(track.Detection{
			Frame:   frame,
			Class:   class,
			Box:     geom.Rect(x, y, size, size),
			Score:   0.3 + 0.3*hash01(s.seed, uint64(frame), 0xfefe, uint64(k)),
			TruthID: -1,
		})
	}
	return dets
}

// fpCount returns the number of false positives in a frame (Bernoulli for
// rate <= 1, otherwise floor(rate) plus a Bernoulli remainder).
func (s *Sim) fpCount(frame int64) int {
	rate := s.noise.FalsePositiveRate
	n := int(rate)
	frac := rate - float64(n)
	if frac > 0 && hash01(s.seed, uint64(frame), 0xf00d, 0) < frac {
		n++
	}
	return n
}

// missProb returns the per-frame miss probability for an instance,
// including the edge boost near track endpoints.
func (s *Sim) missProb(in *track.Instance, frame int64) float64 {
	p := s.noise.MissProb
	dur := in.Duration()
	if dur > 1 && s.noise.EdgeMissBoost > 0 {
		edge := int64(math.Ceil(float64(dur) * 0.1))
		if frame < in.Start+edge || frame > in.End-edge {
			p += s.noise.EdgeMissBoost
		}
	}
	if p > 1 {
		p = 1
	}
	return p
}

// hash01 maps (seed, a, b, c) to a uniform value in [0, 1) using a
// splitmix64-style mix. It is the source of all detector nondeterminism,
// keeping outputs repeatable per frame.
func hash01(seed, a, b, c uint64) float64 {
	x := seed ^ (a * 0x9e3779b97f4a7c15) ^ (b * 0xbf58476d1ce4e5b9) ^ (c * 0x94d049bb133111eb)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
