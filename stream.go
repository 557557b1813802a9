package exsample

import (
	"fmt"
	"math"
	"sync"

	"github.com/exsample/exsample/internal/shard"
	"github.com/exsample/exsample/internal/track"
)

// StreamConfig parameterizes a live segment ring.
type StreamConfig struct {
	// Name identifies the stream source.
	Name string
	// Retention bounds how many appended segments stay resident: when an
	// append pushes the live count past Retention, the oldest segments are
	// evicted (their shards drain, exactly like DrainShard — no new picks,
	// in-flight work finishes). 0 keeps every segment forever.
	Retention int
	// MotionThreshold enables the motion-gate pre-filter: a segment whose
	// frame-diff energy (see SegmentInfo.Energy) falls below the threshold
	// is attached already fenced — its chunks never become sampler arms'
	// targets and the detector is never charged for its frames. 0 disables
	// the gate. Dead segments still occupy retention slots: they are
	// retained data, just not detector work.
	MotionThreshold float64
}

// gateStride is the frame stride of the motion gate's probe pass: the gate
// inspects every 16th frame, so its cost is a ~1/16 fraction of a full
// scan.
const gateStride = 16

func (c StreamConfig) withDefaults() StreamConfig {
	if c.Name == "" {
		c.Name = "stream"
	}
	return c
}

// Validate reports an error for out-of-range stream parameters.
func (c StreamConfig) Validate() error {
	if c.Retention < 0 {
		return fmt.Errorf("exsample: negative Retention %d", c.Retention)
	}
	if !(c.MotionThreshold >= 0) || math.IsInf(c.MotionThreshold, 1) {
		return fmt.Errorf("exsample: negative MotionThreshold %v", c.MotionThreshold)
	}
	return nil
}

// SegmentInfo describes one segment's place in the ring.
type SegmentInfo struct {
	// Slot is the segment's shard index in append order (global addresses
	// never move, so slots are stable for the stream's lifetime).
	Slot int
	// NumFrames is the segment length.
	NumFrames int64
	// Energy is the motion-gate energy measured at append time: the mean
	// per-probe activity over every 16th frame, in [0, 1]. Frames
	// with moving objects probe at 1; empty frames contribute only a small
	// deterministic sensor-flicker noise floor.
	Energy float64
	// Gated reports whether the motion gate fenced the segment at append.
	Gated bool
	// Evicted reports whether retention has drained the segment.
	Evicted bool
}

// StreamStats summarizes the ring's lifetime counters.
type StreamStats struct {
	// Appended, Evicted and Gated count segments over the stream's
	// lifetime; Live is the resident count (Appended - Evicted), gated
	// segments included.
	Appended, Evicted, Gated, Live int
	// Generation is the underlying topology generation (1 at construction;
	// every append, gate flip and eviction increments it).
	Generation uint64
	// GateSeconds is the total charged cost of the motion-gate probe
	// passes — the price of never running the detector on dead segments.
	GateSeconds float64
}

// StreamSource is a Source whose frame space grows while queries run: a
// bounded ring of fixed-duration segments fed by a live camera. Append
// attaches a segment as one new shard of an elastic composed repository —
// running queries pick its chunks up at their next round boundary — and
// retention evicts the oldest segments by draining their shards, so the
// detector-facing working set stays bounded while every address ever
// handed out stays valid.
//
// Two things distinguish a StreamSource from the ShardedSource it wraps.
// First, the motion gate: a cheap frame-diff probe pass at append time
// (charged as GateSeconds) classifies each segment, and a dead segment is
// attached already fenced — Thompson samplers never draw its chunks and
// the detector is never charged for it. Second, standing queries: Engine.
// SubmitStanding registers a query that parks when the ring is drained and
// wakes on the next live append, emitting incremental QueryEvents
// indefinitely instead of terminating at budget exhaustion.
//
// StreamSource is safe for concurrent use; Append may race any number of
// running queries.
type StreamSource struct {
	cfg   StreamConfig
	inner *ShardedSource
	qs    *querySource

	// mu serializes Append/eviction bookkeeping; queries never take it.
	mu          sync.Mutex
	segs        []SegmentInfo
	head        int // oldest live slot
	evicted     int
	gatedTotal  int
	gateSeconds float64
	// probe is the reused gate probe buffer.
	probe []*track.Instance
}

// NewStreamSource opens a live segment ring primed with one or more initial
// segments (a stream needs at least one segment to define its recording
// rate and classes). The motion gate and retention policy apply to the
// initial segments exactly as to appended ones.
func NewStreamSource(cfg StreamConfig, first ...*Dataset) (*StreamSource, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if len(first) == 0 {
		return nil, fmt.Errorf("exsample: stream needs at least one initial segment")
	}
	for i, d := range first {
		if d == nil {
			return nil, fmt.Errorf("exsample: initial segment %d is nil", i)
		}
	}
	inner, err := NewShardedSource(cfg.Name, first...)
	if err != nil {
		return nil, err
	}
	s := &StreamSource{cfg: cfg, inner: inner}
	// The stream shares the composed repository's plumbing but relaxes the
	// ground-truth lookup: a standing query's class may have no instances
	// yet (or ever), so an unknown class is an empty population, not an
	// error. The strict lookup stays available via GroundTruthCount.
	qs := *inner.qs
	qs.groundTruth = func(class string) (int, error) {
		n, err := inner.GroundTruthCount(class)
		if err != nil {
			return 0, nil
		}
		return n, nil
	}
	s.qs = &qs
	// Gate the initial segments before any query can exist, then apply
	// retention in append order.
	for slot, d := range first {
		info := s.classify(slot, d)
		if info.Gated {
			if err := inner.setShardStatus(slot, shard.Gated); err != nil {
				return nil, err
			}
		}
		s.segs = append(s.segs, info)
	}
	if err := s.evictOverflow(); err != nil {
		return nil, err
	}
	return s, nil
}

// classify runs the motion-gate probe pass over a segment and fills in its
// SegmentInfo. Callers hold s.mu (or are single-threaded construction).
func (s *StreamSource) classify(slot int, d *Dataset) SegmentInfo {
	info := SegmentInfo{Slot: slot, NumFrames: d.NumFrames()}
	if s.cfg.MotionThreshold <= 0 {
		return info
	}
	var energy float64
	probes := 0
	for f := int64(0); f < info.NumFrames; f += gateStride {
		s.probe = d.inner.Index.At(f, s.probe[:0])
		if len(s.probe) > 0 {
			energy += 1
		} else {
			energy += flicker(f)
		}
		probes++
	}
	if probes > 0 {
		info.Energy = energy / float64(probes)
	}
	// The probe pass is charged at the segment's own scan rate — the gate
	// is a strided scan, and its whole point is costing ~1/gateStride of
	// one.
	s.gateSeconds += d.cost.ScanSeconds(int64(probes))
	info.Gated = info.Energy < s.cfg.MotionThreshold
	if info.Gated {
		s.gatedTotal++
	}
	return info
}

// flicker is the gate's deterministic per-frame sensor-noise floor for
// frames with no moving objects: a splitmix64 hash of the frame index
// scaled into [0, 0.08). Determinism matters — the gate verdict must be a
// pure function of the segment, or replaying an ingest schedule would not
// reproduce the same fence pattern (and therefore the same alerts).
func flicker(frame int64) float64 {
	x := uint64(frame)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53) * 0.08
}

// Append attaches one camera segment to the ring and returns its
// SegmentInfo. The segment is gated first and attached atomically in its
// final state, so a dead segment is never samplable — not even for the
// instant between attach and fence. A live append wakes parked standing
// queries; retention then evicts the oldest segments past the configured
// bound. Append is safe to call while queries run.
func (s *StreamSource) Append(d *Dataset) (SegmentInfo, error) {
	if d == nil {
		return SegmentInfo{}, fmt.Errorf("exsample: cannot append a nil segment")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	info := s.classify(len(s.segs), d)
	st := shard.Active
	if info.Gated {
		st = shard.Gated
	}
	slot, err := s.inner.addShardStatus(d, st)
	if err != nil {
		// The classification charged gate time for a segment that never
		// joined; keep the charge — the probe pass really ran.
		return SegmentInfo{}, err
	}
	if slot != info.Slot {
		// Unreachable while the stream owns its inner source; fail loudly
		// rather than corrupting slot bookkeeping.
		return SegmentInfo{}, fmt.Errorf("exsample: stream slot skew (attached %d, expected %d)", slot, info.Slot)
	}
	s.segs = append(s.segs, info)
	if err := s.evictOverflow(); err != nil {
		return SegmentInfo{}, err
	}
	return info, nil
}

// evictOverflow drains the oldest live segments until the resident count
// fits the retention bound. Callers hold s.mu.
func (s *StreamSource) evictOverflow() error {
	if s.cfg.Retention <= 0 {
		return nil
	}
	for len(s.segs)-s.evicted > s.cfg.Retention {
		if err := s.inner.DrainShard(s.head); err != nil {
			return err
		}
		s.segs[s.head].Evicted = true
		s.head++
		s.evicted++
	}
	return nil
}

// Segments returns a copy of every segment's ring state, in append order.
func (s *StreamSource) Segments() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SegmentInfo, len(s.segs))
	copy(out, s.segs)
	return out
}

// StreamStats snapshots the ring's lifetime counters.
func (s *StreamSource) StreamStats() StreamStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StreamStats{
		Appended:    len(s.segs),
		Evicted:     s.evicted,
		Gated:       s.gatedTotal,
		Live:        len(s.segs) - s.evicted,
		Generation:  s.inner.Generation(),
		GateSeconds: s.gateSeconds,
	}
}

// Name returns the stream's name.
func (s *StreamSource) Name() string { return s.inner.Name() }

// NumFrames returns the total frame count ever appended (evicted segments'
// frames stay addressable; addresses never move).
func (s *StreamSource) NumFrames() int64 { return s.inner.NumFrames() }

// NumChunks returns the total native chunk count across segments.
func (s *StreamSource) NumChunks() int { return s.inner.NumChunks() }

// NumShards returns the number of segments ever attached.
func (s *StreamSource) NumShards() int { return s.inner.NumShards() }

// NumActiveShards returns how many segments currently accept new picks
// (live, not gated).
func (s *StreamSource) NumActiveShards() int { return s.inner.NumActiveShards() }

// Generation returns the ring's topology generation.
func (s *StreamSource) Generation() uint64 { return s.inner.Generation() }

// Hours returns the appended video length in hours.
func (s *StreamSource) Hours() float64 { return s.inner.Hours() }

// Classes lists the union of the segments' searchable classes, sorted.
func (s *StreamSource) Classes() []string { return s.inner.Classes() }

// GroundTruthCount returns the summed distinct-instance population of a
// class across attached segments. Unlike the query pipeline's internal
// lookup — which treats a class the stream has not seen yet as an empty
// population — this reports an unknown class as an error.
func (s *StreamSource) GroundTruthCount(class string) (int, error) {
	return s.inner.GroundTruthCount(class)
}

// ShardStats snapshots per-segment detector traffic and lifecycle state.
// A gated segment's DetectCalls staying at zero is the motion gate's whole
// value proposition, and what the acceptance tests assert.
func (s *StreamSource) ShardStats() []ShardStat { return s.inner.ShardStats() }

// onAppend forwards the wake-on-append subscription to the composed
// repository — the seam SubmitStanding uses.
func (s *StreamSource) onAppend(fn func()) (cancel func()) { return s.inner.onAppend(fn) }

// querySource implements Source.
func (s *StreamSource) querySource() *querySource {
	if s == nil {
		return nil
	}
	return s.qs
}
