package sim

import (
	"fmt"

	"github.com/exsample/exsample/internal/core"
	"github.com/exsample/exsample/internal/track"
	"github.com/exsample/exsample/internal/video"
	"github.com/exsample/exsample/internal/xrand"
)

// Method selects the sampling strategy for the §IV chunk simulation.
type Method int

const (
	// MethodExSample runs Algorithm 1 over M chunks.
	MethodExSample Method = iota
	// MethodRandom samples uniformly without replacement over the whole
	// repository (the paper's main baseline).
	MethodRandom
)

// ChunkSimConfig configures one §IV simulation run.
type ChunkSimConfig struct {
	// Instances is the ground-truth population (fixed intervals).
	Instances []track.Instance
	// NumFrames is the repository size.
	NumFrames int64
	// NumChunks is M (ExSample only; random ignores it).
	NumChunks int
	// Budget caps the number of frames sampled.
	Budget int64
	// Checkpoints are the sample counts, ascending and at most Budget, at
	// which the distinct-found count is recorded.
	Checkpoints []int64
	// Targets are the ascending distinct-found counts whose first sample
	// count is recorded.
	Targets []int64
	// Core configures the ExSample sampler (policy, prior, within-chunk
	// order); only used by MethodExSample.
	Core core.Config
	// Seed drives the run.
	Seed uint64
}

func (c ChunkSimConfig) validate() error {
	if len(c.Instances) == 0 {
		return fmt.Errorf("sim: no instances")
	}
	if c.NumFrames <= 0 {
		return fmt.Errorf("sim: NumFrames must be positive, got %d", c.NumFrames)
	}
	if c.Budget <= 0 {
		return fmt.Errorf("sim: Budget must be positive, got %d", c.Budget)
	}
	if c.Budget > c.NumFrames {
		return fmt.Errorf("sim: Budget %d exceeds NumFrames %d", c.Budget, c.NumFrames)
	}
	if len(c.Checkpoints) == 0 && len(c.Targets) == 0 {
		return fmt.Errorf("sim: no checkpoints or targets to record")
	}
	if err := ascending("checkpoints", c.Checkpoints); err != nil {
		return err
	}
	if n := len(c.Checkpoints); n > 0 && c.Checkpoints[n-1] > c.Budget {
		return fmt.Errorf("sim: checkpoint %d exceeds Budget %d", c.Checkpoints[n-1], c.Budget)
	}
	return ascending("targets", c.Targets)
}

func ascending(name string, xs []int64) error {
	prev := int64(0)
	for _, x := range xs {
		if x <= prev {
			return fmt.Errorf("sim: %s must be ascending and positive", name)
		}
		prev = x
	}
	return nil
}

// Trajectory is the result of one run.
type Trajectory struct {
	// Found[k] is the distinct count after Checkpoints[k] samples.
	Found []int64
	// Reached[k] is the first sample count at which Targets[k] distinct
	// instances had been found, 0 if the run never found that many.
	Reached []int64
	// Samples is the number of frames actually processed.
	Samples int64
}

// Run executes one simulated search in a single pass, recording the
// distinct count at every checkpoint and the sample count at which every
// target is reached. It stops at Budget, or as soon as every checkpoint is
// recorded and every target reached.
//
// The §IV simulations use a perfect detector and discriminator: sampling a
// frame reveals exactly the instances visible in it, and identity is known,
// so d0/d1 reduce to first/second sightings of instance IDs.
func Run(method Method, cfg ChunkSimConfig) (Trajectory, error) {
	if err := cfg.validate(); err != nil {
		return Trajectory{}, err
	}
	idx, err := track.NewIndex(cfg.Instances, cfg.NumFrames, 0)
	if err != nil {
		return Trajectory{}, err
	}

	// next proposes a frame; update reports its (d0, d1) back.
	var next func() (int64, bool)
	var update func(d0, d1 int) error
	switch method {
	case MethodExSample:
		m := cfg.NumChunks
		if m <= 0 {
			m = 1
		}
		chunks, err := video.SplitRange(0, cfg.NumFrames, m)
		if err != nil {
			return Trajectory{}, err
		}
		coreCfg := cfg.Core
		coreCfg.Seed = cfg.Seed
		s, err := core.New(chunks, coreCfg)
		if err != nil {
			return Trajectory{}, err
		}
		var chunk int
		next = func() (int64, bool) {
			p, ok := s.Next()
			chunk = p.Chunk
			return p.Frame, ok
		}
		update = func(d0, d1 int) error { return s.Update(chunk, d0, d1) }
	case MethodRandom:
		order, err := video.NewUniformOrder(0, cfg.NumFrames, xrand.New(cfg.Seed))
		if err != nil {
			return Trajectory{}, err
		}
		next = order.Next
		update = func(int, int) error { return nil }
	default:
		return Trajectory{}, fmt.Errorf("sim: unknown method %d", int(method))
	}

	tr := Trajectory{
		Found:   make([]int64, len(cfg.Checkpoints)),
		Reached: make([]int64, len(cfg.Targets)),
	}
	sightings := make(map[int]int, len(cfg.Instances))
	var found int64
	var buf []*track.Instance
	cp, tg := 0, 0
	for tr.Samples < cfg.Budget && (cp < len(cfg.Checkpoints) || tg < len(cfg.Targets)) {
		frame, ok := next()
		if !ok {
			return Trajectory{}, fmt.Errorf("sim: sampler exhausted after %d samples", tr.Samples)
		}
		var d0, d1 int
		buf = idx.At(frame, buf[:0])
		for _, in := range buf {
			s := sightings[in.ID]
			switch s {
			case 0:
				d0++
				found++
			case 1:
				d1++
			}
			sightings[in.ID] = s + 1
		}
		if err := update(d0, d1); err != nil {
			return Trajectory{}, err
		}
		tr.Samples++
		if cp < len(cfg.Checkpoints) && tr.Samples == cfg.Checkpoints[cp] {
			tr.Found[cp] = found
			cp++
		}
		for tg < len(cfg.Targets) && found >= cfg.Targets[tg] {
			tr.Reached[tg] = tr.Samples
			tg++
		}
	}
	return tr, nil
}
