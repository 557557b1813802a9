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
	// MethodRandomPlus uses the stratified random+ order globally (§III-F).
	MethodRandomPlus
	// MethodSequential scans frames in order (the naive baseline, §II-B).
	MethodSequential
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case MethodExSample:
		return "exsample"
	case MethodRandom:
		return "random"
	case MethodRandomPlus:
		return "random+"
	case MethodSequential:
		return "sequential"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// ChunkSimConfig configures one §IV simulation run.
type ChunkSimConfig struct {
	// Instances is the ground-truth population (fixed intervals).
	Instances []track.Instance
	// NumFrames is the repository size.
	NumFrames int64
	// NumChunks is M (ExSample only; other methods ignore it).
	NumChunks int
	// Budget caps the number of frames sampled.
	Budget int64
	// Checkpoints are the sample counts at which the distinct-found count
	// is recorded; must be ascending. Empty means record only at Budget.
	Checkpoints []int64
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
	prev := int64(0)
	for _, cp := range c.Checkpoints {
		if cp <= prev {
			return fmt.Errorf("sim: checkpoints must be ascending and positive")
		}
		prev = cp
	}
	return nil
}

// Trajectory is the result of one run: Found[k] distinct instances had been
// found after Checkpoints[k] samples. SamplesToFind[target] records when
// each requested target count was first reached (0 if never).
type Trajectory struct {
	Checkpoints []int64
	Found       []int64
	// FoundAtEnd is the distinct count when the budget was exhausted.
	FoundAtEnd int64
	// Samples is the number of frames actually processed.
	Samples int64
}

// Run executes one simulated search and records the discovery trajectory.
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
	checkpoints := cfg.Checkpoints
	if len(checkpoints) == 0 {
		checkpoints = []int64{cfg.Budget}
	}
	tr := Trajectory{
		Checkpoints: checkpoints,
		Found:       make([]int64, len(checkpoints)),
	}

	sightings := make(map[int]int, len(cfg.Instances))
	var found int64
	var buf []*track.Instance

	// observe processes one frame and returns the (d0, d1) sizes.
	observe := func(frame int64) (d0, d1 int) {
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
		return d0, d1
	}

	cpIdx := 0
	record := func(n int64) {
		for cpIdx < len(checkpoints) && n >= checkpoints[cpIdx] {
			tr.Found[cpIdx] = found
			cpIdx++
		}
	}

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
		for tr.Samples < cfg.Budget {
			p, ok := s.Next()
			if !ok {
				break
			}
			d0, d1 := observe(p.Frame)
			if err := s.Update(p.Chunk, d0, d1); err != nil {
				return Trajectory{}, err
			}
			tr.Samples++
			record(tr.Samples)
		}

	case MethodRandom, MethodRandomPlus, MethodSequential:
		var order video.FrameOrder
		var err error
		switch method {
		case MethodRandom:
			order, err = video.NewUniformOrder(0, cfg.NumFrames, xrand.New(cfg.Seed))
		case MethodRandomPlus:
			order, err = video.NewRandomPlusOrder(0, cfg.NumFrames, 0, xrand.New(cfg.Seed))
		default:
			order, err = video.NewSequentialOrder(0, cfg.NumFrames, 1)
		}
		if err != nil {
			return Trajectory{}, err
		}
		for tr.Samples < cfg.Budget {
			frame, ok := order.Next()
			if !ok {
				break
			}
			observe(frame)
			tr.Samples++
			record(tr.Samples)
		}

	default:
		return Trajectory{}, fmt.Errorf("sim: unknown method %d", int(method))
	}

	record(cfg.Budget)
	tr.FoundAtEnd = found
	return tr, nil
}

// SamplesToReach runs a search until `target` distinct instances are found
// and returns the number of samples needed, or (budget, false) if the target
// was not reached within the budget.
func SamplesToReach(method Method, cfg ChunkSimConfig, target int64) (int64, bool, error) {
	if err := cfg.validate(); err != nil {
		return 0, false, err
	}
	if target <= 0 {
		return 0, false, fmt.Errorf("sim: target must be positive, got %d", target)
	}
	idx, err := track.NewIndex(cfg.Instances, cfg.NumFrames, 0)
	if err != nil {
		return 0, false, err
	}
	sightings := make(map[int]int)
	var found, samples int64
	var buf []*track.Instance

	step := func(frame int64) (d0, d1 int, done bool) {
		samples++
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
		return d0, d1, found >= target
	}

	switch method {
	case MethodExSample:
		m := cfg.NumChunks
		if m <= 0 {
			m = 1
		}
		chunks, err := video.SplitRange(0, cfg.NumFrames, m)
		if err != nil {
			return 0, false, err
		}
		coreCfg := cfg.Core
		coreCfg.Seed = cfg.Seed
		s, err := core.New(chunks, coreCfg)
		if err != nil {
			return 0, false, err
		}
		for samples < cfg.Budget {
			p, ok := s.Next()
			if !ok {
				break
			}
			d0, d1, done := step(p.Frame)
			if err := s.Update(p.Chunk, d0, d1); err != nil {
				return 0, false, err
			}
			if done {
				return samples, true, nil
			}
		}
	case MethodRandom, MethodRandomPlus, MethodSequential:
		var order video.FrameOrder
		var err error
		switch method {
		case MethodRandom:
			order, err = video.NewUniformOrder(0, cfg.NumFrames, xrand.New(cfg.Seed))
		case MethodRandomPlus:
			order, err = video.NewRandomPlusOrder(0, cfg.NumFrames, 0, xrand.New(cfg.Seed))
		default:
			order, err = video.NewSequentialOrder(0, cfg.NumFrames, 1)
		}
		if err != nil {
			return 0, false, err
		}
		for samples < cfg.Budget {
			frame, ok := order.Next()
			if !ok {
				break
			}
			if _, _, done := step(frame); done {
				return samples, true, nil
			}
		}
	default:
		return 0, false, fmt.Errorf("sim: unknown method %d", int(method))
	}
	return cfg.Budget, false, nil
}
