package bench

import (
	"fmt"
	"io"

	"github.com/exsample/exsample/internal/metrics"
	"github.com/exsample/exsample/internal/opt"
	"github.com/exsample/exsample/internal/synth"
	"github.com/exsample/exsample/internal/video"

	exsample "github.com/exsample/exsample"
)

// Fig4Config parameterizes the §IV-C chunk-count sweep: fixed workload
// (skew 1/32, mean duration 700 — the third row/column cell of Figure 3),
// varying the number of chunks across orders of magnitude.
type Fig4Config struct {
	NumInstances int
	NumFrames    int64
	Skew         float64
	MeanDur      float64
	ChunkCounts  []int
	Trials       int
	Budget       int64
	// Checkpoints are the sample counts at which trajectories are recorded.
	Checkpoints []int64
	Seed        uint64
}

// DefaultFig4 mirrors the paper's sweep (1..1024 chunks) at reduced scale.
func DefaultFig4() Fig4Config {
	return Fig4Config{
		NumInstances: 2000,
		NumFrames:    2_000_000,
		Skew:         1.0 / 32,
		MeanDur:      700,
		ChunkCounts:  []int{1, 2, 16, 128, 1024},
		Trials:       7,
		Budget:       20_000,
		Checkpoints:  []int64{100, 300, 1000, 3000, 10_000, 20_000},
		Seed:         47,
	}
}

// Fig4Series is the trajectory for one chunk count.
type Fig4Series struct {
	NumChunks int
	// Found[k] is the median distinct count after Checkpoints[k] samples.
	Found []float64
	// Band[k] is the 25–75% band at each checkpoint.
	Bands []metrics.Band
	// Optimal[k] is the Eq. IV.1 expected count with per-n optimal static
	// weights (nil for the random series).
	Optimal []float64
}

// Fig4Result is the full sweep, including the random baseline as the
// 1-chunk degenerate case plus an explicit random series.
type Fig4Result struct {
	Config Fig4Config
	Series []Fig4Series
	Random Fig4Series
}

// RunFig4 executes the sweep.
func RunFig4(cfg Fig4Config) (*Fig4Result, error) {
	if cfg.Trials <= 0 || len(cfg.Checkpoints) == 0 {
		return nil, fmt.Errorf("bench: fig4 needs trials and checkpoints")
	}
	// The instances feed only the Eq. IV.1 curve; the trials search ds,
	// which Synthesize builds from the same spec.
	instances, err := synth.Generate(synth.GridSpec{
		NumInstances: cfg.NumInstances,
		NumFrames:    cfg.NumFrames,
		SkewFraction: cfg.Skew,
		MeanDuration: cfg.MeanDur,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	ds, err := exsample.Synthesize(exsample.SynthSpec{
		NumFrames:    cfg.NumFrames,
		NumInstances: cfg.NumInstances,
		MeanDuration: cfg.MeanDur,
		SkewFraction: cfg.Skew,
		Seed:         cfg.Seed,
	}, exsample.WithPerfectDetector())
	if err != nil {
		return nil, err
	}

	runSeries := func(strategy exsample.Strategy, numChunks int) (Fig4Series, error) {
		s := Fig4Series{NumChunks: numChunks}
		trialFound := make([][]float64, len(cfg.Checkpoints))
		for t := 0; t < cfg.Trials; t++ {
			rep, err := ds.Search(exsample.Query{Class: "object", RecallTarget: 1}, exsample.Options{
				Strategy:  strategy,
				NumChunks: numChunks,
				Seed:      cfg.Seed + uint64(t)*104729 + uint64(numChunks),
				MaxFrames: cfg.Budget,
			})
			if err != nil {
				return s, err
			}
			found, _ := readCurve(rep, cfg.Checkpoints, nil)
			for k, f := range found {
				trialFound[k] = append(trialFound[k], float64(f))
			}
		}
		for k := range cfg.Checkpoints {
			band, err := metrics.NewBand(trialFound[k])
			if err != nil {
				return s, err
			}
			s.Bands = append(s.Bands, band)
			s.Found = append(s.Found, band.Median)
		}
		return s, nil
	}

	res := &Fig4Result{Config: cfg}
	for _, m := range cfg.ChunkCounts {
		series, err := runSeries(exsample.StrategyExSample, m)
		if err != nil {
			return nil, fmt.Errorf("bench: fig4 chunks=%d: %w", m, err)
		}
		chunks, err := video.SplitRange(0, cfg.NumFrames, m)
		if err != nil {
			return nil, err
		}
		pr, err := opt.FromInstances(instances, chunks)
		if err != nil {
			return nil, err
		}
		if series.Optimal, err = pr.ExpectedCurve(cfg.Checkpoints, nil, true); err != nil {
			return nil, err
		}
		res.Series = append(res.Series, series)
	}
	random, err := runSeries(exsample.StrategyRandom, 1)
	if err != nil {
		return nil, err
	}
	res.Random = random
	return res, nil
}

// Render writes the Figure 4 series table.
func (r *Fig4Result) Render(w io.Writer) error {
	var err error
	writef(w, &err, "Figure 4 — effect of chunk count (skew %s, mean duration %.0f frames)\n",
		skewLabel(r.Config.Skew), r.Config.MeanDur)
	writef(w, &err, "%d instances, %d frames, %d trials; median distinct found\n\n",
		r.Config.NumInstances, r.Config.NumFrames, r.Config.Trials)
	writef(w, &err, "%12s", "samples")
	for _, s := range r.Series {
		writef(w, &err, " %9dch", s.NumChunks)
		if s.Optimal != nil {
			writef(w, &err, " %11s", "(optimal)")
		}
	}
	writef(w, &err, " %11s\n", "random")
	for k, cp := range r.Config.Checkpoints {
		writef(w, &err, "%12d", cp)
		for _, s := range r.Series {
			writef(w, &err, " %11.0f", s.Found[k])
			if s.Optimal != nil {
				writef(w, &err, " %11.0f", s.Optimal[k])
			}
		}
		writef(w, &err, " %11.0f\n", r.Random.Found[k])
	}
	writef(w, &err, "\n")
	return err
}
