package bench

import (
	"fmt"
	"io"

	"github.com/exsample/exsample/internal/core"
	"github.com/exsample/exsample/internal/sim"
	"github.com/exsample/exsample/internal/stats"
	"github.com/exsample/exsample/internal/synth"
)

// AblationConfig parameterizes the design-choice ablations: decision policy
// (Thompson vs Bayes-UCB vs greedy), within-chunk order (random+ vs
// uniform), and prior strength (α0). Each variant runs the same
// skewed workload; the metric is median samples to reach a target count.
type AblationConfig struct {
	NumInstances int
	NumFrames    int64
	NumChunks    int
	Skew         float64
	MeanDur      float64
	Target       int64
	Budget       int64
	Trials       int
	Alpha0Values []float64
	Seed         uint64
}

// DefaultAblation uses the Fig. 3 (1/32, 700) cell at reduced scale.
func DefaultAblation() AblationConfig {
	return AblationConfig{
		NumInstances: 2000,
		NumFrames:    2_000_000,
		NumChunks:    128,
		Skew:         1.0 / 32,
		MeanDur:      700,
		Target:       500,
		Budget:       20_000,
		Trials:       5,
		Alpha0Values: []float64{0.01, 0.1, 1, 10},
		Seed:         67,
	}
}

// AblationRow is one variant's outcome.
type AblationRow struct {
	Variant string
	// MedianSamples to reach Target (0 = missed in a majority of trials).
	MedianSamples float64
	// Reached counts trials that reached the target.
	Reached int
}

// AblationResult holds all variants.
type AblationResult struct {
	Config AblationConfig
	Rows   []AblationRow
}

// RunAblation executes all variants.
func RunAblation(cfg AblationConfig) (*AblationResult, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("bench: ablation needs trials")
	}
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

	run := func(variant string, method sim.Method, coreCfg core.Config) (AblationRow, error) {
		row := AblationRow{Variant: variant}
		var vals []float64
		for t := 0; t < cfg.Trials; t++ {
			tr, err := sim.Run(method, sim.ChunkSimConfig{
				Instances: instances,
				NumFrames: cfg.NumFrames,
				NumChunks: cfg.NumChunks,
				Budget:    cfg.Budget,
				Targets:   []int64{cfg.Target},
				Core:      coreCfg,
				Seed:      cfg.Seed + uint64(t)*31337,
			})
			if err != nil {
				return row, err
			}
			if n := tr.Reached[0]; n > 0 {
				row.Reached++
				vals = append(vals, float64(n))
			}
		}
		if row.Reached*2 > cfg.Trials {
			m, err := stats.Median(vals)
			if err != nil {
				return row, err
			}
			row.MedianSamples = m
		}
		return row, nil
	}

	res := &AblationResult{Config: cfg}
	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"thompson/random+ (paper)", core.Config{Policy: core.Thompson, Within: core.WithinRandomPlus}},
		{"bayes-ucb/random+", core.Config{Policy: core.BayesUCB, Within: core.WithinRandomPlus}},
		{"greedy/random+", core.Config{Policy: core.Greedy, Within: core.WithinRandomPlus}},
		{"thompson/uniform-within", core.Config{Policy: core.Thompson, Within: core.WithinUniform}},
	}
	for _, v := range variants {
		row, err := run(v.name, sim.MethodExSample, v.cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: ablation %s: %w", v.name, err)
		}
		res.Rows = append(res.Rows, row)
	}
	for _, a0 := range cfg.Alpha0Values {
		row, err := run(fmt.Sprintf("thompson alpha0=%g", a0), sim.MethodExSample,
			core.Config{Policy: core.Thompson, Within: core.WithinRandomPlus, Alpha0: a0})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	rndRow, err := run("random (reference)", sim.MethodRandom, core.Config{})
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, rndRow)
	return res, nil
}

// Render writes the ablation table.
func (r *AblationResult) Render(w io.Writer) error {
	var err error
	writef(w, &err, "Ablations — median samples to %d results (skew %s, duration %.0f, %d chunks, %d trials)\n",
		r.Config.Target, skewLabel(r.Config.Skew), r.Config.MeanDur, r.Config.NumChunks, r.Config.Trials)
	for _, row := range r.Rows {
		if row.MedianSamples > 0 {
			writef(w, &err, "%-28s %10.0f samples  (reached %d/%d)\n",
				row.Variant, row.MedianSamples, row.Reached, r.Config.Trials)
		} else {
			writef(w, &err, "%-28s %10s          (reached %d/%d)\n",
				row.Variant, "-", row.Reached, r.Config.Trials)
		}
	}
	writef(w, &err, "\n")
	return err
}
