package bench

import (
	"fmt"
	"io"

	"github.com/exsample/exsample/internal/core"
	"github.com/exsample/exsample/internal/lab"
	"github.com/exsample/exsample/internal/stats"

	exsample "github.com/exsample/exsample"
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

	run := func(variant string, opts exsample.Options) (AblationRow, error) {
		row := AblationRow{Variant: variant}
		opts.NumChunks = cfg.NumChunks
		opts.MaxFrames = cfg.Budget
		var vals []float64
		for t := 0; t < cfg.Trials; t++ {
			opts.Seed = cfg.Seed + uint64(t)*31337
			rep, err := ds.Search(exsample.Query{Class: "object", Limit: int(cfg.Target)}, opts)
			if err != nil {
				return row, err
			}
			if _, reached := readCurve(rep, nil, []int64{cfg.Target}); reached[0] > 0 {
				row.Reached++
				vals = append(vals, float64(reached[0]))
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
	// sampler runs ExSample with a decision policy and within-chunk order
	// that Options keeps unexported.
	sampler := func(policy core.Policy, within core.WithinChunk, alpha0 float64) exsample.Options {
		opts := exsample.Options{Alpha0: alpha0}
		return lab.WithSampler(opts, lab.Sampler{Policy: policy, Within: within}).(exsample.Options)
	}

	res := &AblationResult{Config: cfg}
	type variant struct {
		name string
		opts exsample.Options
	}
	variants := []variant{
		{"thompson/random+ (paper)", sampler(core.Thompson, core.WithinRandomPlus, 0)},
		{"bayes-ucb/random+", sampler(core.BayesUCB, core.WithinRandomPlus, 0)},
		{"greedy/random+", sampler(core.Greedy, core.WithinRandomPlus, 0)},
		{"thompson/uniform-within", sampler(core.Thompson, core.WithinUniform, 0)},
	}
	for _, a0 := range cfg.Alpha0Values {
		variants = append(variants, variant{fmt.Sprintf("thompson alpha0=%g", a0), sampler(core.Thompson, core.WithinRandomPlus, a0)})
	}
	variants = append(variants, variant{"random (reference)", exsample.Options{Strategy: exsample.StrategyRandom}})
	for _, v := range variants {
		row, err := run(v.name, v.opts)
		if err != nil {
			return nil, fmt.Errorf("bench: ablation %s: %w", v.name, err)
		}
		res.Rows = append(res.Rows, row)
	}
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
