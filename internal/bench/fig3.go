package bench

import (
	"fmt"
	"io"

	"github.com/exsample/exsample/internal/metrics"
	"github.com/exsample/exsample/internal/stats"

	exsample "github.com/exsample/exsample"
)

// Fig3Config parameterizes the §IV-B simulation grid. The paper fixes
// N=2000 instances over 16M frames, 128 chunks, 21 trials, skew columns
// {none, 1/4, 1/32, 1/256} and mean-duration rows {14, 100, 700, 4900},
// and labels the savings in samples to reach 10, 100 and 1000 results.
type Fig3Config struct {
	NumInstances int
	NumFrames    int64
	NumChunks    int
	Trials       int
	Budget       int64
	Skews        []float64 // 0 = none
	MeanDurs     []float64
	Targets      []int64 // ascending savings labels (paper: 10, 100, 1000)
	Seed         uint64
}

// DefaultFig3 returns the paper's grid at reduced scale: frames and budget
// shrink together so densities (and hence savings shapes) are preserved.
// It runs in 33–38 s on a 2-core machine. In its densest cell (mean
// duration 4900, skew 1/256) ~1 200 objects are visible per frame, and
// each frame costs the discriminator detections × visible tracks box
// compares.
func DefaultFig3() Fig3Config {
	return Fig3Config{
		NumInstances: 2000,
		NumFrames:    2_000_000,
		NumChunks:    128,
		Trials:       7,
		Budget:       20_000,
		Skews:        []float64{0, 0.25, 1.0 / 32, 1.0 / 256},
		MeanDurs:     []float64{14, 100, 700, 4900},
		Targets:      []int64{10, 100, 1000},
		Seed:         31,
	}
}

// PaperFig3 is the full-size grid (16M frames, 21 trials) — hours of CPU.
func PaperFig3() Fig3Config {
	cfg := DefaultFig3()
	cfg.NumFrames = 16_000_000
	cfg.Trials = 21
	cfg.Budget = 100_000
	return cfg
}

// Fig3Cell is one (skew, duration) grid cell.
type Fig3Cell struct {
	Skew    float64
	MeanDur float64
	// SavingsAt[k] is median(random samples)/median(exsample samples) to
	// reach Targets[k]; 0 when a target was unreachable for either method.
	SavingsAt []float64
	// ExSampleFound/RandomFound are median distinct counts at Budget.
	ExSampleFound, RandomFound float64
	// ExSampleBand/RandomBand are the 25–75% bands at Budget.
	ExSampleBand, RandomBand metrics.Band
}

// Fig3Result is the full grid.
type Fig3Result struct {
	Config Fig3Config
	Cells  []Fig3Cell
}

// RunFig3 executes the grid.
func RunFig3(cfg Fig3Config) (*Fig3Result, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("bench: fig3 needs trials > 0")
	}
	res := &Fig3Result{Config: cfg}
	cellSeed := cfg.Seed
	for _, dur := range cfg.MeanDurs {
		for _, skew := range cfg.Skews {
			cellSeed += 101
			cell, err := runFig3Cell(cfg, skew, dur, cellSeed)
			if err != nil {
				return nil, fmt.Errorf("bench: fig3 cell skew=%v dur=%v: %w", skew, dur, err)
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

func runFig3Cell(cfg Fig3Config, skew, dur float64, seed uint64) (Fig3Cell, error) {
	cell := Fig3Cell{Skew: skew, MeanDur: dur}
	ds, err := exsample.Synthesize(exsample.SynthSpec{
		NumFrames:    cfg.NumFrames,
		NumInstances: cfg.NumInstances,
		MeanDuration: dur,
		SkewFraction: skew,
		Seed:         seed,
	}, exsample.WithPerfectDetector())
	if err != nil {
		return cell, err
	}

	// One search per trial gives the distinct count at Budget (found) and
	// the samples to reach each target (reached, -1 = missed).
	type trial struct{ found, reached []int64 }
	runMethod := func(strategy exsample.Strategy) ([]trial, error) {
		outs := make([]trial, cfg.Trials)
		for t := range outs {
			rep, err := ds.Search(exsample.Query{Class: "object", RecallTarget: 1}, exsample.Options{
				Strategy:  strategy,
				NumChunks: cfg.NumChunks,
				Seed:      seed + uint64(t)*7919,
				MaxFrames: cfg.Budget,
			})
			if err != nil {
				return nil, err
			}
			outs[t].found, outs[t].reached = readCurve(rep, []int64{cfg.Budget}, cfg.Targets)
		}
		return outs, nil
	}

	exOuts, err := runMethod(exsample.StrategyExSample)
	if err != nil {
		return cell, err
	}
	rndOuts, err := runMethod(exsample.StrategyRandom)
	if err != nil {
		return cell, err
	}

	// Medians of found-at-budget plus bands.
	collect := func(outs []trial) []float64 {
		vals := make([]float64, len(outs))
		for i, o := range outs {
			vals[i] = float64(o.found[0])
		}
		return vals
	}
	if cell.ExSampleBand, err = metrics.NewBand(collect(exOuts)); err != nil {
		return cell, err
	}
	if cell.RandomBand, err = metrics.NewBand(collect(rndOuts)); err != nil {
		return cell, err
	}
	cell.ExSampleFound = cell.ExSampleBand.Median
	cell.RandomFound = cell.RandomBand.Median

	// Savings per target from median samples-to-target across trials that
	// reached it (both methods must have a majority of reaching trials).
	cell.SavingsAt = make([]float64, len(cfg.Targets))
	for k := range cfg.Targets {
		med := func(outs []trial) (float64, bool) {
			var vals []float64
			for _, o := range outs {
				if n := o.reached[k]; n > 0 {
					vals = append(vals, float64(n))
				}
			}
			if len(vals)*2 <= len(outs) {
				return 0, false
			}
			m, err := stats.Median(vals)
			return m, err == nil
		}
		ex, okEx := med(exOuts)
		rnd, okRnd := med(rndOuts)
		if okEx && okRnd && ex > 0 {
			cell.SavingsAt[k] = rnd / ex
		}
	}

	return cell, nil
}

// Render writes the Figure 3 grid as savings tables.
func (r *Fig3Result) Render(w io.Writer) error {
	var err error
	writef(w, &err, "Figure 3 — simulated savings of ExSample over random\n")
	writef(w, &err, "%d instances, %d frames, %d chunks, %d trials, budget %d samples\n\n",
		r.Config.NumInstances, r.Config.NumFrames, r.Config.NumChunks, r.Config.Trials, r.Config.Budget)
	for ti, target := range r.Config.Targets {
		writef(w, &err, "savings in samples to reach %d results (rows: mean duration; cols: skew)\n", target)
		writef(w, &err, "%10s", "dur\\skew")
		for _, s := range r.Config.Skews {
			writef(w, &err, " %10s", skewLabel(s))
		}
		writef(w, &err, "\n")
		for _, dur := range r.Config.MeanDurs {
			writef(w, &err, "%10.0f", dur)
			for _, s := range r.Config.Skews {
				cell := r.cell(s, dur)
				if cell == nil {
					writef(w, &err, " %10s", "-")
					continue
				}
				writef(w, &err, " %10s", fmtRatio(cell.SavingsAt[ti]))
			}
			writef(w, &err, "\n")
		}
		writef(w, &err, "\n")
	}
	writef(w, &err, "median distinct found at budget (exsample / random)\n")
	for _, dur := range r.Config.MeanDurs {
		writef(w, &err, "%10.0f", dur)
		for _, s := range r.Config.Skews {
			cell := r.cell(s, dur)
			writef(w, &err, " %6.0f/%-6.0f", cell.ExSampleFound, cell.RandomFound)
		}
		writef(w, &err, "\n")
	}
	writef(w, &err, "\n")
	return err
}

func (r *Fig3Result) cell(skew, dur float64) *Fig3Cell {
	for i := range r.Cells {
		if r.Cells[i].Skew == skew && r.Cells[i].MeanDur == dur {
			return &r.Cells[i]
		}
	}
	return nil
}

func skewLabel(s float64) string {
	if s == 0 {
		return "none"
	}
	return fmt.Sprintf("1/%.0f", 1/s)
}
