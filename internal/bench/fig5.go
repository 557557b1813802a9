package bench

import (
	"fmt"
	"io"
	"sort"

	"github.com/exsample/exsample/internal/datasets"
	"github.com/exsample/exsample/internal/stats"

	exsample "github.com/exsample/exsample"
)

// Fig5Config parameterizes the savings-per-query experiment: for every
// dataset × class, the ratio of random sampling's time to ExSample's time to
// reach each recall level (the paper reports a 1.9x geometric mean, up to
// ~6x best case, ~0.75x worst case). Seed builds the datasets, and with
// them the detector's noise, which is therefore fixed per dataset; trial t
// varies the sampler's and the random order's seed (Seed + 6151·t).
type Fig5Config struct {
	Scale    float64
	Recalls  []float64
	Trials   int
	Profiles []string // nil = all six
	Seed     uint64
}

// DefaultFig5 runs all 43 queries at 5% scale with 3 trials.
func DefaultFig5() Fig5Config {
	return Fig5Config{Scale: 0.05, Recalls: []float64{0.1, 0.5, 0.9}, Trials: 3, Seed: 17}
}

// Fig5Row is one query's savings at each recall level.
type Fig5Row struct {
	Dataset string
	Class   string
	// Savings[k] is median(random seconds)/median(exsample seconds) to
	// reach Recalls[k]; 0 when either method missed the level.
	Savings []float64
}

// Fig5Result aggregates all queries.
type Fig5Result struct {
	Config Fig5Config
	Rows   []Fig5Row
	// GeoMean[k] is the geometric mean of non-zero savings at Recalls[k].
	GeoMean []float64
	// OverallGeoMean pools every (query, recall) savings ratio, the paper's
	// headline 1.9x.
	OverallGeoMean float64
	// Max and Min are the extreme pooled ratios.
	Max, Min float64
}

// RunFig5 executes the experiment.
func RunFig5(cfg Fig5Config) (*Fig5Result, error) {
	if !(cfg.Scale > 0 && cfg.Scale <= 1) {
		return nil, fmt.Errorf("bench: fig5 scale %v outside (0,1]", cfg.Scale)
	}
	if cfg.Trials <= 0 || len(cfg.Recalls) == 0 {
		return nil, fmt.Errorf("bench: fig5 needs trials and recall levels")
	}
	want := make(map[string]bool)
	for _, p := range cfg.Profiles {
		want[p] = true
	}
	res := &Fig5Result{Config: cfg}
	for _, p := range datasets.Profiles() {
		if len(want) > 0 && !want[p.Name] {
			continue
		}
		ds, err := exsample.OpenProfile(p.Name, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("bench: fig5 %s: %w", p.Name, err)
		}
		for _, q := range p.Queries {
			row, err := runFig5Query(ds, q.Class, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: fig5 %s/%s: %w", p.Name, q.Class, err)
			}
			row.Dataset = p.Name
			res.Rows = append(res.Rows, row)
		}
	}
	res.finishAggregates()
	return res, nil
}

func (r *Fig5Result) finishAggregates() {
	r.GeoMean = make([]float64, len(r.Config.Recalls))
	var pooled []float64
	for k := range r.Config.Recalls {
		var vals []float64
		for _, row := range r.Rows {
			if row.Savings[k] > 0 {
				vals = append(vals, row.Savings[k])
			}
		}
		if g, err := stats.GeoMean(vals); err == nil {
			r.GeoMean[k] = g
		}
		pooled = append(pooled, vals...)
	}
	if g, err := stats.GeoMean(pooled); err == nil {
		r.OverallGeoMean = g
	}
	if len(pooled) > 0 {
		sort.Float64s(pooled)
		r.Min = pooled[0]
		r.Max = pooled[len(pooled)-1]
	}
}

func runFig5Query(ds *exsample.Dataset, class string, cfg Fig5Config) (Fig5Row, error) {
	row := Fig5Row{Class: class, Savings: make([]float64, len(cfg.Recalls))}
	exAt := make([][]float64, len(cfg.Recalls))
	rndAt := make([][]float64, len(cfg.Recalls))
	for t := 0; t < cfg.Trials; t++ {
		seed := cfg.Seed + uint64(t)*6151
		ex, _, err := samplesToRecalls(ds, class, cfg.Recalls,
			exsample.Options{Strategy: exsample.StrategyExSample, Seed: seed})
		if err != nil {
			return row, err
		}
		rnd, _, err := samplesToRecalls(ds, class, cfg.Recalls,
			exsample.Options{Strategy: exsample.StrategyRandom, Seed: seed})
		if err != nil {
			return row, err
		}
		for k := range cfg.Recalls {
			if ex[k] > 0 {
				exAt[k] = append(exAt[k], float64(ex[k]))
			}
			if rnd[k] > 0 {
				rndAt[k] = append(rndAt[k], float64(rnd[k]))
			}
		}
	}
	for k := range cfg.Recalls {
		if len(exAt[k])*2 <= cfg.Trials || len(rndAt[k])*2 <= cfg.Trials {
			continue
		}
		exMed, err := stats.Median(exAt[k])
		if err != nil {
			return row, err
		}
		rndMed, err := stats.Median(rndAt[k])
		if err != nil {
			return row, err
		}
		if exMed > 0 {
			row.Savings[k] = rndMed / exMed
		}
	}
	return row, nil
}

// Render writes the Figure 5 savings table, one row per query, sorted by
// savings at the first recall level (descending, like the paper's bars).
func (r *Fig5Result) Render(w io.Writer) error {
	var err error
	writef(w, &err, "Figure 5 — time savings of ExSample vs random per query (scale %.2f, %d trials)\n",
		r.Config.Scale, r.Config.Trials)
	writef(w, &err, "%-12s %-14s |", "dataset", "category")
	for _, rec := range r.Config.Recalls {
		writef(w, &err, " rec=%-5.1f", rec)
	}
	writef(w, &err, "\n")
	rows := append([]Fig5Row(nil), r.Rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Savings[0] > rows[j].Savings[0] })
	for _, row := range rows {
		writef(w, &err, "%-12s %-14s |", row.Dataset, row.Class)
		for _, s := range row.Savings {
			writef(w, &err, " %9s", fmtRatio(s))
		}
		writef(w, &err, "\n")
	}
	writef(w, &err, "\ngeometric mean per recall:")
	for k, rec := range r.Config.Recalls {
		writef(w, &err, "  %.1f: %s", rec, fmtRatio(r.GeoMean[k]))
	}
	writef(w, &err, "\noverall geometric mean: %s (min %s, max %s)\n\n",
		fmtRatio(r.OverallGeoMean), fmtRatio(r.Min), fmtRatio(r.Max))
	return err
}
