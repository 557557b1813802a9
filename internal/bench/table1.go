package bench

import (
	"fmt"
	"io"

	"github.com/exsample/exsample/internal/costmodel"
	"github.com/exsample/exsample/internal/datasets"

	exsample "github.com/exsample/exsample"
)

// Table1Config parameterizes the Table I reproduction: for every dataset ×
// object class, the proxy baseline's full-scan time versus the time
// ExSample needs to reach 10%, 50% and 90% of all distinct instances.
type Table1Config struct {
	// Scale shrinks datasets (frames and populations together). Scan and
	// sampling times shrink by the same factor, so the comparison the table
	// makes — scan cost vs time-to-recall — is preserved.
	Scale float64
	// Recalls are the columns (paper: 0.1, 0.5, 0.9).
	Recalls []float64
	// Profiles restricts to named datasets (nil = all six).
	Profiles []string
	// Seed drives dataset generation (and with it the detector's noise)
	// and sampling.
	Seed uint64
}

// DefaultTable1 runs all datasets at 5% scale.
func DefaultTable1() Table1Config {
	return Table1Config{Scale: 0.05, Recalls: []float64{0.1, 0.5, 0.9}, Seed: 7}
}

// Table1Row is one (dataset, class) line.
type Table1Row struct {
	Dataset string
	Class   string
	// ScanSeconds is the proxy scoring pass over the full dataset.
	ScanSeconds float64
	// RecallSeconds[k] is ExSample's time to reach Recalls[k]; -1 when the
	// recall level was not reached within the frame budget.
	RecallSeconds []float64
	// Instances is the distinct ground-truth population searched.
	Instances int
}

// Table1Result is the rendered table's data.
type Table1Result struct {
	Config Table1Config
	Rows   []Table1Row
	// BeatScanCount counts rows where even 90% recall arrives before the
	// proxy scan would have finished — the paper reports this holds for
	// every query.
	BeatScanCount int
}

// RunTable1 executes the experiment.
func RunTable1(cfg Table1Config) (*Table1Result, error) {
	if !(cfg.Scale > 0 && cfg.Scale <= 1) {
		return nil, fmt.Errorf("bench: table1 scale %v outside (0,1]", cfg.Scale)
	}
	if len(cfg.Recalls) == 0 {
		return nil, fmt.Errorf("bench: table1 needs recall levels")
	}
	want := make(map[string]bool)
	for _, p := range cfg.Profiles {
		want[p] = true
	}
	cost := costmodel.Default()
	res := &Table1Result{Config: cfg}
	for _, p := range datasets.Profiles() {
		if len(want) > 0 && !want[p.Name] {
			continue
		}
		ds, err := exsample.OpenProfile(p.Name, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("bench: table1 %s: %w", p.Name, err)
		}
		scan := ds.ScanSeconds()
		for _, q := range p.Queries {
			row, err := runTable1Query(ds, q.Class, cfg, cost)
			if err != nil {
				return nil, fmt.Errorf("bench: table1 %s/%s: %w", p.Name, q.Class, err)
			}
			row.Dataset = p.Name
			row.ScanSeconds = scan
			res.Rows = append(res.Rows, row)
			last := row.RecallSeconds[len(row.RecallSeconds)-1]
			if last >= 0 && last < scan {
				res.BeatScanCount++
			}
		}
	}
	return res, nil
}

// runTable1Query searches one class to the highest recall level and
// charges each level the detector time of the frames processed by then.
func runTable1Query(ds *exsample.Dataset, class string, cfg Table1Config, cost costmodel.Model) (Table1Row, error) {
	frames, total, err := samplesToRecalls(ds, class, cfg.Recalls, exsample.Options{Seed: cfg.Seed})
	if err != nil {
		return Table1Row{}, err
	}
	row := Table1Row{Class: class, Instances: total, RecallSeconds: make([]float64, len(frames))}
	for k, f := range frames {
		row.RecallSeconds[k] = -1
		if f >= 0 {
			row.RecallSeconds[k] = cost.DetectSeconds(f)
		}
	}
	return row, nil
}

// Render writes the Table I reproduction.
func (r *Table1Result) Render(w io.Writer) error {
	var err error
	writef(w, &err, "Table I — proxy scan time vs ExSample time to recall (scale %.2f)\n", r.Config.Scale)
	writef(w, &err, "%-12s %-14s %6s %10s |", "dataset", "category", "N", "proxy scan")
	for _, rec := range r.Config.Recalls {
		writef(w, &err, " %8.0f%%", rec*100)
	}
	writef(w, &err, "\n")
	for _, row := range r.Rows {
		writef(w, &err, "%-12s %-14s %6d %10s |", row.Dataset, row.Class, row.Instances,
			costmodel.FormatDuration(row.ScanSeconds))
		for _, s := range row.RecallSeconds {
			if s < 0 {
				writef(w, &err, " %9s", "-")
			} else {
				writef(w, &err, " %9s", costmodel.FormatDuration(s))
			}
		}
		writef(w, &err, "\n")
	}
	writef(w, &err, "\nqueries where ExSample reaches the top recall before the proxy scan ends: %d / %d\n\n",
		r.BeatScanCount, len(r.Rows))
	return err
}
