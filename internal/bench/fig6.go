package bench

import (
	"fmt"
	"io"
	"strings"

	"github.com/exsample/exsample/internal/datasets"
	"github.com/exsample/exsample/internal/metrics"
)

// Fig6Config selects the representative queries whose per-chunk instance
// distribution and skew metric the paper visualizes.
type Fig6Config struct {
	Scale   float64
	Queries []Fig6Query
	Seed    uint64
}

// Fig6Query names one (dataset, class) panel.
type Fig6Query struct {
	Dataset string
	Class   string
}

// DefaultFig6 uses the paper's five panels.
func DefaultFig6() Fig6Config {
	return Fig6Config{
		Scale: 0.25,
		Queries: []Fig6Query{
			{"dashcam", "bicycle"},
			{"bdd1k", "motor"},
			{"night-street", "person"},
			{"archie", "car"},
			{"amsterdam", "boat"},
		},
		Seed: 11,
	}
}

// Fig6Panel is one query's skew summary.
type Fig6Panel struct {
	Dataset string
	Class   string
	// N is the distinct instance count (paper annotates each panel).
	N int
	// S is the skew metric (half the chunks divided by the minimum chunk
	// set covering half the instances).
	S float64
	// HalfChunks is that minimum chunk-set size (the blue bars).
	HalfChunks int
	// Histogram is the per-chunk instance count.
	Histogram []int
}

// Fig6Result holds all panels.
type Fig6Result struct {
	Config Fig6Config
	Panels []Fig6Panel
}

// RunFig6 computes the panels.
func RunFig6(cfg Fig6Config) (*Fig6Result, error) {
	if !(cfg.Scale > 0 && cfg.Scale <= 1) {
		return nil, fmt.Errorf("bench: fig6 scale %v outside (0,1]", cfg.Scale)
	}
	if len(cfg.Queries) == 0 {
		return nil, fmt.Errorf("bench: fig6 needs queries")
	}
	res := &Fig6Result{Config: cfg}
	built := make(map[string]*datasets.Dataset)
	for _, q := range cfg.Queries {
		ds, ok := built[q.Dataset]
		if !ok {
			p, err := datasets.ProfileByName(q.Dataset)
			if err != nil {
				return nil, err
			}
			ds, err = datasets.Build(p, cfg.Scale, cfg.Seed)
			if err != nil {
				return nil, err
			}
			built[q.Dataset] = ds
		}
		instances := ds.ClassInstances(q.Class)
		if len(instances) == 0 {
			return nil, fmt.Errorf("bench: fig6 %s/%s has no instances", q.Dataset, q.Class)
		}
		hist := metrics.ChunkHistogram(instances, ds.Chunks)
		s, err := metrics.SkewMetric(hist)
		if err != nil {
			return nil, err
		}
		k, err := metrics.MinChunksForHalf(hist)
		if err != nil {
			return nil, err
		}
		res.Panels = append(res.Panels, Fig6Panel{
			Dataset:    q.Dataset,
			Class:      q.Class,
			N:          len(instances),
			S:          s,
			HalfChunks: k,
			Histogram:  hist,
		})
	}
	return res, nil
}

// Render writes the panels with ASCII chunk histograms.
func (r *Fig6Result) Render(w io.Writer) error {
	var err error
	writef(w, &err, "Figure 6 — instance skew for representative queries (scale %.2f)\n\n", r.Config.Scale)
	for _, p := range r.Panels {
		writef(w, &err, "%s/%s: N=%d  S=%.1f  (half the instances in %d of %d chunks)\n",
			p.Dataset, p.Class, p.N, p.S, p.HalfChunks, len(p.Histogram))
		writef(w, &err, "  %s\n\n", sparkline(p.Histogram, 64))
	}
	return err
}

// sparkline renders chunk counts as a fixed-width ASCII bar profile.
func sparkline(hist []int, width int) string {
	if len(hist) == 0 {
		return ""
	}
	// Downsample to width buckets by max-pooling.
	buckets := make([]int, width)
	for i, c := range hist {
		b := i * width / len(hist)
		if c > buckets[b] {
			buckets[b] = c
		}
	}
	max := 0
	for _, c := range buckets {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return strings.Repeat("_", width)
	}
	levels := []byte("_.:-=+*#%@")
	var sb strings.Builder
	for _, c := range buckets {
		idx := c * (len(levels) - 1) / max
		sb.WriteByte(levels[idx])
	}
	return sb.String()
}
