// Package metrics computes the evaluation quantities the paper reports:
// recall over distinct instances, savings ratios between methods (Figure
// 5), aggregate bands (median, 25–75%), and the per-query skew metric S
// shown in Figure 6.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"github.com/exsample/exsample/internal/stats"
	"github.com/exsample/exsample/internal/track"
	"github.com/exsample/exsample/internal/video"
)

// RecallCurve tracks the distinct ground-truth instances a query has
// discovered against the population it is measured over. The discovery
// trajectory itself is the query report's to keep.
type RecallCurve struct {
	total int
	seen  map[int]bool
}

// NewRecallCurve creates a curve for a query with the given number of
// distinct ground-truth instances. A zero population is legal — a standing
// query can be registered against a live source before any segment
// containing its class has arrived — and reports zero recall until
// SetTotal grows the denominator.
func NewRecallCurve(totalInstances int) (*RecallCurve, error) {
	if totalInstances < 0 {
		return nil, fmt.Errorf("metrics: totalInstances must be non-negative, got %d", totalInstances)
	}
	return &RecallCurve{total: totalInstances, seen: make(map[int]bool)}, nil
}

// Observe records the truth ids discovered by one processed frame. False
// positives (negative ids) are ignored — the paper measures recall over
// true distinct instances.
func (rc *RecallCurve) Observe(truthIDs []int) {
	for _, id := range truthIDs {
		if id >= 0 {
			rc.seen[id] = true
		}
	}
}

// SetTotal updates the ground-truth population recall is measured
// against. It is grow-only: an elastic shard attach enlarges the
// reachable population, while shrinking the denominator mid-run would
// make recorded recall non-monotonic. Values not above the current total
// are ignored.
func (rc *RecallCurve) SetTotal(totalInstances int) {
	if totalInstances > rc.total {
		rc.total = totalInstances
	}
}

// Recall returns the fraction of distinct instances discovered so far (0
// while the measured population is still empty).
func (rc *RecallCurve) Recall() float64 {
	if rc.total == 0 {
		return 0
	}
	return float64(len(rc.seen)) / float64(rc.total)
}

// DistinctFound returns the number of distinct instances discovered.
func (rc *RecallCurve) DistinctFound() int { return len(rc.seen) }

// Savings is the Figure 5 quantity: the ratio of the baseline's cost to
// ExSample's cost to reach the same recall. >1 means ExSample wins.
func Savings(baselineCost, exsampleCost float64) (float64, error) {
	if baselineCost <= 0 || exsampleCost <= 0 {
		return 0, fmt.Errorf("metrics: costs must be positive (baseline=%v exsample=%v)", baselineCost, exsampleCost)
	}
	return baselineCost / exsampleCost, nil
}

// Band summarizes repeated trials: median plus the 25th and 75th
// percentiles, the bands shaded in Figures 3 and 4.
type Band struct {
	Median, P25, P75 float64
}

// NewBand computes a Band over trial values.
func NewBand(values []float64) (Band, error) {
	med, err := stats.Median(values)
	if err != nil {
		return Band{}, err
	}
	p25, err := stats.Percentile(values, 0.25)
	if err != nil {
		return Band{}, err
	}
	p75, err := stats.Percentile(values, 0.75)
	if err != nil {
		return Band{}, err
	}
	return Band{Median: med, P25: p25, P75: p75}, nil
}

// ChunkHistogram counts distinct instances per chunk, the per-chunk bars of
// Figure 6. An instance is charged to every chunk it overlaps.
func ChunkHistogram(instances []track.Instance, chunks []video.Chunk) []int {
	counts := make([]int, len(chunks))
	for _, in := range instances {
		for j, c := range chunks {
			if in.Start < c.End && in.End >= c.Start {
				counts[j]++
			}
		}
	}
	return counts
}

// SkewMetric computes the paper's skew statistic S (Figure 6): with k the
// minimum number of chunks that together cover at least half the instance
// mass, S = (M/2) / k. Uniformly spread instances give S ≈ 1; S = 14 means
// half the results live in 1/28 of the chunks.
func SkewMetric(chunkCounts []int) (float64, error) {
	m := len(chunkCounts)
	if m == 0 {
		return 0, fmt.Errorf("metrics: no chunks")
	}
	total := 0
	for _, c := range chunkCounts {
		if c < 0 {
			return 0, fmt.Errorf("metrics: negative chunk count")
		}
		total += c
	}
	if total == 0 {
		return 0, fmt.Errorf("metrics: no instances in any chunk")
	}
	sorted := append([]int(nil), chunkCounts...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	half := (total + 1) / 2
	cum, k := 0, 0
	for _, c := range sorted {
		cum += c
		k++
		if cum >= half {
			break
		}
	}
	return float64(m) / 2 / float64(k), nil
}

// MinChunksForHalf returns k, the size of the minimum chunk set covering at
// least half the instances (the blue bars of Figure 6).
func MinChunksForHalf(chunkCounts []int) (int, error) {
	s, err := SkewMetric(chunkCounts)
	if err != nil {
		return 0, err
	}
	return int(math.Round(float64(len(chunkCounts)) / 2 / s)), nil
}
