// Package bench implements the experiment harness: one runner per table and
// figure of the paper's evaluation, each producing the same rows/series the
// paper reports. Runners accept a Scale knob so the full experiments (hours
// at paper size) can be exercised end-to-end in seconds during tests and
// benchmarks; shapes — who wins, rough factors, crossovers — are preserved
// at reduced scale.
//
// Table I, Figures 3–5 and the ablation run every trial through the public
// Search, the same pipeline Session and Engine drive, and read their
// numbers off its discovery record with readCurve. The §IV studies —
// Figures 3 and 4 and the ablation — search a perfect-detector Synthesize
// repository; the ablation reaches the sampler settings Options keeps
// unexported through internal/lab, and Figure 4 draws internal/opt's
// Eq. IV.1 curve beside its series. Figure 2 runs internal/sim's §III-D
// estimator study. Figure 6 reads ground truth only.
package bench

import (
	"fmt"
	"io"
	"math"
	"sort"

	exsample "github.com/exsample/exsample"
)

// writef writes formatted output, propagating the first error through a
// shared pointer so render functions stay linear.
func writef(w io.Writer, errp *error, format string, args ...any) {
	if *errp != nil {
		return
	}
	_, *errp = fmt.Fprintf(w, format, args...)
}

// fmtRatio renders a savings ratio the way the paper labels them ("3.9x",
// "0.79x").
func fmtRatio(r float64) string {
	if r <= 0 || math.IsInf(r, 0) || math.IsNaN(r) {
		return "-"
	}
	if r >= 10 {
		return fmt.Sprintf("%.0fx", r)
	}
	return fmt.Sprintf("%.2gx", r)
}

// samplesToRecalls runs one Search for class to the highest of recalls and
// returns the class's population and, per recall level, the frames the
// search had processed when found/total first reached it (-1 when it never
// did), read off the report's discovery record.
func samplesToRecalls(ds *exsample.Dataset, class string, recalls []float64, opts exsample.Options) ([]int64, int, error) {
	total, err := ds.GroundTruthCount(class)
	if err != nil {
		return nil, 0, err
	}
	rep, err := ds.Search(exsample.Query{Class: class, RecallTarget: recalls[len(recalls)-1]}, opts)
	if err != nil {
		return nil, 0, err
	}
	// A level's target is the least count n with n/total at or above it.
	targets := make([]int64, len(recalls))
	for k, level := range recalls {
		targets[k] = int64(sort.Search(total+1, func(n int) bool { return float64(n)/float64(total) >= level }))
	}
	_, reached := readCurve(rep, nil, targets)
	return reached, total, nil
}

// readCurve reads a search's discovery record, which gains a point
// (CurveSamples[i], CurveFound[i]) at every frame that shows a true object.
// found[k] is the distinct count after checkpoints[k] frames: the last
// point at or before it, 0 before the first. reached[k] is the frames
// processed when the count first reached targets[k], -1 if it never did.
func readCurve(rep *exsample.Report, checkpoints, targets []int64) (found, reached []int64) {
	found = make([]int64, len(checkpoints))
	for k, cp := range checkpoints {
		if i := sort.Search(len(rep.CurveSamples), func(i int) bool { return rep.CurveSamples[i] > cp }); i > 0 {
			found[k] = int64(rep.CurveFound[i-1])
		}
	}
	reached = make([]int64, len(targets))
	for k, target := range targets {
		reached[k] = -1
		for i, f := range rep.CurveFound {
			if int64(f) >= target {
				reached[k] = rep.CurveSamples[i]
				break
			}
		}
	}
	return found, reached
}
