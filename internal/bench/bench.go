// Package bench implements the experiment harness: one runner per table and
// figure of the paper's evaluation, each producing the same rows/series the
// paper reports. Runners accept a Scale knob so the full experiments (hours
// at paper size) can be exercised end-to-end in seconds during tests and
// benchmarks; shapes — who wins, rough factors, crossovers — are preserved
// at reduced scale.
//
// The detector experiments — Table I and Figure 5 — run every query
// through the public Search, the same pipeline Session and Engine drive.
// Figure 2 runs internal/sim's §III-D estimator study. The §IV studies —
// Figures 3 and 4 and the ablation — make one sim.Run pass per trial and
// method, reading found-at-checkpoint and samples-to-target off the same
// trajectory; Figure 4 draws internal/opt's Eq. IV.1 curve beside them.
// Figure 6 reads ground truth only.
package bench

import (
	"fmt"
	"io"
	"math"

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
	out := make([]int64, len(recalls))
	for k, level := range recalls {
		out[k] = -1
		for i, found := range rep.CurveFound {
			if float64(found)/float64(total) >= level {
				out[k] = rep.CurveSamples[i]
				break
			}
		}
	}
	return out, total, nil
}
