package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// Verdicts of one workload × metric row.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// comparable reports why two result files must not be compared, or "".
func comparable(a, b *resultFile) string {
	switch {
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("go_version differs: %s vs %s", a.GoVersion, b.GoVersion)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS differs: %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.C != b.C:
		return fmt.Sprintf("C differs: %d vs %d", a.C, b.C)
	case a.Seed != b.Seed:
		return fmt.Sprintf("seed differs: %d vs %d", a.Seed, b.Seed)
	case a.SourceHash != b.SourceHash:
		return fmt.Sprintf("benchmark source hash differs: %s vs %s", a.SourceHash, b.SourceHash)
	}
	return ""
}

// repSpread summarises a metric's per-rep values: their full range, and
// their interquartile range as a share of the median — the same measure of
// spread the benchmark's bounds were fixed from.
func repSpread(v metricValue) (lo, hi, spread float64) {
	if len(v.Reps) < 2 {
		return v.Value, v.Value, 0
	}
	lo, hi = quantile(v.Reps, 0), quantile(v.Reps, 1)
	if med := median(v.Reps); med > 0 {
		spread = (quantile(v.Reps, 0.75) - quantile(v.Reps, 0.25)) / med
	}
	return lo, hi, spread
}

// judge gives one row's verdict. worsening is the share of the base by
// which the new value is worse (negative when it is better).
func judge(d metricDef, base, cur metricValue, noisyRun bool) (ratio float64, verdict string) {
	ratio = cur.Value / base.Value
	if base.Value == 0 {
		ratio = 1
		if cur.Value != 0 {
			ratio = math.Inf(1)
		}
	}
	worsening := ratio - 1
	if d.Better == "higher" {
		worsening = 1 - ratio
	}
	bound := d.compareBound()
	switch {
	case worsening > bound:
		verdict = verdictWorse
	case worsening < -bound:
		verdict = verdictBetter
	default:
		verdict = verdictWithin
	}
	if d.exact() {
		return ratio, verdict
	}
	if noisyRun && d.timing() {
		// The machine moved under one of the runs; its timings settle
		// nothing either way.
		return ratio, verdictUnresolved
	}
	alo, ahi, aspread := repSpread(base)
	blo, bhi, bspread := repSpread(cur)
	if math.Max(aspread, bspread) > bound && alo <= bhi && blo <= ahi {
		// The reps of one run spread wider than the bound and the two runs
		// overlap: neither "unchanged" nor "changed" is shown.
		return ratio, verdictUnresolved
	}
	return ratio, verdict
}

// exact reports whether a metric is a count that must repeat exactly
// between two runs of the same seed.
func (d metricDef) exact() bool {
	return d.Name == "results_per_kframe" || d.Name == "fail_share"
}

// compareBound is the bound -compare applies. Bound itself has to cover the
// spread across seeds, which BENCHMARK.json's driver measures; -compare only
// ever sees two runs of one seed, where a count either repeats or has moved.
func (d metricDef) compareBound() float64 {
	if d.exact() {
		return 0
	}
	return d.Bound
}

// compareFiles prints one row per workload × end-to-end metric and returns
// the exit code: 0 when nothing is worse, 1 when a row is, 2 when the files
// cannot be compared.
func compareFiles(out io.Writer, basePath, curPath string) int {
	base, err := readResult(basePath)
	if err != nil {
		fmt.Fprintln(out, "benchmark:", err)
		return 2
	}
	cur, err := readResult(curPath)
	if err != nil {
		fmt.Fprintln(out, "benchmark:", err)
		return 2
	}
	if why := comparable(base, cur); why != "" {
		fmt.Fprintf(out, "benchmark: refusing to compare %s with %s: %s\n", basePath, curPath, why)
		return 2
	}
	byName := make(map[string]workloadResult)
	for _, w := range cur.Workloads {
		byName[w.Name] = w
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tratio\tbound\tverdict")
	worse := 0
	for _, bw := range base.Workloads {
		cw, ok := byName[bw.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\tmissing from %s\n", bw.Name, curPath)
			worse++
			continue
		}
		for _, d := range endToEnd {
			bv, okb := bw.EndToEnd[d.Name]
			cv, okc := cw.EndToEnd[d.Name]
			if !okb && !okc {
				continue
			}
			if okb != okc {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\treported by one file only\n", bw.Name, d.Name)
				worse++
				continue
			}
			ratio, verdict := judge(d, bv, cv, bw.Noisy || cw.Noisy)
			if verdict == verdictWorse {
				worse++
			}
			note := ""
			if (bw.Noisy || cw.Noisy) && d.timing() {
				note = " (noisy run)"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.4f\t%.2f\t%s%s\n", bw.Name, d.Name, bv.Value, cv.Value, ratio, d.compareBound(), verdict, note)
		}
	}
	tw.Flush()
	if worse > 0 {
		fmt.Fprintf(out, "%d rows worse\n", worse)
		return 1
	}
	return 0
}
