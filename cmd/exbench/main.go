// Command exbench regenerates the paper's tables and figures from the
// synthetic reproduction. Each experiment prints the same rows/series the
// paper reports.
//
// Usage:
//
//	exbench -experiment fig2|fig3|fig4|table1|fig5|fig6|ablation|all
//	        [-scale 0.05] [-trials N] [-seed N] [-full]
//	exbench -bench-out BENCH_engine.json
//	exbench -bench-compare BENCH_engine.json [-bench-tolerance 0.25]
//	exbench ... [-cpuprofile FILE] [-memprofile FILE]
//
// -full runs fig3/fig4 at the paper's 16M-frame size (slow).
//
// -bench-out FILE skips the paper experiments and instead runs the legacy
// switch-pair suite (internal/perf): static vs adaptive round sizing
// against a slow simulated backend, single-replica vs scatter-gather
// routing over a heterogeneous fleet, fair-share vs global-budget
// scheduling on a mixed fleet, and four queries sharing one memo cache.
// The machine-readable snapshot is written to FILE (and echoed to stdout when
// FILE is "-"); the committed BENCH_engine.json and the CI artifact both
// come from this mode.
//
// -bench-compare FILE runs the same suite fresh and checks it against the
// committed snapshot in FILE through the per-row gate table (gates): each
// row's gated metrics may not fall, nor its gated allocs_per_op rise, by
// more than the row's tolerance (-bench-tolerance, default 0.25, unless
// the table names another). A gated row or metric missing from either
// side is an error too. This is the CI bench-regression gate; end-to-end
// engine performance is measured by the benchmark/ harness instead.
//
// -cpuprofile / -memprofile write pprof profiles covering whichever mode
// ran — paper experiment, suite snapshot or comparison — for digging into
// scheduler or sampler hot spots without rigging up a go-test harness.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/exsample/exsample/internal/bench"
	"github.com/exsample/exsample/internal/perf"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig2|fig3|fig4|table1|fig5|fig6|ablation|all")
		scale      = flag.Float64("scale", 0, "dataset scale for table1/fig5/fig6 (0 = experiment default)")
		trials     = flag.Int("trials", 0, "trial count override (0 = experiment default)")
		seed       = flag.Uint64("seed", 0, "seed override (0 = experiment default)")
		full       = flag.Bool("full", false, "run fig3/fig4 at the paper's full 16M-frame size")
		benchOut   = flag.String("bench-out", "", "write the engine perf-trajectory snapshot (BENCH_engine.json) to this file and exit (\"-\" = stdout)")
		benchCmp   = flag.String("bench-compare", "", "run the perf-trajectory suite and fail on regression against this committed snapshot")
		benchTol   = flag.Float64("bench-tolerance", 0.25, "allowed fractional regression for -bench-compare")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "exbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "exbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "exbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "exbench:", err)
			}
		}()
	}

	// exit defers the profile flushes above before terminating.
	code := 0
	switch {
	case *benchCmp != "":
		if err := compareBench(*benchCmp, *benchTol); err != nil {
			fmt.Fprintln(os.Stderr, "exbench:", err)
			code = 1
		}
	case *benchOut != "":
		if err := writeBench(*benchOut); err != nil {
			fmt.Fprintln(os.Stderr, "exbench:", err)
			code = 1
		}
	default:
		if err := run(*experiment, *scale, *trials, *seed, *full); err != nil {
			fmt.Fprintln(os.Stderr, "exbench:", err)
			code = 1
		}
	}
	if code != 0 {
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(code)
	}
}

// metricGate gates one higher-is-better metric of a row: the fresh value
// may fall at most tol below the committed one (0 means -bench-tolerance).
type metricGate struct {
	name string
	tol  float64
}

// gates is the regression gate, one entry per BENCH_engine.json row in
// suite order. Every row but the last is a switch pair's arm; each lists
// the metrics it gates and whether it also gates allocs_per_op (lower is better, held
// to -bench-tolerance).
//
// The slow-backend and hetero-fleet arms are bound by simulated sleeps, so
// their frames/s is low-noise. vs-single-x divides two sleep-bound numbers
// that share the scheduler's wall clock; a 0.30 band still catches the
// failure that matters, scatter silently degrading to single-replica
// routing, which drags the ratio to ~1x. The scheduling arms and the
// memo-cache fleet row (cache_aware_off, named for the pair it once
// belonged to) gate results/kdetect, a count ratio at a fixed detector
// budget; the memo-cache row runs Workers 1, so its ratio is
// deterministic.
//
// Allocations are gated where the schedule is fixed: the fleet arms
// process a fixed 2048-frame budget over a fixed round schedule, and the
// scheduling arms a fixed detector-call budget. The global-budget arm
// allocates ~1.7x the fair-share arm per op because it finds ~1.9x the
// results and every result carries discriminator and report allocations;
// each row is gated against its own committed value, not against its
// pair, so that inherent gap never trips the gate.
var gates = []struct {
	row     string
	metrics []metricGate
	allocs  bool
}{
	{"engine_static_slowbackend", []metricGate{{"frames/s", 0}}, false},
	{"engine_adaptive_slowbackend", []metricGate{{"frames/s", 0}}, false},
	{"hetero_fleet_single", []metricGate{{"frames/s", 0}}, true},
	{"hetero_fleet_scatter", []metricGate{{"frames/s", 0}, {"vs-single-x", 0.30}}, true},
	{"engine_fairshare_mixedfleet", []metricGate{{"results/kdetect", 0}}, true},
	{"engine_globalbudget_mixedfleet", []metricGate{{"results/kdetect", 0}}, true},
	{"cache_aware_off", []metricGate{{"results/kdetect", 0}}, false},
}

// compareBench runs the perf suite fresh, prints the gate's report and
// fails when compare does.
func compareBench(path string, tol float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var committed perf.Snapshot
	if err := json.Unmarshal(raw, &committed); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	fresh, err := perf.RunSuite()
	if err != nil {
		return err
	}
	lines, err := compare(&committed, fresh, tol)
	for _, l := range lines {
		fmt.Println(l)
	}
	if err != nil {
		return fmt.Errorf("against %s: %w", path, err)
	}
	return nil
}

// compare checks every gate of fresh against committed. It returns one
// report line per gated number and an error counting the failures: a
// gated number past its tolerance, or a gated row or metric missing from
// either snapshot.
func compare(committed, fresh *perf.Snapshot, tol float64) ([]string, error) {
	byName := func(s *perf.Snapshot) map[string]perf.Result {
		m := make(map[string]perf.Result, len(s.Suite))
		for _, r := range s.Suite {
			m[r.Name] = r
		}
		return m
	}
	wantRows, gotRows := byName(committed), byName(fresh)
	var lines []string
	failures := 0
	report := func(row, metric string, base, cur float64, regressed bool) {
		status := "ok"
		if regressed {
			status = "REGRESSION"
			failures++
		}
		lines = append(lines, fmt.Sprintf("%-32s %-16s %12.2f -> %12.2f  (%+5.1f%%)  %s",
			row, metric, base, cur, (cur/base-1)*100, status))
	}
	missing := func(row, what string) {
		lines = append(lines, fmt.Sprintf("%-32s %-16s MISSING", row, what))
		failures++
	}
	for _, g := range gates {
		want, ok := wantRows[g.row]
		if !ok {
			missing(g.row, "committed row")
			continue
		}
		got, ok := gotRows[g.row]
		if !ok {
			missing(g.row, "fresh row")
			continue
		}
		for _, m := range g.metrics {
			base, cur := want.Metrics[m.name], got.Metrics[m.name]
			if base <= 0 || cur <= 0 {
				missing(g.row, m.name)
				continue
			}
			mtol := tol
			if m.tol > 0 {
				mtol = m.tol
			}
			report(g.row, m.name, base, cur, cur < base*(1-mtol))
		}
		if g.allocs {
			if want.AllocsPerOp <= 0 {
				missing(g.row, "allocs_per_op")
				continue
			}
			report(g.row, "allocs_per_op", want.AllocsPerOp, got.AllocsPerOp,
				got.AllocsPerOp > want.AllocsPerOp*(1+tol))
		}
	}
	if failures > 0 {
		return lines, fmt.Errorf("%d gated number(s) regressed past tolerance or went missing", failures)
	}
	return lines, nil
}

// writeBench runs the perf-trajectory suite and writes the JSON snapshot.
func writeBench(path string) error {
	snap, err := perf.RunSuite()
	if err != nil {
		return err
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		return err
	}
	if path != "-" {
		for _, r := range snap.Suite {
			fmt.Printf("%-28s %10.0f ns/op %12.0f allocs/op", r.Name, r.NsPerOp, r.AllocsPerOp)
			if v, ok := r.Metrics["frames/s"]; ok {
				fmt.Printf(" %12.0f frames/s", v)
			}
			fmt.Println()
		}
	}
	return nil
}

func run(experiment string, scale float64, trials int, seed uint64, full bool) error {
	runOne := func(name string) error {
		switch name {
		case "fig2":
			cfg := bench.DefaultFig2()
			if trials > 0 {
				cfg.Runs = trials
			}
			if seed != 0 {
				cfg.Seed = seed
			}
			res, err := bench.RunFig2(cfg)
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		case "fig3":
			cfg := bench.DefaultFig3()
			if full {
				cfg = bench.PaperFig3()
			}
			if trials > 0 {
				cfg.Trials = trials
			}
			if seed != 0 {
				cfg.Seed = seed
			}
			res, err := bench.RunFig3(cfg)
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		case "fig4":
			cfg := bench.DefaultFig4()
			if full {
				cfg.NumFrames = 16_000_000
				cfg.Trials = 21
				cfg.Budget = 30_000
				cfg.Checkpoints = []int64{1000, 3000, 10_000, 20_000, 30_000}
			}
			if trials > 0 {
				cfg.Trials = trials
			}
			if seed != 0 {
				cfg.Seed = seed
			}
			res, err := bench.RunFig4(cfg)
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		case "table1":
			cfg := bench.DefaultTable1()
			if scale > 0 {
				cfg.Scale = scale
			}
			if seed != 0 {
				cfg.Seed = seed
			}
			res, err := bench.RunTable1(cfg)
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		case "fig5":
			cfg := bench.DefaultFig5()
			if scale > 0 {
				cfg.Scale = scale
			}
			if trials > 0 {
				cfg.Trials = trials
			}
			if seed != 0 {
				cfg.Seed = seed
			}
			res, err := bench.RunFig5(cfg)
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		case "fig6":
			cfg := bench.DefaultFig6()
			if scale > 0 {
				cfg.Scale = scale
			}
			if seed != 0 {
				cfg.Seed = seed
			}
			res, err := bench.RunFig6(cfg)
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		case "ablation":
			cfg := bench.DefaultAblation()
			if trials > 0 {
				cfg.Trials = trials
			}
			if seed != 0 {
				cfg.Seed = seed
			}
			res, err := bench.RunAblation(cfg)
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	if experiment == "all" {
		for _, name := range []string{"fig2", "fig3", "fig4", "table1", "fig5", "fig6", "ablation"} {
			if err := runOne(name); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	return runOne(experiment)
}
