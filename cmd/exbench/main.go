// Command exbench regenerates the paper's tables and figures from the
// synthetic reproduction. Each experiment prints the same rows/series the
// paper reports.
//
// Usage:
//
//	exbench -experiment fig2|fig3|fig4|table1|fig5|fig6|ablation|extensions|all
//	        [-scale 0.05] [-trials N] [-seed N] [-full]
//	exbench -bench-out BENCH_engine.json
//	exbench -bench-compare BENCH_engine.json [-bench-tolerance 0.25]
//	exbench ... [-cpuprofile FILE] [-memprofile FILE]
//
// -full runs fig3/fig4 at the paper's 16M-frame size (slow).
//
// -bench-out FILE skips the paper experiments and instead runs the engine
// performance-trajectory suite (internal/perf): engine/sharded throughput,
// sampler decision cost with allocation accounting, adaptive-vs-static
// round sizing against a slow simulated backend, and fair-share vs
// global-budget scheduling on a mixed fleet. The machine-readable snapshot
// is written to FILE (and echoed to stdout when FILE is "-"); the
// committed BENCH_engine.json and the CI artifact both come from this mode.
//
// -bench-compare FILE runs the same suite fresh and compares its headline
// throughput metrics (frames/s, results/kdetect) against the committed
// snapshot in FILE for the low-noise gating rows (engine throughput and
// the two scheduling arms), exiting nonzero when any gated metric
// regresses by more than -bench-tolerance (default 0.25). Rows present on
// only one side are reported and skipped, so the check survives suite
// growth. This is the CI bench-regression smoke.
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
		experiment = flag.String("experiment", "all", "fig2|fig3|fig4|table1|fig5|fig6|ablation|extensions|all")
		scale      = flag.Float64("scale", 0, "dataset scale for table1/fig5/fig6 (0 = experiment default)")
		trials     = flag.Int("trials", 0, "trial count override (0 = experiment default)")
		seed       = flag.Uint64("seed", 0, "seed override (0 = experiment default)")
		full       = flag.Bool("full", false, "run fig3/fig4 at the paper's full 16M-frame size")
		benchOut   = flag.String("bench-out", "", "write the engine perf-trajectory snapshot (BENCH_engine.json) to this file and exit (\"-\" = stdout)")
		benchCmp   = flag.String("bench-compare", "", "run the perf-trajectory suite and fail on throughput regression against this committed snapshot")
		benchTol   = flag.Float64("bench-tolerance", 0.25, "allowed fractional throughput regression for -bench-compare")
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

// compareMetrics are the headline throughput numbers the regression smoke
// watches; higher is better for every one of them.
var compareMetrics = []string{"frames/s", "results/kdetect", "vs-cold-x", "vs-single-x"}

// compareMetricSkips suppresses gating for metrics that are reported for
// context but too noisy to regress on. The warm shared-tier row keeps its
// raw frames/s in the snapshot, but its wall time is dominated by loopback
// HTTP latency that swings past the tolerance run to run; the acceptance
// number is the warm/cold ratio (vs-cold-x), which divides out the shared
// machine noise and is gated instead.
var compareMetricSkips = map[string]map[string]bool{
	"cache_second_user_warm": {"frames/s": true},
}

// compareMetricTols widens the tolerance for specific metrics. vs-cold-x
// divides a loopback-HTTP-bound number by a sleep-bound one, so it swings
// ~25% run to run even averaged over eight ops; what the gate must catch
// is the remote tier silently not serving — which collapses the ratio to
// ~1x, far past any tolerance — so a wide band loses nothing.
// vs-single-x divides two sleep-bound numbers measured on the same
// machine in the same process, so it is steadier, but both arms share the
// scheduler's wall clock; a 0.30 band still catches the failure that
// matters — scatter silently degrading to single-replica routing, which
// drags the ratio to ~1x.
var compareMetricTols = map[string]float64{"vs-cold-x": 0.45, "vs-single-x": 0.30}

// compareRows are the suite rows stable enough to gate on: the end-to-end
// engine throughput row, the two scheduling arms (whose detector-call
// normalization makes them nearly noise-free), and the track-query accel
// and dense arms — their results/kdetect is a deterministic count ratio,
// so the accel row regressing toward the dense row's value means the
// accelerate/refine loop stopped saving frames. The remaining rows
// (sharded fan-out, stream ingest, coarse triage) swing past 20% run to
// run on shared hardware and stay report-only.
var compareRows = map[string]bool{
	"engine_throughput_4q":           true,
	"engine_fairshare_mixedfleet":    true,
	"engine_globalbudget_mixedfleet": true,
	"track_query_accel":              true,
	"track_query_dense":              true,
	// The shared-tier rows: cold pays simulated inference for every frame,
	// warm resolves everything from a populated cache server. Both gate on
	// frames/s; the warm row collapsing toward the cold row's value means
	// the remote tier stopped serving.
	"cache_second_user_cold": true,
	"cache_second_user_warm": true,
	// The cache-aware arms run a deterministic Workers-1 fleet and report
	// only count ratios, so their results/kdetect is noise-free; the on
	// row regressing toward the off row means tie-breaking stopped
	// converting fleet overlap into cache hits.
	"cache_aware_off": true,
	"cache_aware_on":  true,
	// The heterogeneous-fleet arms are sleep-bound like the slow-backend
	// rows, so their frames/s is low-noise; the scatter row additionally
	// gates vs-single-x, whose collapse toward 1x means scatter-gather
	// stopped fanning batches out.
	"hetero_fleet_single":  true,
	"hetero_fleet_scatter": true,
}

// compareAllocRows gates allocs_per_op — lower is better — for the rows
// whose allocation profile is deterministic enough to regress on: the
// sampler decision micro-row (its steady state is pinned allocation-free by
// CI AllocsPerRun guards; this catches drift in the setup path) and the two
// scheduling arms, which run a fixed detector-call budget.
//
// Context for the scheduling arms' absolute values: the global-budget row
// reports ~1.7x the fair-share row's allocs_per_op, which reads like a
// regression but is inherent — the marginal-value allocator steers frames
// at hot queries, so the same 6000-detector-call budget yields ~1.9x the
// results, and every result carries discriminator/report allocations. Per
// result the budget arm allocates ~9.0 objects against fair-share's ~9.8:
// the budget path is the leaner of the two per unit of useful work, and
// gating each row against its own committed baseline (rather than against
// each other) is what keeps that inherent gap from tripping the smoke.
var compareAllocRows = map[string]bool{
	"sampler_decision_256":           true,
	"engine_fairshare_mixedfleet":    true,
	"engine_globalbudget_mixedfleet": true,
	// The heterogeneous-fleet arms process a fixed 2048-frame budget over a
	// fixed round schedule, so their allocation profile is as deterministic
	// as the scheduling arms'; gating them pins the per-round cost of the
	// weighted pick and the scatter fan-out (slice bookkeeping, goroutines).
	"hetero_fleet_single":  true,
	"hetero_fleet_scatter": true,
}

// compareBench runs the perf suite fresh and fails when any watched metric
// of any row shared with the committed snapshot regresses by more than tol.
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
	freshByName := make(map[string]perf.Result, len(fresh.Suite))
	for _, r := range fresh.Suite {
		freshByName[r.Name] = r
	}
	var failures int
	for _, want := range committed.Suite {
		if !compareRows[want.Name] {
			continue
		}
		got, ok := freshByName[want.Name]
		if !ok {
			fmt.Printf("%-32s committed row missing from fresh suite, skipped\n", want.Name)
			continue
		}
		for _, metric := range compareMetrics {
			if compareMetricSkips[want.Name][metric] {
				continue
			}
			base, ok := want.Metrics[metric]
			if !ok || base <= 0 {
				continue
			}
			cur := got.Metrics[metric]
			ratio := cur / base
			mtol := tol
			if t, ok := compareMetricTols[metric]; ok {
				mtol = t
			}
			status := "ok"
			if ratio < 1-mtol {
				status = "REGRESSION"
				failures++
			}
			fmt.Printf("%-32s %-16s %12.0f -> %12.0f  (%+5.1f%%)  %s\n",
				want.Name, metric, base, cur, (ratio-1)*100, status)
		}
		if compareAllocRows[want.Name] && want.AllocsPerOp > 0 {
			ratio := got.AllocsPerOp / want.AllocsPerOp
			status := "ok"
			if ratio > 1+tol {
				status = "REGRESSION"
				failures++
			}
			fmt.Printf("%-32s %-16s %12.0f -> %12.0f  (%+5.1f%%)  %s\n",
				want.Name, "allocs_per_op", want.AllocsPerOp, got.AllocsPerOp, (ratio-1)*100, status)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d metric(s) regressed more than %.0f%% against %s", failures, tol*100, path)
	}
	return nil
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
	type renderer interface{ Render(w *os.File) error }
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
		case "extensions":
			cfg := bench.DefaultExtensions()
			if trials > 0 {
				cfg.Trials = trials
			}
			if seed != 0 {
				cfg.Seed = seed
			}
			res, err := bench.RunExtensions(cfg)
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
		for _, name := range []string{"fig2", "fig3", "fig4", "table1", "fig5", "fig6", "ablation", "extensions"} {
			if err := runOne(name); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	return runOne(experiment)
}
