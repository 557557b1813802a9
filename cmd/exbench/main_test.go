package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"github.com/exsample/exsample/internal/perf"
)

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("figure99", 0, 0, 0, false); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunFig6(t *testing.T) {
	if err := run("fig6", 0.05, 0, 0, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig2SmallTrials(t *testing.T) {
	if err := run("fig2", 0, 30, 99, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunTable1SmallScale(t *testing.T) {
	if err := run("table1", 0.02, 0, 3, false); err != nil {
		t.Fatal(err)
	}
}

// TestRunAblationSmallTrials drives a §IV experiment through the -trials
// and -seed overrides.
func TestRunAblationSmallTrials(t *testing.T) {
	if err := run("ablation", 0, 2, 5, false); err != nil {
		t.Fatal(err)
	}
}

// TestCompareBench drives the regression gate on hand-built snapshots and
// pins BENCH_engine.json's rows to the gate table.
func TestCompareBench(t *testing.T) {
	// snapshot builds a suite holding every gated row at the same values,
	// with edit applied to the named row (nil edit drops the row).
	snapshot := func(row string, edit func(*perf.Result)) *perf.Snapshot {
		s := &perf.Snapshot{}
		for _, g := range gates {
			r := perf.Result{Name: g.row, AllocsPerOp: 1000, Metrics: map[string]float64{}}
			for _, m := range g.metrics {
				r.Metrics[m.name] = 100
			}
			if g.row == row {
				if edit == nil {
					continue
				}
				edit(&r)
			}
			s.Suite = append(s.Suite, r)
		}
		return s
	}
	committed := snapshot("", nil)
	lines, err := compare(committed, snapshot("", nil), 0.25)
	if err != nil {
		t.Fatalf("identical snapshots: %v", err)
	}
	want := 0
	for _, g := range gates {
		want += len(g.metrics)
		if g.allocs {
			want++
		}
	}
	if len(lines) != want {
		t.Fatalf("identical snapshots: %d report lines, want one per gated number (%d)", len(lines), want)
	}
	for _, tc := range []struct {
		name  string
		fresh *perf.Snapshot
		fail  bool
	}{
		{"throughput drop", snapshot("engine_static_slowbackend", func(r *perf.Result) { r.Metrics["frames/s"] = 70 }), true},
		{"ratio drop within its own band", snapshot("hetero_fleet_scatter", func(r *perf.Result) { r.Metrics["vs-single-x"] = 72 }), false},
		{"allocation rise", snapshot("hetero_fleet_single", func(r *perf.Result) { r.AllocsPerOp = 1300 }), true},
		{"missing gated row", snapshot("cache_aware_off", nil), true},
		{"missing gated metric", snapshot("engine_fairshare_mixedfleet", func(r *perf.Result) { delete(r.Metrics, "results/kdetect") }), true},
		{"improvement", snapshot("engine_globalbudget_mixedfleet", func(r *perf.Result) {
			r.Metrics["results/kdetect"] = 200
			r.AllocsPerOp = 500
		}), false},
	} {
		if _, err := compare(committed, tc.fresh, 0.25); (err != nil) != tc.fail {
			t.Errorf("%s: err = %v, want failure %t", tc.name, err, tc.fail)
		}
	}
	if _, err := compare(snapshot("hetero_fleet_single", nil), committed, 0.25); err == nil {
		t.Error("gated row missing from the committed snapshot passed")
	}

	// The committed snapshot holds exactly the gated rows, in order: no
	// committed row goes ungated and no gate goes unused.
	raw, err := os.ReadFile("../../BENCH_engine.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap perf.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	var rows, gated []string
	for _, r := range snap.Suite {
		rows = append(rows, r.Name)
	}
	for _, g := range gates {
		gated = append(gated, g.row)
	}
	if !slices.Equal(rows, gated) {
		t.Fatalf("BENCH_engine.json rows %v, gate table rows %v", rows, gated)
	}
}
