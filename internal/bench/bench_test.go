package bench

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	exsample "github.com/exsample/exsample"
)

func TestFmtRatio(t *testing.T) {
	cases := map[float64]string{
		3.912: "3.9x",
		0.79:  "0.79x",
		84:    "84x",
		0:     "-",
	}
	for in, want := range cases {
		if got := fmtRatio(in); got != want {
			t.Errorf("fmtRatio(%v) = %q, want %q", in, got, want)
		}
	}
}

// TestReadCurve checks readCurve against hand-built discovery records.
func TestReadCurve(t *testing.T) {
	// A first result at frame 5, two more by frame 9, a frame at 14 that
	// saw only known objects, and a fourth result at frame 20.
	rep := &exsample.Report{CurveSamples: []int64{5, 9, 14, 20}, CurveFound: []int{1, 3, 3, 4}}
	cases := []struct {
		name                 string
		rep                  *exsample.Report
		checkpoints, targets []int64
		found, reached       []int64
	}{
		{"checkpoint before the first result", rep, []int64{4}, nil, []int64{0}, []int64{}},
		{"checkpoints on and between points", rep, []int64{5, 8, 9, 19, 20, 100}, nil, []int64{1, 1, 3, 3, 4, 4}, []int64{}},
		{"target hit exactly at a point", rep, nil, []int64{1, 3, 4}, []int64{}, []int64{5, 9, 20}},
		{"target inside a jump", rep, nil, []int64{2}, []int64{}, []int64{9}},
		{"unreached target", rep, nil, []int64{3, 5}, []int64{}, []int64{9, -1}},
		{"empty record", &exsample.Report{}, []int64{10}, []int64{1}, []int64{0}, []int64{-1}},
	}
	for _, c := range cases {
		found, reached := readCurve(c.rep, c.checkpoints, c.targets)
		if !slices.Equal(found, c.found) || !slices.Equal(reached, c.reached) {
			t.Errorf("%s: found %v reached %v, want %v %v", c.name, found, reached, c.found, c.reached)
		}
	}
}

func tinyFig2() Fig2Config {
	cfg := DefaultFig2()
	cfg.NumInstances = 300
	cfg.Runs = 60
	cfg.Probes = []int64{100, 5000, 40000}
	return cfg
}

func TestFig2ShapesHold(t *testing.T) {
	res, err := RunFig2(tinyFig2())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Count == 0 {
			t.Fatalf("row n=%d has no samples", row.N)
		}
		// Belief mean should be within an order of magnitude of truth at
		// mid/late n (the paper's "fits the histograms very well" regime).
		if row.N >= 5000 && row.ActualMean > 0 {
			ratio := row.BeliefMean / row.ActualMean
			if ratio < 0.2 || ratio > 5 {
				t.Errorf("n=%d: belief mean %v vs actual %v", row.N, row.BeliefMean, row.ActualMean)
			}
		}
		// Coverage should be substantial (paper reports ~80% under
		// dependence; independent simulation should be >= that).
		if row.N >= 5000 && row.Coverage95 < 0.6 {
			t.Errorf("n=%d: coverage %v", row.N, row.Coverage95)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 2") {
		t.Error("render missing header")
	}
}

func tinyFig3() Fig3Config {
	cfg := DefaultFig3()
	cfg.NumInstances = 400
	cfg.NumFrames = 400_000
	cfg.NumChunks = 64
	cfg.Trials = 3
	cfg.Budget = 4000
	cfg.Skews = []float64{0, 1.0 / 32}
	cfg.MeanDurs = []float64{700}
	cfg.Targets = []int64{10, 100}
	return cfg
}

func TestFig3SkewBeatsNoSkew(t *testing.T) {
	res, err := RunFig3(tinyFig3())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("%d cells", len(res.Cells))
	}
	noSkew := res.cell(0, 700)
	skewed := res.cell(1.0/32, 700)
	if noSkew == nil || skewed == nil {
		t.Fatal("cells missing")
	}
	// Savings at 100 results must be larger under skew than without.
	if skewed.SavingsAt[1] <= noSkew.SavingsAt[1] {
		t.Errorf("skewed savings %v <= no-skew %v", skewed.SavingsAt[1], noSkew.SavingsAt[1])
	}
	if skewed.SavingsAt[1] < 1.3 {
		t.Errorf("skewed savings %v, want > 1.3", skewed.SavingsAt[1])
	}
	// Without skew ExSample is not significantly worse (paper: 0.79x worst).
	if noSkew.SavingsAt[1] != 0 && noSkew.SavingsAt[1] < 0.6 {
		t.Errorf("no-skew savings %v, want >= 0.6", noSkew.SavingsAt[1])
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 3") {
		t.Error("render missing header")
	}
}

func TestFig4ChunkSweep(t *testing.T) {
	cfg := DefaultFig4()
	cfg.NumInstances = 400
	cfg.NumFrames = 400_000
	cfg.Trials = 3
	cfg.Budget = 4000
	cfg.ChunkCounts = []int{1, 16, 128}
	cfg.Checkpoints = []int64{500, 2000, 4000}
	res, err := RunFig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("%d series", len(res.Series))
	}
	// Compare mid-trajectory (the final checkpoint saturates near the full
	// population, hiding differences). 1 chunk == random sampling.
	one := res.Series[0].Found[1]
	rnd := res.Random.Found[1]
	if one < rnd*0.7 || one > rnd*1.3 {
		t.Errorf("1-chunk found %v vs random %v; should be equivalent", one, rnd)
	}
	// A well-chosen chunk count beats 1 chunk under skew.
	sixteen := res.Series[1].Found[1]
	if sixteen <= one {
		t.Errorf("16 chunks found %v <= 1 chunk %v under skew", sixteen, one)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 4") {
		t.Error("render missing header")
	}
}

func TestTable1ScanDominates(t *testing.T) {
	cfg := DefaultTable1()
	cfg.Scale = 0.02
	cfg.Profiles = []string{"dashcam", "bdd1k"}
	res, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 15 { // 7 dashcam + 8 bdd1k
		t.Fatalf("%d rows", len(res.Rows))
	}
	// The paper's claim: for all queries, 90% recall arrives before the
	// proxy scan completes. Allow a small number of exceptions at tiny
	// scale.
	if res.BeatScanCount < len(res.Rows)-2 {
		t.Errorf("only %d/%d queries beat the scan", res.BeatScanCount, len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.ScanSeconds <= 0 {
			t.Fatalf("%s/%s: no scan time", row.Dataset, row.Class)
		}
		// Times to higher recall are monotone where reached.
		prev := -1.0
		for _, s := range row.RecallSeconds {
			if s < 0 {
				continue
			}
			if s < prev {
				t.Fatalf("%s/%s: recall times not monotone: %v", row.Dataset, row.Class, row.RecallSeconds)
			}
			prev = s
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table I") {
		t.Error("render missing header")
	}
}

func TestFig5SavingsShape(t *testing.T) {
	cfg := DefaultFig5()
	cfg.Scale = 0.02
	cfg.Trials = 3
	cfg.Profiles = []string{"dashcam"}
	res, err := RunFig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if res.OverallGeoMean <= 0 {
		t.Fatal("no overall geomean")
	}
	// ExSample should on average beat random on these skewed profiles.
	if res.OverallGeoMean < 1.0 {
		t.Errorf("overall geomean %v < 1", res.OverallGeoMean)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Error("render missing header")
	}
}

func TestFig6Panels(t *testing.T) {
	cfg := DefaultFig6()
	cfg.Scale = 0.1
	res, err := RunFig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 5 {
		t.Fatalf("%d panels", len(res.Panels))
	}
	byName := map[string]Fig6Panel{}
	for _, p := range res.Panels {
		byName[p.Dataset+"/"+p.Class] = p
		if p.N <= 0 || p.S <= 0 || p.HalfChunks <= 0 {
			t.Fatalf("bad panel %+v", p)
		}
	}
	// Skew ordering from the paper.
	if byName["dashcam/bicycle"].S < byName["archie/car"].S {
		t.Error("dashcam/bicycle should be more skewed than archie/car")
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Error("render missing header")
	}
}

func TestAblationVariants(t *testing.T) {
	cfg := DefaultAblation()
	cfg.NumInstances = 400
	cfg.NumFrames = 400_000
	cfg.NumChunks = 64
	cfg.Target = 100
	cfg.Budget = 4000
	cfg.Trials = 3
	cfg.Alpha0Values = []float64{0.1, 1}
	res, err := RunAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4 named variants + 2 alpha values + random reference.
	if len(res.Rows) != 7 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	var paper, random *AblationRow
	for i := range res.Rows {
		switch res.Rows[i].Variant {
		case "thompson/random+ (paper)":
			paper = &res.Rows[i]
		case "random (reference)":
			random = &res.Rows[i]
		}
	}
	if paper == nil || random == nil {
		t.Fatal("expected variants missing")
	}
	if paper.MedianSamples <= 0 {
		t.Fatal("paper variant missed target")
	}
	if random.MedianSamples > 0 && paper.MedianSamples >= random.MedianSamples {
		t.Errorf("paper variant %v samples >= random %v on skewed workload",
			paper.MedianSamples, random.MedianSamples)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Ablations") {
		t.Error("render missing header")
	}
}

func TestRunValidationErrors(t *testing.T) {
	if _, err := RunFig3(Fig3Config{}); err == nil {
		t.Error("empty fig3 config accepted")
	}
	if _, err := RunFig4(Fig4Config{}); err == nil {
		t.Error("empty fig4 config accepted")
	}
	if _, err := RunTable1(Table1Config{}); err == nil {
		t.Error("empty table1 config accepted")
	}
	if _, err := RunFig5(Fig5Config{}); err == nil {
		t.Error("empty fig5 config accepted")
	}
	if _, err := RunFig6(Fig6Config{}); err == nil {
		t.Error("empty fig6 config accepted")
	}
	if _, err := RunAblation(AblationConfig{}); err == nil {
		t.Error("empty ablation config accepted")
	}
	// A NaN scale fails the bound itself, whatever else is missing.
	nan := math.NaN()
	_, table1 := RunTable1(Table1Config{Scale: nan, Recalls: []float64{0.5}})
	_, fig5 := RunFig5(Fig5Config{Scale: nan, Recalls: []float64{0.5}, Trials: 1})
	_, fig6 := RunFig6(Fig6Config{Scale: nan})
	for name, err := range map[string]error{"table1": table1, "fig5": fig5, "fig6": fig6} {
		if err == nil || !strings.Contains(err.Error(), "outside (0,1]") {
			t.Errorf("%s with a NaN scale: %v, want an %q error", name, err, "outside (0,1]")
		}
	}
}
