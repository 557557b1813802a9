package bench

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"
)

// TestPaperExperimentDigests pins the rendered output of every experiment
// exbench prints — Table I, Figures 3–5 and the ablation through Search,
// Figure 2 through internal/sim, Figure 6 from ground truth — at the shape
// tests' small configurations, as an FNV-64a hash of Render's bytes. The
// shape tests check who wins; this one fails on any change to a single
// printed figure, so a refactor that claims to leave the reproduction alone
// can show it did.
func TestPaperExperimentDigests(t *testing.T) {
	table1 := DefaultTable1()
	table1.Scale = 0.02
	table1.Profiles = []string{"dashcam", "bdd1k"}
	fig5 := DefaultFig5()
	fig5.Scale = 0.02
	fig5.Trials = 3
	fig5.Profiles = []string{"dashcam"}
	fig4 := DefaultFig4()
	fig4.NumInstances = 400
	fig4.NumFrames = 400_000
	fig4.Trials = 3
	fig4.Budget = 4000
	fig4.ChunkCounts = []int{1, 16, 128}
	fig4.Checkpoints = []int64{500, 2000, 4000}
	fig6 := DefaultFig6()
	fig6.Scale = 0.1
	ablation := DefaultAblation()
	ablation.NumInstances = 400
	ablation.NumFrames = 400_000
	ablation.NumChunks = 64
	ablation.Target = 100
	ablation.Budget = 4000
	ablation.Trials = 3
	ablation.Alpha0Values = []float64{0.1, 1}
	type renderer interface{ Render(io.Writer) error }
	cases := []struct {
		name string
		run  func() (renderer, error)
		want string
	}{
		{"table1", func() (renderer, error) { return RunTable1(table1) }, "b3f9eebb33bef895"},
		{"fig5", func() (renderer, error) { return RunFig5(fig5) }, "c37cfe1dcc5a7aae"},
		{"fig2", func() (renderer, error) { return RunFig2(tinyFig2()) }, "9f7a9701446a6151"},
		{"fig3", func() (renderer, error) { return RunFig3(tinyFig3()) }, "a9e8593d714ae6d7"},
		{"fig4", func() (renderer, error) { return RunFig4(fig4) }, "8544c43f1f524f7c"},
		{"fig6", func() (renderer, error) { return RunFig6(fig6) }, "e2568ebb7d5da25c"},
		{"ablation", func() (renderer, error) { return RunAblation(ablation) }, "9a435fc408fe1181"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			if err := res.Render(h); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%016x", h.Sum64()); got != c.want {
				t.Errorf("render digest %s, want %s", got, c.want)
			}
		})
	}
}
