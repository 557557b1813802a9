package bench

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"
)

// TestPaperExperimentDigests pins the rendered output of the detector
// experiments — Table I and Figure 5, both run through Search — at a small
// scale, as an FNV-64a hash of Render's bytes. The shape tests above check
// who wins; this one fails on any change to a single printed figure, so a
// refactor that claims to leave the reproduction alone can show it did.
func TestPaperExperimentDigests(t *testing.T) {
	table1 := DefaultTable1()
	table1.Scale = 0.02
	table1.Profiles = []string{"dashcam", "bdd1k"}
	fig5 := DefaultFig5()
	fig5.Scale = 0.02
	fig5.Trials = 3
	fig5.Profiles = []string{"dashcam"}
	type renderer interface{ Render(io.Writer) error }
	cases := []struct {
		name string
		run  func() (renderer, error)
		want string
	}{
		{"table1", func() (renderer, error) { return RunTable1(table1) }, "b3f9eebb33bef895"},
		{"fig5", func() (renderer, error) { return RunFig5(fig5) }, "c37cfe1dcc5a7aae"},
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
