package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesCode pins BENCHMARK.json to the names, units,
// directions and bounds the command itself uses.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the command %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s %q: bad name or unit %q", kind, d.Name, d.Unit)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %q: bound present = %v", kind, d.Name, g.Bound != nil)
			} else if bounded && (*g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s %q: bound %v in BENCHMARK.json, %v in the command", kind, d.Name, *g.Bound, d.Bound)
			}
		}
	}
	var e2e []metricDef
	for _, d := range endToEnd {
		if d.Name != "fail_share" { // carried by the driver's attempted/failed
			e2e = append(e2e, d)
		}
	}
	check("end_to_end", m.EndToEnd, e2e, true)
	check("per_layer", m.PerLayer, perLayer, false)
}

// TestSmoke runs all seven workloads at smoke-test sizes: the untraced
// measurement with verification, then the traced pass and layer drivers, and
// requires every name in BENCHMARK.json to be emitted, finite, and every
// verification to pass.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	for i, spec := range workloads {
		w, res, err := measureWorkload(config{seed: 7, clients: 2, short: true}, spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		layers, err := layerResult(w, spans)
		w.close()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range append(res.Failures, layers.Failures...) {
			t.Errorf("%s: %s", spec.name, f)
		}
		if m.Workloads[i].Name != res.Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, res.Name, m.Workloads[i].Name)
		}
		var line bytes.Buffer
		if err := driverLine(&line, res, res.EndToEnd); err != nil {
			t.Fatal(err)
		}
		emitted := func(kind string, want []manifestMetric, got map[string]metricValue, positive bool) {
			for _, d := range want {
				v, ok := got[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s metric %s not emitted", spec.name, kind, d.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (positive && v.Value <= 0):
					t.Errorf("%s: %s = %v", spec.name, d.Name, v.Value)
				case v.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, want %q", spec.name, d.Name, v.Unit, d.Unit)
				}
			}
		}
		emitted("end-to-end", m.EndToEnd, res.EndToEnd, true)
		emitted("per-layer", m.PerLayer, layers.PerLayer, false)
		if !strings.Contains(line.String(), `"correct":true`) {
			t.Errorf("%s: driver line %s", spec.name, line.String())
		}
	}
	if b, err := os.ReadFile(spans); err != nil || len(b) == 0 {
		t.Errorf("traced pass wrote no spans: %v", err)
	}
}

// TestOpListsFollowSeed: equal seeds give identical op lists, different
// seeds different ones.
func TestOpListsFollowSeed(t *testing.T) {
	ops := func(spec *workload, seed uint64) []op {
		w, err := buildWorld(config{seed: seed, clients: 2, short: true}, spec)
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		return w.ops
	}
	for _, spec := range workloads {
		a, b, c := ops(spec, 1), ops(spec, 1), ops(spec, 2)
		if len(a) == 0 {
			t.Errorf("%s: empty op list", spec.name)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: op lists differ for equal seeds", spec.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: op lists are equal for different seeds", spec.name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: spanOp, Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: spanBackend, Start: 10, End: 60},
		{ID: 3, Parent: 2, Op: 1, Name: spanDetect, Start: 20, End: 50},
		{ID: 4, Parent: 1, Op: 1, Name: spanBackend, Start: 70, End: 110}, // outlives its parent: clipped
	}
	byName, gap := selfByName(spans)
	if byName[spanOp] != 100-50-30 || byName[spanBackend] != 20+40 || byName[spanDetect] != 30 {
		t.Errorf("self times %v", byName)
	}
	if want := 10.0 / 100; math.Abs(gap-want) > 1e-9 {
		t.Errorf("gap %v, want %v", gap, want)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f *resultFile) string {
		path := filepath.Join(dir, name)
		if err := writeResult(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	mk := func(fps, rpk float64, noisy bool) *resultFile {
		f := newResultFile(config{seed: 3, clients: 2}, 10)
		f.Workloads = []workloadResult{{Name: "search_few_chunks", Noisy: noisy, EndToEnd: map[string]metricValue{
			"frames_per_s":       {Value: fps, Unit: "frames/s", Reps: []float64{fps * 0.99, fps, fps * 1.01}},
			"results_per_kframe": {Value: rpk, Unit: "results/kframe"},
		}}}
		return f
	}
	base := write("base.json", mk(1000, 50, false))
	run := func(a, b string) (int, string) {
		var out bytes.Buffer
		code := compareFiles(&out, a, b)
		return code, out.String()
	}
	if code, out := run(base, write("same.json", mk(1005, 50, false))); code != 0 || !strings.Contains(out, verdictWithin) {
		t.Errorf("equal runs: exit %d\n%s", code, out)
	}
	if code, out := run(base, write("slow.json", mk(700, 50, false))); code != 1 || !strings.Contains(out, verdictWorse) {
		t.Errorf("slower run: exit %d\n%s", code, out)
	}
	if code, out := run(base, write("fast.json", mk(1500, 50, false))); code != 0 || !strings.Contains(out, verdictBetter) {
		t.Errorf("faster run: exit %d\n%s", code, out)
	}
	if code, out := run(base, write("count.json", mk(1000, 49.9, false))); code != 1 {
		t.Errorf("a count that moved must be worse: exit %d\n%s", code, out)
	}
	if code, out := run(base, write("noisy.json", mk(700, 50, true))); code != 0 || !strings.Contains(out, verdictUnresolved) {
		t.Errorf("noisy run: exit %d\n%s", code, out)
	}
	wide := mk(930, 50, false)
	wide.Workloads[0].EndToEnd["frames_per_s"] = metricValue{Value: 930, Unit: "frames/s", Reps: []float64{600, 930, 1300}}
	if code, out := run(base, write("wide.json", wide)); code != 0 || !strings.Contains(out, verdictUnresolved) {
		t.Errorf("wide overlapping reps: exit %d\n%s", code, out)
	}
	other := mk(1000, 50, false)
	other.Seed = 4
	if code, out := run(base, write("seed.json", other)); code != 2 || !strings.Contains(out, "seed differs") {
		t.Errorf("different seeds: exit %d\n%s", code, out)
	}
}
