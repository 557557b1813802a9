package main

import (
	"crypto/sha256"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"text/tabwriter"
)

// metricDef names one metric. Bound is the share of the base value by which
// an end-to-end metric may worsen before -compare calls it a regression;
// BENCHMARK.json carries the same numbers.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEnd lists the end-to-end metrics. The timing bounds are the widest
// the benchmark contract allows: on the 2-core box the bounds were fixed on,
// ten runs of a timing spread 4-23% (interquartile, seeds differing), because
// the machine itself drifts by that much from minute to minute. Count-like
// metrics move only with the seed's inputs and get three times their
// measured spread. README.md has the measurements.
//
// fail_share is reported by this command and stored in result files;
// BENCHMARK.json leaves it out because the driver's own attempted/failed pair
// carries it and a metric there must never be 0.
var endToEnd = []metricDef{
	{"frames_per_s", "frames/s", "higher", 0.25},
	{"cpu_us_per_frame", "us", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"first_result_p50_ms", "ms", "lower", 0.25},
	{"results_per_kframe", "results/kframe", "higher", 0.12},
	{"allocs_per_frame", "allocs", "lower", 0.10},
	{"alloc_bytes_per_frame", "bytes", "lower", 0.20},
	{"live_heap_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"fail_share", "ratio", "lower", 0},
}

// timing reports whether a metric is a wall-clock or CPU timing, the kind a
// disturbed machine moves.
func (d metricDef) timing() bool {
	switch d.Name {
	case "frames_per_s", "cpu_us_per_frame", "op_p50_ms", "op_p95_ms", "first_result_p50_ms", "setup_s":
		return true
	}
	return false
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Reps holds the per-rep values behind a median, where the metric has
	// them; -compare reads the spread from it.
	Reps []float64 `json:"reps,omitempty"`
}

// workloadResult is one workload's entry in a result file.
type workloadResult struct {
	Name      string `json:"name"`
	Reps      int    `json:"reps"`
	OpsPerRep int    `json:"ops_per_rep"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Noisy marks a workload whose machine-calibration spins before and
	// after disagreed by more than calibTolerance.
	Noisy    bool                   `json:"noisy"`
	CalibMS  [2]float64             `json:"calib_ms"`
	EndToEnd map[string]metricValue `json:"end_to_end"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	Failures []string               `json:"failures,omitempty"`
}

// resultFile is what a full run writes; every field above Workloads must
// match for two files to be comparable.
type resultFile struct {
	GoVersion  string           `json:"go_version"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	C          int              `json:"c"`
	Seed       uint64           `json:"seed"`
	Seconds    float64          `json:"seconds"`
	SourceHash string           `json:"source_hash"`
	Workloads  []workloadResult `json:"workloads"`
}

// calibTolerance is how far the calibration spins before and after a
// workload may disagree before the workload is marked noisy.
const calibTolerance = 0.15

func noisy(calib [2]float64) bool {
	lo, hi := calib[0], calib[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo <= 0 || (hi-lo)/lo > calibTolerance
}

//go:embed *.go
var sources embed.FS

// sourceHash identifies the benchmark's own code, so results measured by
// different benchmark versions are never compared.
func sourceHash() string {
	h := sha256.New()
	names, _ := fs.Glob(sources, "*.go")
	sort.Strings(names)
	for _, n := range names {
		b, _ := sources.ReadFile(n)
		fmt.Fprintf(h, "%s %d\n", n, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func newResultFile(cfg config, seconds float64) *resultFile {
	return &resultFile{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		C:          cfg.clients,
		Seed:       cfg.seed,
		Seconds:    seconds,
		SourceHash: sourceHash(),
	}
}

// endToEndResult turns a measurement into the workload's result entry.
func endToEndResult(w *world, m *measurement) workloadResult {
	vals, reps := m.endToEndValues()
	res := workloadResult{
		Name:      w.spec.name,
		Reps:      len(m.reps),
		OpsPerRep: len(w.ops),
		CalibMS:   m.calib,
		Noisy:     noisy(m.calib),
		EndToEnd:  make(map[string]metricValue),
	}
	for _, d := range endToEnd {
		if d.Name == "fail_share" {
			continue
		}
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			m.fail("%s: %s is %v", w.spec.name, d.Name, v)
			continue
		}
		res.EndToEnd[d.Name] = metricValue{Value: v, Unit: d.Unit, Reps: reps[d.Name]}
	}
	res.Attempted = m.attempted()
	res.Failed = len(m.failures)
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.EndToEnd["fail_share"] = metricValue{Value: float64(res.Failed) / float64(res.Attempted), Unit: "ratio"}
	res.Failures = m.failures
	return res
}

// measureWorkload builds a workload's world (repeatedly, for setup_s),
// measures its untraced reps and verifies them. The caller closes the world.
func measureWorkload(cfg config, spec *workload, seconds float64) (*world, workloadResult, error) {
	// The smoke test builds its small world once: setup_s needs no median
	// there.
	w, setup, err := setupWorld(cfg, spec, cfg.short)
	if err != nil {
		return nil, workloadResult{}, err
	}
	m, err := measure(w, seconds)
	if err != nil {
		w.close()
		return nil, workloadResult{}, err
	}
	m.setup = setup
	return w, endToEndResult(w, m), nil
}

// driverLine prints the one-line JSON result the benchmark driver reads.
func driverLine(w io.Writer, res workloadResult, metrics map[string]metricValue) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, make(map[string]value)}
	for name, v := range metrics {
		if name != "fail_share" {
			line.Metrics[name] = value{v.Value, v.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// driverRun is the single-workload, single-mode form: untraced it sets up
// several times, measures and verifies and prints the end-to-end metrics;
// traced it prints the per-layer metrics.
func driverRun(cfg config, spec *workload, seconds float64, traced bool, spansPath string) int {
	var w *world
	var res workloadResult
	var err error
	if traced {
		if w, _, err = setupWorld(cfg, spec, true); err == nil {
			res, err = layerResult(w, spansPath)
		}
	} else {
		w, res, err = measureWorkload(cfg, spec, seconds)
	}
	if w != nil {
		defer w.close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "benchmark: %s: FAIL %s\n", spec.name, f)
	}
	metrics := res.EndToEnd
	if traced {
		metrics = res.PerLayer
	}
	if err := driverLine(os.Stdout, res, metrics); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// fullRun is the one command: every workload (or the named one) untraced
// with verification, every end-to-end metric printed by name and unit, then
// a separate traced pass for the per-layer numbers, and a result file.
func fullRun(cfg config, only string, seconds float64, outPath, spansPath string) int {
	specs := workloads
	if only != "" {
		spec := workloadByName(only)
		if spec == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q, want one of %v\n", only, workloadNames())
			return 2
		}
		specs = []*workload{spec}
	}
	if outPath == "" {
		outPath = filepath.Join("benchmark", "out", fmt.Sprintf("result-seed%d.json", cfg.seed))
	}
	os.Remove(spansPath)
	file := newResultFile(cfg, seconds)
	fmt.Printf("benchmark: seed %d, C=%d, %s, GOMAXPROCS %d, source %s\n",
		cfg.seed, cfg.clients, file.GoVersion, file.GOMAXPROCS, file.SourceHash)
	failed := 0
	for _, spec := range specs {
		w, res, err := measureWorkload(cfg, spec, seconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		layers, err := layerResult(w, spansPath)
		w.close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		res.PerLayer = layers.PerLayer
		res.Failures = append(res.Failures, layers.Failures...)
		res.Failed += layers.Failed
		res.Attempted += layers.Attempted
		res.EndToEnd["fail_share"] = metricValue{Value: float64(res.Failed) / float64(res.Attempted), Unit: "ratio"}
		printWorkload(os.Stdout, res)
		failed += res.Failed
		file.Workloads = append(file.Workloads, res)
	}
	if err := writeResult(outPath, file); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("result file: %s\nspans: %s\n", outPath, spansPath)
	if failed > 0 {
		fmt.Printf("FAIL: %d verification failures\n", failed)
		return 1
	}
	return 0
}

func printWorkload(out io.Writer, res workloadResult) {
	fmt.Fprintf(out, "\n== %s: %d reps x %d ops", res.Name, res.Reps, res.OpsPerRep)
	if res.Noisy {
		fmt.Fprintf(out, "  [noisy: calibration %.1f ms -> %.1f ms]", res.CalibMS[0], res.CalibMS[1])
	}
	fmt.Fprintln(out)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, d := range endToEnd {
		if v, ok := res.EndToEnd[d.Name]; ok {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t(%s is better)\n", d.Name, v.Value, d.Unit, d.Better)
		}
	}
	tw.Flush()
	if len(res.PerLayer) > 0 {
		fmt.Fprintln(out, "  -- per layer (traced pass and layer drivers)")
		tw = tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
		for _, d := range perLayer {
			if v, ok := res.PerLayer[d.Name]; ok {
				fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.Name, v.Value, d.Unit)
			}
		}
		tw.Flush()
	}
	for _, f := range res.Failures {
		fmt.Fprintf(out, "  FAIL %s\n", f)
	}
}

func writeResult(path string, file *resultFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultFile
	if err := json.Unmarshal(b, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &file, nil
}
