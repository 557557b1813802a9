package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/exsample/exsample"
)

func TestRunStats(t *testing.T) {
	if err := run("bddmot", 0.05, 3, "", true, false, 5); err != nil {
		t.Fatal(err)
	}
}

// TestRunExportJSON exports ground truth and reads it back through
// LoadGroundTruth: the loaded dataset must match the profile it came from
// in length, duration, classes and per-class population. amsterdam is a
// 50 fps profile, so a file that drops the frame rate reads back at the
// 30 fps default and fails the duration check.
func TestRunExportJSON(t *testing.T) {
	for _, c := range []struct {
		profile string
		scale   float64
		seed    uint64
	}{
		{"dashcam", 0.02, 5},
		{"amsterdam", 0.01, 3},
	} {
		t.Run(c.profile, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "truth.json")
			if err := run(c.profile, c.scale, c.seed, out, false, false, 5); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var doc exsample.GroundTruthFile
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			if doc.Dataset != c.profile || doc.NumFrames <= 0 || len(doc.Instances) == 0 {
				t.Fatalf("bad export: %+v", doc)
			}
			for _, in := range doc.Instances {
				if in.End < in.Start || in.Start < 0 || in.End >= doc.NumFrames {
					t.Fatalf("bad instance %+v", in)
				}
				if in.Class == "" {
					t.Fatal("empty class in export")
				}
			}

			want, err := exsample.OpenProfile(c.profile, c.scale, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := exsample.LoadGroundTruth(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if got.NumFrames() != want.NumFrames() {
				t.Errorf("NumFrames = %d, want %d", got.NumFrames(), want.NumFrames())
			}
			if math.Abs(got.Hours()-want.Hours()) > 1e-9 {
				t.Errorf("Hours = %.6f, want %.6f", got.Hours(), want.Hours())
			}
			if !slices.Equal(got.Classes(), want.Classes()) {
				t.Fatalf("Classes = %v, want %v", got.Classes(), want.Classes())
			}
			for _, class := range want.Classes() {
				g, err := got.GroundTruthCount(class)
				if err != nil {
					t.Fatal(err)
				}
				w, err := want.GroundTruthCount(class)
				if err != nil {
					t.Fatal(err)
				}
				if g != w {
					t.Errorf("GroundTruthCount(%q) = %d, want %d", class, g, w)
				}
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("nope", 0.05, 1, "", false, false, 5); err == nil {
		t.Error("unknown dataset accepted")
	}
	if err := run("dashcam", 0, 1, "", false, false, 5); err == nil {
		t.Error("zero scale accepted")
	}
	if err := run("dashcam", 0.02, 1, "/nonexistent-dir/x.json", false, false, 5); err == nil {
		t.Error("unwritable path accepted")
	}
}

func TestRunRebuild(t *testing.T) {
	if err := run("bdd1k", 0.02, 3, "", false, true, 10); err != nil {
		t.Fatal(err)
	}
}
