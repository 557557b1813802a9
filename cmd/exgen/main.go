// Command exgen generates a synthetic dataset and exports its ground truth
// as JSON (exsample.GroundTruthFile, the format exsample.LoadGroundTruth
// reads back), along with summary statistics (per-chunk histograms and the
// Figure 6 skew metric).
//
// Usage:
//
//	exgen -dataset amsterdam -scale 0.05 -out truth.json
//	exgen -dataset bdd1k -scale 0.05 -stats
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/exsample/exsample"
	"github.com/exsample/exsample/internal/datasets"
	"github.com/exsample/exsample/internal/detect"
	"github.com/exsample/exsample/internal/metrics"
	"github.com/exsample/exsample/internal/sorttrack"
	"github.com/exsample/exsample/internal/synth"
)

func main() {
	var (
		dataset = flag.String("dataset", "dashcam", "profile name")
		scale   = flag.Float64("scale", 0.05, "dataset scale")
		seed    = flag.Uint64("seed", 1, "generation seed")
		out     = flag.String("out", "", "write ground truth JSON to this path ('-' = stdout)")
		stats   = flag.Bool("stats", false, "print per-class population and skew statistics")
		rebuild = flag.Bool("rebuild", false, "rerun the paper's §V-A ground-truth pipeline (sequential scan + SORT) and score recovery")
		stride  = flag.Int64("stride", 5, "scan stride for -rebuild")
	)
	flag.Parse()
	if err := run(*dataset, *scale, *seed, *out, *stats, *rebuild, *stride); err != nil {
		fmt.Fprintln(os.Stderr, "exgen:", err)
		os.Exit(1)
	}
}

func run(dataset string, scale float64, seed uint64, out string, stats, rebuild bool, stride int64) error {
	p, err := datasets.ProfileByName(dataset)
	if err != nil {
		return err
	}
	ds, err := datasets.Build(p, scale, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%s @ scale %.2f: %d frames, %d files, %d chunks, %d instances\n",
		dataset, scale, ds.Repo.NumFrames(), ds.Repo.NumFiles(), len(ds.Chunks), len(ds.Instances))

	if stats {
		fmt.Printf("\n%-16s %8s %10s %10s %8s %8s\n", "class", "N", "mean dur", "max dur", "S", "k(half)")
		for _, q := range p.Queries {
			instances := ds.ClassInstances(q.Class)
			d := synth.Durations(instances)
			hist := metrics.ChunkHistogram(instances, ds.Chunks)
			s, err := metrics.SkewMetric(hist)
			if err != nil {
				return err
			}
			k, err := metrics.MinChunksForHalf(hist)
			if err != nil {
				return err
			}
			fmt.Printf("%-16s %8d %10.0f %10d %8.1f %8d\n",
				q.Class, len(instances), d.Mean, d.Max, s, k)
		}
	}

	if rebuild {
		detector, err := detect.NewSim(ds.Index, seed^0x6007, detect.WithNoise(detect.NoiseModel{
			MissProb: 0.05, JitterFrac: 0.02, MinScore: 0.5, MaxScore: 0.99,
		}))
		if err != nil {
			return err
		}
		res, err := sorttrack.BuildGroundTruth(detector, ds.Repo.NumFrames(), stride, sorttrack.Config{})
		if err != nil {
			return err
		}
		fmt.Printf("\nrebuilt ground truth: scanned %d frames (stride %d), recovered %d tracks\n",
			res.FramesScanned, stride, len(res.Instances))
		fmt.Printf("%-16s %10s %10s %8s\n", "class", "true", "recovered", "ratio")
		cmp := sorttrack.CompareToTruth(res.Instances, ds.Instances)
		for _, q := range p.Queries {
			c := cmp[q.Class]
			fmt.Printf("%-16s %10d %10d %8.2f\n", q.Class, c.TrueCount, c.RecoveredCount, c.CountRatio)
		}
	}

	if out == "" {
		return nil
	}
	// The export goes through the public dataset so the file is exactly
	// what LoadGroundTruth reads back, frame rate included.
	d, err := exsample.OpenProfile(dataset, scale, seed)
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := d.SaveGroundTruth(w); err != nil {
		return err
	}
	if out != "-" {
		fmt.Printf("wrote %d instances to %s\n", len(ds.Instances), out)
	}
	return nil
}
