// Track-predicate queries: find object *trajectories* — not just distinct
// objects — matching spatial and kinematic clauses, MIRIS-style. The query
// runs an accelerate/refine loop: a coarse stride pass localizes candidate
// intervals, then only those intervals are densified, tracked and matched,
// so a sparse scene costs a small fraction of a dense scan.
package main

import (
	"fmt"
	"log"

	exsample "github.com/exsample/exsample"
)

func main() {
	// A sparse synthetic scene: 8 cars over ~22 minutes of 30fps video,
	// each travelling 300 px rightward over its lifetime (TravelX), so
	// speed and direction clauses have something to discriminate on.
	ds, err := exsample.Synthesize(exsample.SynthSpec{
		NumFrames:    40_000,
		NumInstances: 8,
		Class:        "car",
		MeanDuration: 300,
		ChunkFrames:  1000,
		Seed:         7,
		TravelX:      300,
	})
	if err != nil {
		log.Fatal(err)
	}

	// "Cars visible for at least 50 frames, moving roughly rightward."
	// MinDuration doubles as the coarse-stride hint: an object on screen
	// for 50 frames cannot slip through a 25-frame grid.
	pred := exsample.TrackPredicate{
		Class:       "car",
		MinDuration: 50,
		Direction:   &exsample.DirectionRange{MinDeg: 315, MaxDeg: 45}, // wraps through 0°
	}

	rep, err := ds.TrackSearch(pred, exsample.TrackOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("matched %d tracks\n", len(rep.Results))
	fmt.Printf("detector frames: %d of %d dense (%.1fx avoided)\n",
		rep.FramesProcessed, rep.DenseFrames, rep.Speedup())
	fmt.Printf("phases: %d coarse + %d refine over %d candidate intervals (%d frames)\n\n",
		rep.CoarseFrames, rep.RefineFrames, rep.Intervals, rep.IntervalFrames)
	for _, t := range rep.Results {
		fmt.Printf("  track %d: frames %d..%d (%d hits), %.1f px/frame\n",
			t.TrackID, t.Start, t.End, t.Hits, t.AvgSpeed)
	}

	// The same predicate refined with a region clause: only tracks whose
	// smoothed path crosses a virtual tripwire. Invalid predicates are
	// rejected up front with field-level errors (errors.Is against
	// exsample.ErrInvalidPredicate).
	pred.Crosses = &exsample.Segment{
		A: exsample.Point{X: 700, Y: 0},
		B: exsample.Point{X: 700, Y: 2000},
	}
	rep, err = ds.TrackSearch(pred, exsample.TrackOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncrossing the x=700 tripwire: %d of the rightward tracks\n", len(rep.Results))
}
