package detect

import (
	"math"
	"testing"

	"github.com/exsample/exsample/internal/geom"
	"github.com/exsample/exsample/internal/track"
)

func buildIndex(t *testing.T, instances []track.Instance, numFrames int64) *track.Index {
	t.Helper()
	idx, err := track.NewIndex(instances, numFrames, 0)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func inst(id int, class string, start, end int64) track.Instance {
	return track.Instance{
		ID: id, Class: class, Start: start, End: end,
		StartBox: geom.Rect(100, 100, 50, 80),
		EndBox:   geom.Rect(400, 300, 60, 90),
	}
}

func TestPerfectDetectorFindsAllVisible(t *testing.T) {
	idx := buildIndex(t, []track.Instance{
		inst(0, "car", 0, 99),
		inst(1, "bus", 50, 60),
	}, 1000)
	d, err := Perfect(idx)
	if err != nil {
		t.Fatal(err)
	}
	dets := d.Detect(55)
	if len(dets) != 2 {
		t.Fatalf("Detect(55) = %d detections", len(dets))
	}
	dets = d.Detect(200)
	if len(dets) != 0 {
		t.Fatalf("Detect(200) = %d detections", len(dets))
	}
}

func TestPerfectDetectorBoxesMatchGroundTruth(t *testing.T) {
	in := inst(0, "car", 0, 10)
	idx := buildIndex(t, []track.Instance{in}, 100)
	d, err := Perfect(idx)
	if err != nil {
		t.Fatal(err)
	}
	dets := d.Detect(5)
	if len(dets) != 1 {
		t.Fatalf("got %d detections", len(dets))
	}
	want := in.BoxAt(5)
	if geom.IoU(dets[0].Box, want) < 0.999 {
		t.Fatalf("box = %+v, want %+v", dets[0].Box, want)
	}
	if dets[0].TruthID != 0 {
		t.Fatalf("TruthID = %d", dets[0].TruthID)
	}
}

func TestClassRestriction(t *testing.T) {
	idx := buildIndex(t, []track.Instance{
		inst(0, "car", 0, 99),
		inst(1, "bus", 0, 99),
	}, 100)
	d, err := Perfect(idx, WithClass("bus"))
	if err != nil {
		t.Fatal(err)
	}
	dets := d.Detect(10)
	if len(dets) != 1 || dets[0].Class != "bus" {
		t.Fatalf("dets = %+v", dets)
	}
}

func TestDetectIsDeterministicPerFrame(t *testing.T) {
	idx := buildIndex(t, []track.Instance{inst(0, "car", 0, 999)}, 1000)
	d, err := NewSim(idx, 42, WithNoise(NoiseModel{MissProb: 0.5, JitterFrac: 0.1, FalsePositiveRate: 0.5, MinScore: 0.5, MaxScore: 0.9}))
	if err != nil {
		t.Fatal(err)
	}
	for frame := int64(0); frame < 50; frame++ {
		a := d.Detect(frame)
		b := d.Detect(frame)
		if len(a) != len(b) {
			t.Fatalf("frame %d: %d vs %d detections on repeat", frame, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("frame %d det %d differs on repeat", frame, i)
			}
		}
	}
}

func TestMissProbabilityRoughlyHonored(t *testing.T) {
	idx := buildIndex(t, []track.Instance{inst(0, "car", 0, 99999)}, 100000)
	d, err := NewSim(idx, 7, WithNoise(NoiseModel{MissProb: 0.3, MinScore: 0.5, MaxScore: 0.9}))
	if err != nil {
		t.Fatal(err)
	}
	missed := 0
	const n = 20000
	// Sample interior frames to avoid the (zero here) edge boost.
	for f := int64(20000); f < 20000+n; f++ {
		if len(d.Detect(f)) == 0 {
			missed++
		}
	}
	frac := float64(missed) / n
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("miss fraction = %v, want ~0.3", frac)
	}
}

func TestEdgeMissBoost(t *testing.T) {
	// 1000-frame instance: the first and last 100 frames carry the boost.
	idx := buildIndex(t, []track.Instance{inst(0, "car", 0, 999)}, 1000)
	d, err := NewSim(idx, 11, WithNoise(NoiseModel{MissProb: 0, EdgeMissBoost: 1.0, MinScore: 0.5, MaxScore: 0.9}))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Detect(10); len(got) != 0 {
		t.Fatalf("edge frame detected with boost=1: %+v", got)
	}
	if got := d.Detect(500); len(got) != 1 {
		t.Fatalf("interior frame missed with MissProb=0: %+v", got)
	}
	if got := d.Detect(995); len(got) != 0 {
		t.Fatalf("trailing edge frame detected with boost=1: %+v", got)
	}
}

func TestFalsePositives(t *testing.T) {
	idx := buildIndex(t, nil, 10000)
	d, err := NewSim(idx, 13, WithNoise(NoiseModel{FalsePositiveRate: 0.25, MinScore: 0.5, MaxScore: 0.9}))
	if err != nil {
		t.Fatal(err)
	}
	fps := 0
	const n = 10000
	for f := int64(0); f < n; f++ {
		for _, det := range d.Detect(f) {
			if det.TruthID != -1 {
				t.Fatalf("frame %d produced non-FP detection from empty truth", f)
			}
			fps++
		}
	}
	frac := float64(fps) / n
	if frac < 0.2 || frac > 0.3 {
		t.Fatalf("FP rate = %v, want ~0.25", frac)
	}
}

func TestFalsePositiveRateAboveOne(t *testing.T) {
	idx := buildIndex(t, nil, 100)
	d, err := NewSim(idx, 5, WithNoise(NoiseModel{FalsePositiveRate: 2.5, MinScore: 0.5, MaxScore: 0.9}))
	if err != nil {
		t.Fatal(err)
	}
	for f := int64(0); f < 100; f++ {
		n := len(d.Detect(f))
		if n < 2 || n > 3 {
			t.Fatalf("frame %d: %d FPs with rate 2.5", f, n)
		}
	}
}

func TestNoiseValidation(t *testing.T) {
	idx := buildIndex(t, nil, 10)
	bad := []NoiseModel{
		{MissProb: -0.1},
		{MissProb: 1.5},
		{EdgeMissBoost: 2},
		{JitterFrac: 0.9},
		{FalsePositiveRate: -1},
		{MissProb: math.NaN()},
		{EdgeMissBoost: math.NaN()},
		{JitterFrac: math.NaN()},
		{FalsePositiveRate: math.NaN()},
		{FalsePositiveRate: math.Inf(1)},
	}
	for i, nm := range bad {
		if _, err := NewSim(idx, 1, WithNoise(nm)); err == nil {
			t.Errorf("noise case %d accepted", i)
		}
	}
	if _, err := NewSim(idx, 1, WithCost(-1)); err == nil {
		t.Error("negative cost accepted")
	}
}

func TestJitterStaysNearTruth(t *testing.T) {
	in := inst(0, "car", 0, 999)
	idx := buildIndex(t, []track.Instance{in}, 1000)
	d, err := NewSim(idx, 3, WithNoise(NoiseModel{JitterFrac: 0.05, MinScore: 0.5, MaxScore: 0.9}))
	if err != nil {
		t.Fatal(err)
	}
	for f := int64(0); f < 1000; f += 37 {
		dets := d.Detect(f)
		if len(dets) != 1 {
			t.Fatalf("frame %d: %d detections", f, len(dets))
		}
		if geom.IoU(dets[0].Box, in.BoxAt(f)) < 0.7 {
			t.Fatalf("frame %d: jittered box too far from truth (IoU %v)", f, geom.IoU(dets[0].Box, in.BoxAt(f)))
		}
	}
}

func TestCallsCounter(t *testing.T) {
	idx := buildIndex(t, nil, 10)
	d, err := Perfect(idx)
	if err != nil {
		t.Fatal(err)
	}
	d.Detect(0)
	d.Detect(1)
	if d.Calls() != 2 {
		t.Fatalf("Calls = %d", d.Calls())
	}
}

func TestSimDetectAllocs(t *testing.T) {
	var instances []track.Instance
	for i := 0; i < 50; i++ {
		class := "car"
		if i >= 40 {
			class = "bus"
		}
		instances = append(instances, inst(i, class, 0, 99))
	}
	idx := buildIndex(t, instances, 1000)
	noise := DefaultNoise()
	noise.MissProb, noise.EdgeMissBoost, noise.FalsePositiveRate = 0, 0, 0
	d, err := NewSim(idx, 7, WithClass("car"), WithNoise(noise))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(d.Detect(50)); n != 40 {
		t.Fatalf("Detect(50) = %d detections, want 40", n)
	}
	if got := testing.AllocsPerRun(100, func() { d.Detect(50) }); got != 1 {
		t.Errorf("frame with 40 visible cars: %v allocs, want 1 (the output slice)", got)
	}
	if got := testing.AllocsPerRun(100, func() { d.Detect(500) }); got != 0 {
		t.Errorf("empty frame: %v allocs, want 0", got)
	}
}
