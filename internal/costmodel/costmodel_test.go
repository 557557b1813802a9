package costmodel

import (
	"math"
	"testing"
)

func TestDefaultRates(t *testing.T) {
	m := Default()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.DetectFPS != 20 || m.ScanFPS != 100 {
		t.Fatalf("default = %+v", m)
	}
}

func TestValidate(t *testing.T) {
	if err := (Model{DetectFPS: 0, ScanFPS: 100}).Validate(); err == nil {
		t.Error("zero DetectFPS accepted")
	}
	if err := (Model{DetectFPS: 20, ScanFPS: -1}).Validate(); err == nil {
		t.Error("negative ScanFPS accepted")
	}
}

func TestSeconds(t *testing.T) {
	m := Default()
	if got := m.DetectSeconds(200); got != 10 {
		t.Errorf("DetectSeconds(200) = %v", got)
	}
	if got := m.ScanSeconds(1000); got != 10 {
		t.Errorf("ScanSeconds(1000) = %v", got)
	}
}

func TestScanVsDetectConsistency(t *testing.T) {
	// The paper's core Table I argument: scanning 1.1M frames at 100 fps
	// takes ~3h; in that time the detector path processes 5x fewer frames.
	m := Default()
	if scan, detect := m.ScanSeconds(1_100_000), m.DetectSeconds(220_000); scan != detect {
		t.Fatalf("scanning 1.1M frames takes %vs, detecting 220k takes %vs; want equal", scan, detect)
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		sec  float64
		want string
	}{
		{18, "18s"},
		{0, "0s"},
		{97, "1m37s"},
		{60, "1m"},
		{41 * 60, "41m"},
		{3600, "1h"},
		{9*3600 + 50*60, "9h50m"},
		{2*3600 + 58*60, "2h58m"},
		{3600 + 0.4, "1h"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.sec); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.sec, got, c.want)
		}
	}
	if got := FormatDuration(-1); got != "?" {
		t.Errorf("FormatDuration(-1) = %q", got)
	}
	if got := FormatDuration(math.NaN()); got != "?" {
		t.Errorf("FormatDuration(NaN) = %q", got)
	}
}

func TestDollarCost(t *testing.T) {
	// 3000 GPU-hours at $0.50/h = $1500, the paper's motivating number.
	if got := DollarCost(3000 * 3600); math.Abs(got-1500) > 1e-9 {
		t.Fatalf("DollarCost = %v", got)
	}
}
