// Package costmodel converts frame counts into the wall-clock times the
// paper reports. §V-B fixes the two throughputs that matter:
//
//   - proxy scoring scans the full dataset at ~100 frames/second
//     (bound by io+decode), and
//   - sampling methods process frames at ~20 frames/second
//     (bound by the object detector).
//
// Table I is defined entirely in these units; this package also formats
// durations in the paper's "1m37s" / "9h50m" style so the regenerated table
// is directly comparable.
package costmodel

import (
	"fmt"
	"math"
	"time"
)

// Model holds the system throughputs.
type Model struct {
	// DetectFPS is the end-to-end frames/second of the sampling path
	// (random read + decode + detector inference).
	DetectFPS float64
	// ScanFPS is the frames/second of the sequential proxy-scoring scan.
	ScanFPS float64
}

// Default returns the paper's measured rates (§V-B).
func Default() Model { return Model{DetectFPS: 20, ScanFPS: 100} }

// Validate reports an error for non-positive rates.
func (m Model) Validate() error {
	if m.DetectFPS <= 0 {
		return fmt.Errorf("costmodel: DetectFPS must be positive, got %v", m.DetectFPS)
	}
	if m.ScanFPS <= 0 {
		return fmt.Errorf("costmodel: ScanFPS must be positive, got %v", m.ScanFPS)
	}
	return nil
}

// DetectSeconds returns the time to sample and detect n frames.
func (m Model) DetectSeconds(n int64) float64 { return float64(n) / m.DetectFPS }

// ScanSeconds returns the time for the proxy model to score an entire
// repository of n frames.
func (m Model) ScanSeconds(n int64) float64 { return float64(n) / m.ScanFPS }

// FormatDuration renders seconds in the paper's compact style: "18s",
// "1m37s", "41m", "9h50m", "2h58m". Minutes-only when seconds round to 0;
// hours+minutes above one hour.
func FormatDuration(seconds float64) string {
	if seconds < 0 || math.IsNaN(seconds) || math.IsInf(seconds, 0) {
		return "?"
	}
	d := time.Duration(math.Round(seconds)) * time.Second
	h := int(d.Hours())
	mm := int(d.Minutes()) % 60
	ss := int(d.Seconds()) % 60
	switch {
	case h > 0 && mm > 0:
		return fmt.Sprintf("%dh%dm", h, mm)
	case h > 0:
		return fmt.Sprintf("%dh", h)
	case mm > 0 && ss > 0:
		return fmt.Sprintf("%dm%ds", mm, ss)
	case mm > 0:
		return fmt.Sprintf("%dm", mm)
	default:
		return fmt.Sprintf("%ds", ss)
	}
}

// GPUDollarsPerHour is the price context from the paper's introduction (the
// cheapest AWS g4 instance in 2021).
const GPUDollarsPerHour = 0.50

// DollarCost estimates the GPU rental cost of a query.
func DollarCost(seconds float64) float64 {
	return seconds / 3600 * GPUDollarsPerHour
}
