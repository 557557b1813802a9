package sizer

import (
	"reflect"
	"testing"
)

// traceQuotas drives a fresh controller through a synthetic latency trace
// (one (frames, seconds) observation per entry, frames = current quota)
// and returns the quota after each observation.
func traceQuotas(t *testing.T, cfg Config, perFrame []float64) []int {
	t.Helper()
	c, err := NewController(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, len(perFrame))
	for i, per := range perFrame {
		q := c.Quota()
		c.Observe(q, per*float64(q))
		out[i] = c.Quota()
	}
	return out
}

func flatTrace(n int, per float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = per
	}
	return out
}

// TestAIMDGrowsWhileFlat: a flat latency trace grows the quota additively
// from Min to Max and holds there.
func TestAIMDGrowsWhileFlat(t *testing.T) {
	quotas := traceQuotas(t, Config{Min: 4, Max: 12}, flatTrace(12, 0.01))
	want := []int{5, 6, 7, 8, 9, 10, 11, 12, 12, 12, 12, 12}
	if !reflect.DeepEqual(quotas, want) {
		t.Fatalf("flat-trace quota schedule = %v, want %v", quotas, want)
	}
}

// TestAIMDShrinksOnInflation: a latency spike past the inflation threshold
// halves the quota (never below Min), and recovery regrows it.
func TestAIMDShrinksOnInflation(t *testing.T) {
	trace := append(flatTrace(12, 0.01), 0.05, 0.05, 0.05)
	quotas := traceQuotas(t, Config{Min: 4, Max: 16}, trace)
	// After 12 flat observations the quota is 16; the spikes then shrink
	// multiplicatively (the EWMA needs one observation to cross 1.5x).
	if got := quotas[11]; got != 16 {
		t.Fatalf("quota after flat phase = %d, want 16", got)
	}
	end := quotas[len(quotas)-1]
	if end >= 16 || end < 4 {
		t.Fatalf("quota after inflation = %d, want shrunk into [4, 16)", end)
	}
	c, _ := NewController(Config{Min: 4, Max: 16}, nil)
	for i := 0; i < 50; i++ {
		c.Observe(c.Quota(), 0.05*float64(c.Quota())) // alternating spikes
		c.Observe(c.Quota(), 0.001*float64(c.Quota()))
	}
	if q := c.Quota(); q < 4 {
		t.Fatalf("quota fell below Min: %d", q)
	}
}

// TestQuotaScheduleDeterministic: the same synthetic trace always yields
// the same quota schedule — the sizer never consults a clock or RNG.
func TestQuotaScheduleDeterministic(t *testing.T) {
	trace := []float64{0.01, 0.01, 0.012, 0.03, 0.01, 0.009, 0.02, 0.01, 0.01, 0.05, 0.01, 0.01}
	a := traceQuotas(t, Config{Min: 2, Max: 32}, trace)
	b := traceQuotas(t, Config{Min: 2, Max: 32}, trace)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same trace, different schedules:\n%v\n%v", a, b)
	}
}

// TestCapacityLossShrinks: a breaker-open event halves the quota
// immediately, whatever the latency EWMA says.
func TestCapacityLossShrinks(t *testing.T) {
	var counters Counters
	c, err := NewController(Config{Min: 2, Max: 64}, &counters)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		c.Observe(c.Quota(), 0.001*float64(c.Quota()))
	}
	before := c.Quota()
	if before != 32 {
		t.Fatalf("quota after 30 flat rounds = %d, want 32", before)
	}
	c.CapacityLoss()
	if got, want := c.Quota(), 16; got != want {
		t.Fatalf("quota after capacity loss = %d, want %d", got, want)
	}
	if counters.CapacityLosses.Load() != 1 || counters.Shrinks.Load() != 1 {
		t.Fatalf("counters = %d losses / %d shrinks, want 1/1",
			counters.CapacityLosses.Load(), counters.Shrinks.Load())
	}
	if counters.Peak.Load() != int64(before) {
		t.Fatalf("Peak = %d, want %d", counters.Peak.Load(), before)
	}
}

// TestBaselineDrift: a backend that becomes permanently slower re-anchors
// the baseline, so the controller resumes growing instead of shrinking
// forever.
func TestBaselineDrift(t *testing.T) {
	c, err := NewController(Config{Min: 4, Max: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Observe(c.Quota(), 0.001*float64(c.Quota()))
	}
	// 10x slower from here on, permanently.
	var grew bool
	prev := c.Quota()
	for i := 0; i < 200; i++ {
		c.Observe(c.Quota(), 0.01*float64(c.Quota()))
		if c.Quota() > prev {
			grew = true
		}
		prev = c.Quota()
	}
	if !grew {
		t.Fatal("controller never resumed growth after the fleet slowed permanently")
	}
}

// TestFleetMinAcrossBackends: the fleet's quota is the minimum across its
// per-backend controllers — the slowest shard gates the round.
func TestFleetMinAcrossBackends(t *testing.T) {
	var counters Counters
	f, err := NewFleet(Config{Min: 2, Max: 32}, &counters)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Quota(); got != 2 {
		t.Fatalf("initial fleet quota = %d, want 2", got)
	}
	// Backend 1 stays flat and fast; backend 2 inflates constantly.
	for i := 0; i < 20; i++ {
		f.Observe(1, f.Quota(), 0.001*float64(f.Quota()))
	}
	fastOnly := f.Quota()
	if fastOnly <= 2 {
		t.Fatalf("single-backend fleet never grew: quota %d", fastOnly)
	}
	for i := 0; i < 20; i++ {
		f.Observe(2, f.Quota(), 0.001*float64(f.Quota()))
		f.Observe(2, f.Quota(), 0.05*float64(f.Quota()))
	}
	if got := f.Quota(); got > fastOnly {
		t.Fatalf("fleet quota %d exceeds the fast backend's %d despite a slow sibling", got, fastOnly)
	}
	// The slow backend's controller pins the min at (or near) Min.
	if got := f.Quota(); got > 8 {
		t.Fatalf("fleet quota %d not gated by the inflating backend", got)
	}
	// A capacity loss shrinks (and counts) each key's controller.
	before := f.Quota()
	f.CapacityLossAll()
	if got := counters.CapacityLosses.Load(); got != 2 {
		t.Fatalf("CapacityLossAll counted %d losses, want one per key (2)", got)
	}
	if got := f.Quota(); got > before {
		t.Fatalf("fleet quota grew on a capacity loss: %d -> %d", before, got)
	}
}

// TestConfigValidate rejects out-of-range parameters and defaults Max.
func TestConfigValidate(t *testing.T) {
	if _, err := NewController(Config{Min: 0}, nil); err == nil {
		t.Fatal("Min 0 accepted")
	}
	c, err := NewController(Config{Min: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.cfg.Max, 3*DefaultMaxFactor; got != want {
		t.Fatalf("defaulted Max = %d, want %d", got, want)
	}
	low, err := NewController(Config{Min: 8, Max: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if low.cfg.Max != 8 {
		t.Fatalf("Max below Min not raised: %d", low.cfg.Max)
	}
}

// TestSmallGroupsDoNotMasqueradeAsInflation: a sharded query's round
// splits across shards, so some DetectBatch groups carry a handful of
// frames whose per-frame latency is inflated by the backend's fixed
// per-call overhead. Those observations must be weight-discounted, not
// treated as queueing — otherwise the quota thrashes to the floor on
// exactly the workloads adaptive sizing exists for.
func TestSmallGroupsDoNotMasqueradeAsInflation(t *testing.T) {
	const overhead, perFrame = 0.002, 0.000125 // a 2ms/call, 8kfps backend
	c, err := NewController(Config{Min: 2, Max: 32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	latency := func(frames int) float64 { return overhead + float64(frames)*perFrame }
	// Establish the baseline with full-quota batches while growing.
	for i := 0; i < 20; i++ {
		c.Observe(c.Quota(), latency(c.Quota()))
	}
	grown := c.Quota()
	if grown <= 2 {
		t.Fatalf("controller never grew on flat full batches: quota %d", grown)
	}
	// Now interleave full batches with unlucky 1-frame stragglers (the
	// sampler routed almost the whole round to the other shard). The
	// stragglers' per-frame latency is ~overhead — far past the inflation
	// threshold if taken at face value.
	for i := 0; i < 30; i++ {
		c.Observe(c.Quota(), latency(c.Quota()))
		c.Observe(1, latency(1))
	}
	if got := c.Quota(); got < grown/2 {
		t.Fatalf("1-frame stragglers collapsed the quota from %d to %d", grown, got)
	}
}
