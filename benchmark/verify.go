package main

import (
	exsample "github.com/exsample/exsample"
)

// verifyEvery is the stride of the Search ≡ Engine identity check: every
// verifyEvery-th op is rerun single-threaded.
const verifyEvery = 16

// The verification phase is untimed. Every miss is recorded as a failure;
// the command exits non-zero when any workload has one.

func (m *measurement) check(ok bool, format string, args ...any) {
	m.checks++
	if !ok {
		m.fail(format, args...)
	}
}

// verifyRep checks rep ri right after it ran: no op failed or dropped
// events, every op's results equal the first rep's, and the frames the seams
// saw match what the reports claim.
func (w *world) verifyRep(m *measurement, ri int) {
	s := &m.reps[ri]
	first := m.reps[0].ops
	for i, o := range s.ops {
		if o.err != nil {
			m.fail("rep %d op %d: %v", ri, i, o.err)
		} else if o.dropped > 0 {
			m.fail("rep %d op %d: %d events dropped", ri, i, o.dropped)
		} else if o.digest != first[i].digest {
			// Every rep starts from the same state and runs the same
			// seeded op, so its results must not depend on the rep.
			m.fail("rep %d op %d: results differ from rep 0", ri, i)
		}
	}
	w.verifyCounts(m, ri)
}

// verifyIdentity checks the Search ≡ Engine identity on every
// verifyEvery-th op of the list: the same seed through the single-threaded
// pipeline, batched like the engine's rounds, must give the same results.
func (w *world) verifyIdentity(m *measurement) {
	check, first := m.check, m.reps[0].ops
	for i := 0; i < len(w.ops); i += verifyEvery {
		o := w.ops[i]
		var want uint64
		switch o.Kind {
		case opSearch:
			q, opts := w.query(o)
			opts.BatchSize = w.spec.framesPerRound
			rep, err := exsample.SearchSource(w.sources[o.Src], q, opts)
			if err != nil {
				check(false, "op %d: SearchSource: %v", i, err)
				continue
			}
			want = reportDigest(rep)
		case opTrack:
			rep, err := exsample.TrackSearch(w.sources[o.Src], w.trackPredicate(), exsample.TrackOptions{Seed: o.Seed})
			if err != nil {
				check(false, "op %d: TrackSearch: %v", i, err)
				continue
			}
			want = trackDigest(rep)
		default:
			// A standing query over a ring that evicts has no offline
			// twin; its appends are checked against its own final report
			// (finishStreams) and by frame conservation.
			continue
		}
		check(first[i].digest == want, "op %d: engine results differ from the single-threaded search", i)
	}
}

// verifyCounts checks one rep's frame conservation: what the seams saw
// against what the reports claim.
func (w *world) verifyCounts(m *measurement, ri int) {
	s, check := &m.reps[ri], m.check
	c := s.counts
	hits, remote := c.hits, c.remoteHits
	check(c.streamErr == nil, "rep %d: %v", ri, c.streamErr)
	check(c.backendFrames == c.detectFrames,
		"rep %d: backend seam saw %d frames, detector seam %d", ri, c.backendFrames, c.detectFrames)
	// A limit-bounded op may detect, and then discard unapplied, the tail
	// of its last round; a budgeted op applies every frame it detects.
	slack := int64(0)
	if !w.spec.budgeted {
		slack = int64(len(s.ops) * (w.spec.framesPerRound - 1))
	}
	extra := c.backendFrames + hits - s.frames
	check(extra >= 0 && extra <= slack,
		"rep %d: %d frames at the backend seam + %d cache hits, reports say %d frames processed (slack %d)",
		ri, c.backendFrames, hits, s.frames, slack)
	if w.ops[0].Kind != opTrack {
		// Distinct-object queries emit one event per processed frame; track
		// queries one per matched interval.
		check(c.events == s.frames, "rep %d: %d events for %d frames", ri, c.events, s.frames)
	}
	switch w.spec.name {
	case "tier_fill":
		check(hits == 0 && c.tier.Fills == s.frames && c.tier.Merges == 0,
			"rep %d: tier_fill wants every frame detected exactly once: %d hits, %d fills, %d merges, %d frames",
			ri, hits, c.tier.Fills, c.tier.Merges, s.frames)
	case "tier_warm":
		check(c.backendFrames == 0 && remote == s.frames,
			"rep %d: tier_warm wants every frame from the remote tier: %d detector frames, %d remote hits, %d frames",
			ri, c.backendFrames, remote, s.frames)
	}
}
