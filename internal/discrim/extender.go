package discrim

import (
	"fmt"

	"github.com/exsample/exsample/internal/track"
)

// TruthExtender simulates the paper's SORT-style forward/backward tracker
// over ground truth. For a detection of a real instance, the tracker follows
// the object up to coverage×duration frames in each direction before losing
// it: coverage 1.0 always recovers the full true interval (the paper's
// idealized tracker), while e.g. 0.25 covers at most half the extent around
// the detection. False positives (TruthID < 0) produce single-frame tracks,
// so a recurring spurious box cannot suppress real results elsewhere.
type TruthExtender struct {
	idx      *track.Index
	coverage float64
}

// NewTruthExtender builds an extender over the ground-truth index. coverage
// must be in (0, 1], where 1 reproduces the paper's assumption that the
// tracker recovers the object's full visible extent. Instances are found
// through the index's own id lookup, shared by every extender over it, so
// building one costs no per-query table.
func NewTruthExtender(idx *track.Index, coverage float64) (*TruthExtender, error) {
	if !(coverage > 0 && coverage <= 1) {
		return nil, fmt.Errorf("discrim: coverage %v outside (0, 1]", coverage)
	}
	return &TruthExtender{idx: idx, coverage: coverage}, nil
}

// Extend returns the predicted track for a detection.
func (e *TruthExtender) Extend(det track.Detection) PredictedTrack {
	in, ok := e.idx.Lookup(det.TruthID)
	if det.TruthID < 0 || !ok {
		// False positive: the tracker cannot follow anything.
		return PredictedTrack{Start: det.Frame, End: det.Frame, StartBox: det.Box, EndBox: det.Box}
	}
	dur := in.Duration()
	reach := int64(float64(dur) * e.coverage)
	start := det.Frame - reach
	if start < in.Start {
		start = in.Start
	}
	end := det.Frame + reach
	if end > in.End {
		end = in.End
	}
	return PredictedTrack{
		Start:    start,
		End:      end,
		StartBox: in.BoxAt(start),
		EndBox:   in.BoxAt(end),
	}
}

// FrameExtender is the trivial tracker: the predicted track is just the
// detection's own frame and box. Using it turns the discriminator into a
// per-frame IoU dedupe, the degenerate case the paper's tracker improves on.
type FrameExtender struct{}

// Extend returns a single-frame track at the detection.
func (FrameExtender) Extend(det track.Detection) PredictedTrack {
	return PredictedTrack{Start: det.Frame, End: det.Frame, StartBox: det.Box, EndBox: det.Box}
}
