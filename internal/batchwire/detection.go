package batchwire

import "github.com/exsample/exsample/backend"

// Detection is the JSON form of one detection, the same in both protocols:
// a cache entry round-trips exactly what a remote detector would have
// produced. truth_id is -1 when the sender does not know ground-truth
// identity — the value real detectors report.
type Detection struct {
	Frame   int64      `json:"frame"`
	Class   string     `json:"class"`
	Box     [4]float64 `json:"box"`
	Score   float64    `json:"score"`
	TruthID int        `json:"truth_id"`
}

// ToWire converts public detections to their wire form. The result is never
// nil, so "nothing found" is [] where a protocol always writes the field
// (httpbatch results) and absent where the field is omitempty (httpcache
// entries).
func ToWire(dets []backend.Detection) []Detection {
	out := make([]Detection, len(dets))
	for i, d := range dets {
		out[i] = Detection{
			Frame:   d.Frame,
			Class:   d.Class,
			Box:     [4]float64{d.Box.X1, d.Box.Y1, d.Box.X2, d.Box.Y2},
			Score:   d.Score,
			TruthID: d.TruthID,
		}
	}
	return out
}

// FromWire converts wire detections to the public type; nothing found (null,
// [] or an absent field) is nil.
func FromWire(dets []Detection) []backend.Detection {
	if len(dets) == 0 {
		return nil
	}
	out := make([]backend.Detection, len(dets))
	for i, w := range dets {
		out[i] = backend.Detection{
			Frame:   w.Frame,
			Class:   w.Class,
			Box:     backend.Box{X1: w.Box[0], Y1: w.Box[1], X2: w.Box[2], Y2: w.Box[3]},
			Score:   w.Score,
			TruthID: w.TruthID,
		}
	}
	return out
}

// PinFrame returns dets with every Frame equal to frame, the frame they
// were requested (or stored) for. Both contracts fix that frame by position
// — Backend results[i] holds frames[i]'s detections, a Store entry holds its
// key's frame — so the echoed Frame field is advisory, and a confused
// backend or a corrupted remote store cannot misroute detections.
// Conforming input is returned as is and never written; a mismatch is
// corrected on a copy. Nothing found is nil.
func PinFrame(frame int64, dets []backend.Detection) []backend.Detection {
	if len(dets) == 0 {
		return nil
	}
	for i := range dets {
		if dets[i].Frame != frame {
			out := append([]backend.Detection(nil), dets...)
			for j := range out {
				out[j].Frame = frame
			}
			return out
		}
	}
	return dets
}
