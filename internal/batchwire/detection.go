package batchwire

import "github.com/exsample/exsample/backend"

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
