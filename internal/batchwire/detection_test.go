package batchwire

import (
	"reflect"
	"testing"

	"github.com/exsample/exsample/backend"
)

// TestPinFrame: conforming input comes back as the identical slice, a wrong
// echoed Frame is corrected on a copy with the input left intact, and
// nothing found is nil.
func TestPinFrame(t *testing.T) {
	in := []backend.Detection{
		{Frame: 17, Class: "car", Box: backend.Box{X1: 1, Y1: 2, X2: 3, Y2: 4}, Score: 0.5, TruthID: -1},
		{Frame: 17, Class: "car", Box: backend.Box{X1: 5, Y1: 6, X2: 7, Y2: 8}, Score: 0.25, TruthID: 3},
	}
	if got := PinFrame(17, in); len(got) != len(in) || &got[0] != &in[0] {
		t.Fatalf("PinFrame(17, conforming) = %+v, want the input slice itself", got)
	}
	for _, wrong := range []int{0, 1} {
		echoed := append([]backend.Detection(nil), in...)
		echoed[wrong].Frame = 99
		snap := append([]backend.Detection(nil), echoed...)
		got := PinFrame(17, echoed)
		if !reflect.DeepEqual(got, in) {
			t.Errorf("PinFrame(17, wrong echo at %d) = %+v, want %+v", wrong, got, in)
		}
		if !reflect.DeepEqual(echoed, snap) {
			t.Errorf("PinFrame wrote through its input: %+v, was %+v", echoed, snap)
		}
	}
	if PinFrame(0, nil) != nil || PinFrame(0, []backend.Detection{}) != nil {
		t.Error("PinFrame of nothing found must be nil")
	}
}
