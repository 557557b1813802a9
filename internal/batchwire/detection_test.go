package batchwire

import (
	"encoding/json"
	"reflect"
	"testing"

	"github.com/exsample/exsample/backend"
)

// TestWireBytes pins the wire form of a detection, and the one difference
// between the protocols: nothing found is [] where the field is always
// written and absent where it is omitempty.
func TestWireBytes(t *testing.T) {
	dets := []backend.Detection{{Frame: 17, Class: "car", Box: backend.Box{X1: 1, Y1: 2.5, X2: 3, Y2: 4}, Score: 0.93, TruthID: 7}}
	type always struct {
		Dets []Detection `json:"dets"`
	}
	type omitted struct {
		Dets []Detection `json:"dets,omitempty"`
	}
	cases := []struct {
		v    any
		want string
	}{
		{always{ToWire(dets)}, `{"dets":[{"frame":17,"class":"car","box":[1,2.5,3,4],"score":0.93,"truth_id":7}]}`},
		{always{ToWire(nil)}, `{"dets":[]}`},
		{omitted{ToWire(nil)}, `{}`},
	}
	for _, tc := range cases {
		got, err := json.Marshal(tc.v)
		if err != nil || string(got) != tc.want {
			t.Errorf("Marshal(%+v) = %s, %v; want %s", tc.v, got, err, tc.want)
		}
	}
	if back := FromWire(ToWire(dets)); !reflect.DeepEqual(back, dets) {
		t.Errorf("FromWire(ToWire(x)) = %+v, want %+v", back, dets)
	}
	if FromWire(nil) != nil || FromWire([]Detection{}) != nil {
		t.Error("FromWire of nothing found must be nil")
	}
}

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
