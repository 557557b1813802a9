package batchwire

import (
	"encoding/json"
	"reflect"
	"testing"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/internal/geom"
	"github.com/exsample/exsample/internal/track"
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

// TestTrackConversions: ToBackend copies every field; ToTrack copies every
// field but Frame, which it forces to the frame the caller asked about.
func TestTrackConversions(t *testing.T) {
	in := []track.Detection{{Frame: 17, Class: "car", Box: geom.Box{X1: 1, Y1: 2, X2: 3, Y2: 4}, Score: 0.5, TruthID: -1}}
	pub := ToBackend(in)
	want := []backend.Detection{{Frame: 17, Class: "car", Box: backend.Box{X1: 1, Y1: 2, X2: 3, Y2: 4}, Score: 0.5, TruthID: -1}}
	if !reflect.DeepEqual(pub, want) {
		t.Fatalf("ToBackend = %+v, want %+v", pub, want)
	}
	if back := ToTrack(17, pub); !reflect.DeepEqual(back, in) {
		t.Fatalf("ToTrack(17, ToBackend(x)) = %+v, want %+v", back, in)
	}
	if moved := ToTrack(99, pub); moved[0].Frame != 99 {
		t.Fatalf("ToTrack(99, …) kept the echoed frame %d", moved[0].Frame)
	}
	if ToBackend(nil) != nil || ToTrack(0, nil) != nil {
		t.Error("conversions of nothing found must be nil")
	}
}
