package httpbatch

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net/http"
	"testing"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/internal/batchwire"
)

// handlerRequests is the seed corpus of FuzzHandlerDetect: the README's
// three-frame example, a batch over MaxBatch, empty, frameless and negative
// requests, and frames broken at each layer (version, truncation, trailing
// bytes, varint overflow).
func handlerRequests() [][]byte {
	doc := appendRequest(nil, "car", []int64{17, 42, 1999})
	return [][]byte{
		doc,
		appendRequest(nil, "car", []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}),
		appendRequest(nil, "", nil),
		appendRequest(nil, "car", []int64{-1, math.MaxInt64}),
		append([]byte{batchwire.Version + 1}, doc[1:]...),
		doc[:len(doc)-1],
		append(append([]byte(nil), doc...), 0),
		{batchwire.Version, 3, 'c', 'a', 'r', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		appendRequest(nil, "car", nil),
	}
}

// FuzzHandlerDetect feeds arbitrary request frames to the handler over an
// in-memory backend: it must never panic, must answer 200 or 4xx, and a 200
// must be a frame aligned with the request it answers — one result and one
// frame cost per frame.
func FuzzHandlerDetect(f *testing.F) {
	for _, body := range handlerRequests() {
		f.Add(body)
	}
	h := Handler(&fakeBackend{cost: 0.05})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serve(h, batchwire.MediaType, body)
		if rec.Code >= 400 && rec.Code < 500 {
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		if got := rec.Header().Get("Content-Type"); got != batchwire.MediaType {
			t.Fatalf("answered as %s", got)
		}
		var req request
		if err := req.decodeFrame(body); err != nil {
			t.Fatalf("200 for a frame that does not decode (%v): %q", err, body)
		}
		if _, _, err := decodeResponse(rec.Body.Bytes(), req.Class, req.Frames); err != nil {
			t.Fatalf("200 frame does not decode against its %d-frame request (%v): %q", len(req.Frames), err, rec.Body.Bytes())
		}
	})
}

// refResponse is an independent parse of a binary response frame for a
// batch of frames requested under class: written from the package doc with
// encoding/binary alone, sharing no code with batchwire.Reader, so the
// client fuzzer checks the client against the documented layout.
func refResponse(b []byte, class string, frames []int64) ([][]backend.Detection, []float64, error) {
	bad := errors.New("malformed")
	uvarint := func() uint64 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			panic(bad)
		}
		b = b[n:]
		return v
	}
	varint := func() int64 {
		v, n := binary.Varint(b)
		if n <= 0 {
			panic(bad)
		}
		b = b[n:]
		return v
	}
	float := func() float64 {
		if len(b) < 8 {
			panic(bad)
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			panic(bad)
		}
		return v
	}
	var (
		dets  [][]backend.Detection
		costs []float64
		err   error
	)
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = bad
			}
		}()
		if len(b) == 0 || b[0] != 1 {
			panic(bad)
		}
		b = b[1:]
		if uvarint() != uint64(len(frames)) {
			panic(bad)
		}
		total := uvarint()
		for _, frame := range frames {
			costs = append(costs, float())
			var list []backend.Detection
			for m := uvarint(); m > 0; m-- {
				d := backend.Detection{Class: class}
				if tag := uvarint(); tag > 0 {
					if tag-1 > uint64(len(b)) {
						panic(bad)
					}
					d.Class, b = string(b[:tag-1]), b[tag-1:]
				}
				d.Frame = frame + varint()
				d.Box = backend.Box{X1: float(), Y1: float(), X2: float(), Y2: float()}
				d.Score = float()
				d.TruthID = int(varint())
				list = append(list, d)
			}
			total -= uint64(len(list))
			dets = append(dets, list)
		}
		if total != 0 || len(b) != 0 {
			panic(bad)
		}
	}()
	return dets, costs, err
}

// clientResponses is the seed corpus of FuzzClientResponse, each for
// a batch of three frames: answers that conform and answers broken at each
// layer of the frame.
func clientResponses() [][]byte {
	frames := []int64{0, 1, 2}
	det := backend.Detection{Frame: 0, Class: "car", Box: backend.Box{X1: 1, Y1: 2, X2: 3, Y2: 4}, Score: 0.93, TruthID: 7}
	other := backend.Detection{Frame: 1, Class: "truck", Box: backend.Box{X1: 0.1, Y1: 0.2, X2: 0.3, Y2: 0.4}, Score: 0.5, TruthID: -1}
	resp := func(dets [][]backend.Detection, costs []float64) []byte {
		b, err := appendResponse(nil, "car", frames, dets, costs)
		if err != nil {
			panic(err)
		}
		return b
	}
	full := resp([][]backend.Detection{{det}, nil, {other, det}}, []float64{0.05, 0.05, 0.05})
	return [][]byte{
		full,
		resp([][]backend.Detection{nil, nil, nil}, []float64{0, 0, 0}),
		{batchwire.Version, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // one result for three frames
		append(append([]byte(nil), full...), 0),              // trailing byte
		full[:len(full)-1],                                   // truncated
		append([]byte{batchwire.Version + 1}, full[1:]...),   // version skew
		{batchwire.Version, 3, 0xff, 0xff, 0xff, 0xff, 0x0f}, // total beyond the body
		resp([][]backend.Detection{{det}, {det}, {det}}, []float64{1, 2, 3})[:20],
		[]byte(`{"results":[[],[],[]],"frame_costs":[0.05,0.05,0.05]}`), // JSON from a JSON-only server
		nil,
	}
}

// FuzzClientResponse hands the client an arbitrary 200 body: it must return
// an error or — exactly when the documented layout parses — the results and
// costs the body encodes, aligned with the batch; never a panic.
func FuzzClientResponse(f *testing.F) {
	for _, body := range clientResponses() {
		f.Add(body, uint8(3))
	}
	f.Fuzz(func(t *testing.T, body []byte, n uint8) {
		endpoint, _ := canned(body, -1)
		c, err := New(Config{Endpoint: "http://gpu/detect", HTTPClient: endpoint, Retries: -1})
		if err != nil {
			t.Fatal(err)
		}
		frames := make([]int64, int(n%32)+1)
		for i := range frames {
			frames[i] = int64(i)
		}
		dets, costs, err := c.DetectBatchCost(context.Background(), "car", frames)
		wantDets, wantCosts, wantErr := refResponse(body, "car", frames)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("client err = %v, independent parse err = %v, body %q", err, wantErr, body)
		}
		if err != nil {
			return
		}
		if len(dets) != len(frames) || len(costs) != len(frames) {
			t.Fatalf("%d results and %d costs for %d frames from body %q", len(dets), len(costs), len(frames), body)
		}
		for i := range frames {
			if math.Float64bits(costs[i]) != math.Float64bits(wantCosts[i]) || !sameDetections(dets[i], wantDets[i]) {
				t.Fatalf("frame %d: client %v/%+v, body says %v/%+v", i, costs[i], dets[i], wantCosts[i], wantDets[i])
			}
		}
	})
}

// sameDetections compares detection lists bit for bit, nil equal to empty.
func sameDetections(a, b []backend.Detection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Frame != y.Frame || x.Class != y.Class || x.TruthID != y.TruthID ||
			math.Float64bits(x.Score) != math.Float64bits(y.Score) ||
			math.Float64bits(x.Box.X1) != math.Float64bits(y.Box.X1) || math.Float64bits(x.Box.Y1) != math.Float64bits(y.Box.Y1) ||
			math.Float64bits(x.Box.X2) != math.Float64bits(y.Box.X2) || math.Float64bits(x.Box.Y2) != math.Float64bits(y.Box.Y2) {
			return false
		}
	}
	return true
}
