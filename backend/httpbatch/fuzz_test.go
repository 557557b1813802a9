package httpbatch

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzHandlerDetect feeds arbitrary request bodies to the handler over an
// in-memory backend: it must never panic, must answer 200 or 4xx, and a 200
// must be aligned with the request it answers — one result (an array, never
// null) and one frame cost per frame.
func FuzzHandlerDetect(f *testing.F) {
	f.Add([]byte(`{"class": "car", "frames": [17, 42, 1999]}`)) // the package doc's example
	f.Add([]byte(`{"class":"car","frames":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]}`))
	f.Add([]byte(`{"class":"","frames":[]}`))
	f.Add([]byte(`{"class":"car","frames":null}`))
	f.Add([]byte(`{"class":"car"}`))
	f.Add([]byte(`{"CLASS":"car","frames":[-1,9223372036854775807]} trailing`))
	f.Add([]byte(`{"class":"car","frames":[1.5]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{not json`))
	h := Handler(&fakeBackend{cost: 0.05})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/detect", bytes.NewReader(body)))
		if rec.Code >= 400 && rec.Code < 500 {
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		var req request
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not decode (%v): %q", err, body)
		}
		var resp response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body does not decode (%v): %q", err, rec.Body.Bytes())
		}
		if len(resp.Results) != len(req.Frames) || len(resp.FrameCosts) != len(req.Frames) {
			t.Fatalf("%d results and %d frame costs for %d frames", len(resp.Results), len(resp.FrameCosts), len(req.Frames))
		}
		for i, dets := range resp.Results {
			if dets == nil {
				t.Fatalf("results[%d] is null, want an array: %q", i, rec.Body.Bytes())
			}
		}
	})
}

// FuzzClientResponse hands the client an arbitrary 200 body: it must return
// an error or a result aligned with the batch — never panic, never a
// misaligned success.
func FuzzClientResponse(f *testing.F) {
	f.Add([]byte(`{"results": [[{"frame": 17, "class": "car", "box": [1, 2, 3, 4], "score": 0.93, "truth_id": 7}], [], [{"frame": 1999, "class": "car", "box": [1, 2, 3, 4], "score": 0.88, "truth_id": -1}]], "cost_seconds": 0.15}`), uint8(3))
	f.Add([]byte(`{"results":[[],[],[]],"frame_costs":[0.05,0.05,0.05],"cost_seconds":0.15}`), uint8(3))
	f.Add([]byte(`{"results":[[],[],[]]}`), uint8(3))                                   // neither cost reported
	f.Add([]byte(`{"results":[[]],"cost_seconds":0.15}`), uint8(3))                     // short results
	f.Add([]byte(`{"results":[[],[],[]],"frame_costs":[0.05]}`), uint8(3))              // short frame_costs
	f.Add([]byte(`{"results":[null,null,null],"frame_costs":[]}`), uint8(3))            // null frames, empty costs
	f.Add([]byte(`{"results":[[{"box":[1,2,3,4,5]}]],"cost_seconds":1e999}`), uint8(1)) // long box, float overflow
	f.Add([]byte(`[]`), uint8(1))
	f.Add([]byte(`null`), uint8(1))
	f.Add([]byte(``), uint8(1))
	f.Fuzz(func(t *testing.T, body []byte, n uint8) {
		endpoint, _ := canned(body, -1)
		c, err := New(Config{Endpoint: "http://gpu/detect", HTTPClient: endpoint, Retries: -1})
		if err != nil {
			t.Fatal(err)
		}
		frames := make([]int64, int(n%32)+1)
		dets, costs, err := c.DetectBatchCost(context.Background(), "car", frames)
		if err != nil {
			return
		}
		if len(dets) != len(frames) || len(costs) != len(frames) {
			t.Fatalf("%d results and %d costs for %d frames from body %q", len(dets), len(costs), len(frames), body)
		}
	})
}
