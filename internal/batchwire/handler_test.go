package batchwire

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// echo is a minimal protocol handler assembled from the three shared pieces.
func echo(w http.ResponseWriter, r *http.Request) {
	if !testProto.PostOnly(w, r) {
		return
	}
	var req struct {
		X float64 `json:"x"`
	}
	if !testProto.Decode(w, r, &req) {
		return
	}
	if req.X < 0 {
		req.X = math.NaN() // not encodable: the response must become a 500
	}
	testProto.Respond(w, map[string]float64{"x": req.X})
}

// TestHandlerPieces: 405 for anything but POST, 400 for a body that does
// not parse or exceeds MaxRequestBytes, 500 (and no partial body) when the
// response cannot be encoded, one JSON write otherwise.
func TestHandlerPieces(t *testing.T) {
	cases := []struct {
		name, method, body string
		wantStatus         int
		wantBody           string
	}{
		{"get", http.MethodGet, ``, http.StatusMethodNotAllowed, "wiretest: POST only\n"},
		{"put", http.MethodPut, `{"x":1}`, http.StatusMethodNotAllowed, "wiretest: POST only\n"},
		{"not json", http.MethodPost, `{not json`, http.StatusBadRequest, "wiretest: bad request: "},
		{"empty body", http.MethodPost, ``, http.StatusBadRequest, "wiretest: bad request: EOF\n"},
		{"oversized body", http.MethodPost, `{"pad":"` + strings.Repeat("x", MaxRequestBytes) + `"}`, http.StatusBadRequest, "wiretest: bad request: http: request body too large\n"},
		{"encode failure", http.MethodPost, `{"x":-1}`, http.StatusInternalServerError, "wiretest: encode response: json: unsupported value: NaN\n"},
		{"ok", http.MethodPost, `{"x":1.5}`, http.StatusOK, `{"x":1.5}` + "\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			echo(rec, httptest.NewRequest(tc.method, "/x", strings.NewReader(tc.body)))
			if rec.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %q)", rec.Code, tc.wantStatus, rec.Body.String())
			}
			if got := rec.Body.String(); !strings.HasPrefix(got, tc.wantBody) {
				t.Fatalf("body %q, want it to start with %q", got, tc.wantBody)
			}
			if tc.wantStatus == http.StatusOK && rec.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("Content-Type %q", rec.Header().Get("Content-Type"))
			}
		})
	}
}

// TestClientAgainstHandler crosses a real loopback socket once: the client
// half and the handler half speak to each other.
func TestClientAgainstHandler(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(echo))
	defer srv.Close()
	c, err := testProto.NewClient(Config{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		X float64 `json:"x"`
	}
	if err := c.Post(context.Background(), srv.URL, []byte(`{"x":0.1}`), &got); err != nil || got.X != 0.1 {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
	err = c.Post(context.Background(), srv.URL, []byte(`{"x":-1}`), &got)
	if err == nil || !strings.Contains(err.Error(), "wiretest: endpoint returned 500 Internal Server Error: wiretest: encode response") {
		t.Fatalf("err = %v, want the handler's 500", err)
	}
	wantCounters(t, c, 2, 0)
}
