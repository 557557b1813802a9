package batchwire

import (
	"context"
	"encoding/binary"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// echo is a minimal protocol handler assembled from the shared pieces: it
// answers the x it was sent.
func echo(w http.ResponseWriter, r *http.Request) {
	if !testProto.PostOnly(w, r) {
		return
	}
	var x float64
	if !testProto.Decode(w, r, func(b []byte) error {
		rd := NewReader(b)
		x = rd.Float()
		return rd.Done()
	}) {
		return
	}
	if x < 0 {
		x = math.NaN() // not encodable: the response must become a 500
	}
	testProto.Respond(w, func(b []byte) ([]byte, error) { return AppendFloat(append(b, Version), x) })
}

// xFrame is echo's request or answer for x.
func xFrame(x float64) string {
	return string(binary.LittleEndian.AppendUint64([]byte{Version}, math.Float64bits(x)))
}

// TestHandlerPieces: 405 for anything but POST, 415 for any Content-Type but
// the frame's, 400 for a body that does not parse, carries trailing bytes or
// exceeds MaxRequestBytes, 500 (and no partial body) when the response
// cannot be encoded, one write of the answer frame otherwise.
func TestHandlerPieces(t *testing.T) {
	const unsupported = "wiretest: unsupported Content-Type "
	cases := []struct {
		name, method, ctype, body string
		wantStatus                int
		wantBody                  string
	}{
		{"get", http.MethodGet, "", ``, http.StatusMethodNotAllowed, "wiretest: POST only\n"},
		{"put", http.MethodPut, MediaType, xFrame(1), http.StatusMethodNotAllowed, "wiretest: POST only\n"},
		{"no Content-Type", http.MethodPost, "", xFrame(1.5), http.StatusUnsupportedMediaType, unsupported + `"" (want ` + MediaType + ")\n"},
		{"application/json", http.MethodPost, "application/json", `{"x":1.5}`, http.StatusUnsupportedMediaType, unsupported + `"application/json" (want ` + MediaType + ")\n"},
		{"text/plain", http.MethodPost, "text/plain; charset=utf-8", xFrame(1.5), http.StatusUnsupportedMediaType, unsupported + `"text/plain; charset=utf-8"`},
		{"unparsable Content-Type", http.MethodPost, MediaType + "; charset", xFrame(1.5), http.StatusUnsupportedMediaType, unsupported},
		{"frame ok", http.MethodPost, MediaType, xFrame(1.5), http.StatusOK, xFrame(1.5)},
		{"frame with parameters", http.MethodPost, MediaType + "; charset=binary", xFrame(0.1), http.StatusOK, xFrame(0.1)},
		{"frame empty", http.MethodPost, MediaType, ``, http.StatusBadRequest, "wiretest: bad request: truncated frame"},
		{"frame bad version", http.MethodPost, MediaType, "\x02" + xFrame(1.5)[1:], http.StatusBadRequest, "wiretest: bad request: unsupported frame version 2 (want 1)\n"},
		{"frame truncated", http.MethodPost, MediaType, xFrame(1.5)[:5], http.StatusBadRequest, "wiretest: bad request: truncated frame"},
		{"frame trailing bytes", http.MethodPost, MediaType, xFrame(1.5) + "\x00", http.StatusBadRequest, "wiretest: bad request: 1 trailing bytes after the frame\n"},
		{"frame non-finite", http.MethodPost, MediaType, xFrame(math.Inf(1)), http.StatusBadRequest, "wiretest: bad request: non-finite float +Inf\n"},
		{"frame oversized", http.MethodPost, MediaType, strings.Repeat("x", MaxRequestBytes+1), http.StatusBadRequest, "wiretest: bad request: http: request body too large\n"},
		{"frame encode failure", http.MethodPost, MediaType, xFrame(-1), http.StatusInternalServerError, "wiretest: encode response: non-finite float NaN\n"},
		{"json read as frame", http.MethodPost, MediaType, `{"x":1.5}`, http.StatusBadRequest, "wiretest: bad request: unsupported frame version 123"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(tc.method, "/x", strings.NewReader(tc.body))
			if tc.ctype != "" {
				req.Header.Set("Content-Type", tc.ctype)
			}
			echo(rec, req)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %q)", rec.Code, tc.wantStatus, rec.Body.String())
			}
			if got := rec.Body.String(); !strings.HasPrefix(got, tc.wantBody) {
				t.Fatalf("body %q, want it to start with %q", got, tc.wantBody)
			}
			if tc.wantStatus == http.StatusOK && rec.Header().Get("Content-Type") != MediaType {
				t.Fatalf("Content-Type %q, want %q", rec.Header().Get("Content-Type"), MediaType)
			}
		})
	}
}

// TestClientAgainstHandler crosses a real loopback socket once: the client
// half and the handler half speak the frame to each other.
func TestClientAgainstHandler(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(echo))
	defer srv.Close()
	c, err := testProto.NewClient(Config{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	decode := func(b []byte) error {
		r := NewReader(b)
		got = r.Float()
		return r.Done()
	}
	if err := c.Post(context.Background(), srv.URL, []byte(xFrame(0.1)), decode); err != nil || got != 0.1 {
		t.Fatalf("round trip: %v, %v", got, err)
	}
	err = c.Post(context.Background(), srv.URL, []byte(xFrame(-1)), decode)
	if err == nil || !strings.Contains(err.Error(), "wiretest: endpoint returned 500 Internal Server Error: wiretest: encode response") {
		t.Fatalf("err = %v, want the handler's 500", err)
	}
	wantCounters(t, c, 2, 0)
}
