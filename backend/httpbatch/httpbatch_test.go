package httpbatch

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/internal/batchwire"
)

// The timeout/retry/admission discipline itself is tested once, on a fake
// clock, in internal/batchwire. The tests here that mention retries prove
// this package inherits it: Config reaches the shared client, its counters
// surface in Stats, and its errors carry this protocol's prefix.

// fakeBackend is a deterministic in-memory backend: frame f has one
// detection when f is even, none otherwise.
type fakeBackend struct {
	cost  float64
	calls atomic.Int64
}

func (f *fakeBackend) DetectBatch(ctx context.Context, class string, frames []int64) ([][]backend.Detection, error) {
	f.calls.Add(1)
	out := make([][]backend.Detection, len(frames))
	for i, frame := range frames {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if frame%2 == 0 {
			out[i] = []backend.Detection{{
				Frame:   frame,
				Class:   class,
				Box:     backend.Box{X1: 1, Y1: 2, X2: 3, Y2: 4},
				Score:   0.9,
				TruthID: int(frame / 2),
			}}
		}
	}
	return out, nil
}

func (f *fakeBackend) Hints() backend.Hints {
	return backend.Hints{CostSeconds: f.cost, MaxBatch: 16}
}

func newTestPair(t *testing.T, b backend.Backend, cfg Config) (*Client, *httptest.Server) {
	t.Helper()
	srv := httptest.NewServer(Handler(b))
	t.Cleanup(srv.Close)
	cfg.Endpoint = srv.URL
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, srv
}

func TestRoundTrip(t *testing.T) {
	fb := &fakeBackend{cost: 0.05}
	c, _ := newTestPair(t, fb, Config{})

	frames := []int64{0, 1, 2, 3, 10}
	dets, costs, err := c.DetectBatchCost(context.Background(), "car", frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) != len(frames) {
		t.Fatalf("got %d results, want %d", len(dets), len(frames))
	}
	// Server reports the exact nominal per-frame cost for a
	// non-BatchCoster backend — no divide-by-batch-size loss.
	if len(costs) != len(frames) {
		t.Fatalf("got %d costs, want %d", len(costs), len(frames))
	}
	var cost float64
	for _, per := range costs {
		if per != 0.05 {
			t.Fatalf("per-frame cost = %v, want exactly 0.05", per)
		}
		cost += per
	}
	for i, frame := range frames {
		if frame%2 == 0 {
			if len(dets[i]) != 1 {
				t.Fatalf("frame %d: %d detections, want 1", frame, len(dets[i]))
			}
			d := dets[i][0]
			if d.Frame != frame || d.Class != "car" || d.Score != 0.9 || d.TruthID != int(frame/2) {
				t.Fatalf("frame %d: wrong detection %+v", frame, d)
			}
			if d.Box != (backend.Box{X1: 1, Y1: 2, X2: 3, Y2: 4}) {
				t.Fatalf("frame %d: wrong box %+v", frame, d.Box)
			}
		} else if len(dets[i]) != 0 {
			t.Fatalf("frame %d: %d detections, want 0", frame, len(dets[i]))
		}
	}
	st := c.Stats()
	if st.Batches != 1 || st.Frames != int64(len(frames)) || st.Requests != 1 || st.Retries != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ServerSeconds != cost {
		t.Fatalf("ServerSeconds = %v, want %v", st.ServerSeconds, cost)
	}

	// Floats with no short decimal form, -0, subnormals, a foreign class
	// and an off-by-one echoed frame cross the wire bit for bit, each
	// frame's detections in a cap-clipped window of the response's slab.
	exact, _ := newTestPair(t, floatBackend{}, Config{})
	frames = []int64{0, 1, 2, 1999}
	dets, costs, err = exact.DetectBatchCost(context.Background(), "car", frames)
	if err != nil {
		t.Fatal(err)
	}
	want, wantCosts, _ := floatBackend{}.DetectBatchCost(context.Background(), "car", frames)
	for i := range frames {
		if !sameDetections(dets[i], want[i]) || math.Float64bits(costs[i]) != math.Float64bits(wantCosts[i]) {
			t.Errorf("frame %d: %+v at %v, want %+v at %v", frames[i], dets[i], costs[i], want[i], wantCosts[i])
		}
		if cap(dets[i]) != len(dets[i]) {
			t.Errorf("frame %d: window %d/%d is not cap-clipped", frames[i], len(dets[i]), cap(dets[i]))
		}
	}
}

func TestEmptyBatchSkipsWire(t *testing.T) {
	fb := &fakeBackend{cost: 0.05}
	c, _ := newTestPair(t, fb, Config{})
	dets, err := c.DetectBatch(context.Background(), "car", nil)
	if err != nil || dets != nil {
		t.Fatalf("empty batch: %v, %v", dets, err)
	}
	if fb.calls.Load() != 0 {
		t.Fatal("empty batch reached the backend")
	}
}

func TestRetriesOn5xxThenSucceeds(t *testing.T) {
	fb := &fakeBackend{cost: 0.05}
	var failures atomic.Int64
	failures.Store(2)
	inner := Handler(fb)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failures.Add(-1) >= 0 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c, err := New(Config{Endpoint: srv.URL, Retries: 2, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	dets, err := c.DetectBatch(context.Background(), "car", []int64{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) != 1 || len(dets[0]) != 1 {
		t.Fatalf("unexpected results %+v", dets)
	}
	st := c.Stats()
	if st.Retries != 2 || st.Requests != 3 {
		t.Fatalf("stats = %+v, want 2 retries over 3 requests", st)
	}
}

func TestClientErrorsAreNotRetried(t *testing.T) {
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, "no such class", http.StatusBadRequest)
	}))
	defer srv.Close()
	c, err := New(Config{Endpoint: srv.URL, Retries: 5, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.DetectBatch(context.Background(), "dragon", []int64{1})
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("err = %v, want a 400", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("made %d attempts, want 1 (4xx never retries)", got)
	}
	if st := c.Stats(); st.Requests != 1 || st.Retries != 0 || st.Batches != 0 {
		t.Fatalf("stats = %+v, want 1 request, 0 retries, 0 batches", st)
	}
}

func TestContextCancellationAbortsInFlightBatch(t *testing.T) {
	inFlight := make(chan struct{})
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(inFlight)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)
	c, err := New(Config{Endpoint: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.DetectBatch(ctx, "car", []int64{1})
		done <- err
	}()
	<-inFlight
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled batch did not return")
	}
}

// TestPerEndpointConcurrencyCap: Config.MaxConcurrent reaches the shared
// client. The handler holds every request until the test has seen the cap's
// worth of them arrive, so the peak is exact, not a matter of timing.
func TestPerEndpointConcurrencyCap(t *testing.T) {
	const calls, limit = 8, 2
	var running, peak atomic.Int64
	entered := make(chan struct{}, calls)
	release := make(chan struct{})
	inner := Handler(&fakeBackend{cost: 0.01})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := running.Add(1)
		for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
		}
		entered <- struct{}{}
		<-release
		running.Add(-1)
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c, err := New(Config{Endpoint: srv.URL, MaxConcurrent: limit})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.DetectBatch(context.Background(), "car", []int64{int64(i)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	for i := 0; i < limit; i++ {
		<-entered
	}
	close(release)
	wg.Wait()
	if got := peak.Load(); got != limit {
		t.Fatalf("observed %d concurrent requests, want exactly MaxConcurrent=%d", got, limit)
	}
}

// TestHandlerRejectsMalformedRequests: 405 for anything but POST, and 400
// for a request frame that does not parse or fails validation; none of them
// reaches the backend.
func TestHandlerRejectsMalformedRequests(t *testing.T) {
	fb := &fakeBackend{cost: 0.01}
	h := Handler(fb)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/detect", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET = %d, want 405", rec.Code)
	}
	good := appendRequest(nil, "car", []int64{1})
	cases := []struct {
		name string
		body []byte
	}{
		{"empty request", appendRequest(nil, "", nil)},
		{"no frames", appendRequest(nil, "car", nil)},
		{"no class", appendRequest(nil, "", []int64{1})},
		{"negative frame", appendRequest(nil, "car", []int64{3, -1})},
		{"bad version", append([]byte{batchwire.Version + 1}, good[1:]...)},
		{"trailing bytes", append(append([]byte(nil), good...), 0)},
		{"truncated", good[:len(good)-1]},
		{"JSON read as a frame", []byte(`{"class":"car","frames":[1]}`)},
	}
	for _, tc := range cases {
		if rec := serve(h, batchwire.MediaType, tc.body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, rec.Code)
		}
	}
	if fb.calls.Load() != 0 {
		t.Fatal("a malformed request reached the backend")
	}
}

// TestHandlerRefusesOtherMediaTypes: the handler speaks only the frame. A
// JSON request, or one with no Content-Type, is answered 415 before its
// body is read, and never reaches the backend.
func TestHandlerRefusesOtherMediaTypes(t *testing.T) {
	fb := &fakeBackend{cost: 0.01}
	h := Handler(fb)
	for _, ctype := range []string{"application/json", ""} {
		rec := serve(h, ctype, []byte(`{"class":"car","frames":[17,42,1999]}`))
		if rec.Code != http.StatusUnsupportedMediaType || !strings.HasPrefix(rec.Body.String(), "httpbatch: unsupported Content-Type") {
			t.Errorf("Content-Type %q: status %d %q, want 415 under the httpbatch prefix", ctype, rec.Code, rec.Body.String())
		}
	}
	if fb.calls.Load() != 0 {
		t.Fatalf("a refused request reached the backend %d times", fb.calls.Load())
	}
}

func TestHandlerEnforcesMaxBatch(t *testing.T) {
	// fakeBackend hints MaxBatch 16; a 17-frame batch must be refused
	// rather than run unsplit.
	fb := &fakeBackend{cost: 0.01}
	srv := httptest.NewServer(Handler(fb))
	defer srv.Close()
	body := appendRequest(nil, "car", make([]int64, 17))
	resp, err := http.Post(srv.URL, batchwire.MediaType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch = %d, want 400", resp.StatusCode)
	}
	if fb.calls.Load() != 0 {
		t.Fatal("oversized batch reached the backend")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing endpoint accepted")
	}
	if _, err := New(Config{Endpoint: "http://x", Retries: -2}); err == nil {
		t.Fatal("Retries below -1 accepted")
	}
	if _, err := New(Config{Endpoint: "http://x", MaxBatch: -1}); err == nil {
		t.Fatal("negative MaxBatch accepted")
	}
	for _, cost := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := New(Config{Endpoint: "http://x", CostSeconds: cost}); err == nil {
			t.Errorf("CostSeconds %v accepted", cost)
		}
	}
}

// TestDeadlineDuringBackoffIsTerminal pins what a caller sees on the
// doomed-deadline path (the rule itself is tested on a fake clock in
// internal/batchwire): context.DeadlineExceeded, with the endpoint's last
// answer under this protocol's prefix, after exactly one request. The
// deadline is far off and the backoff farther, so the test never waits.
func TestDeadlineDuringBackoffIsTerminal(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	c, err := New(Config{Endpoint: srv.URL, Retries: 3, RetryBackoff: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, err = c.DetectBatch(ctx, "car", []int64{1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "last attempt: httpbatch: endpoint returned 500 Internal Server Error: boom") {
		t.Fatalf("err = %v, want the endpoint's last answer in the message", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("endpoint saw %d requests, want 1 (no attempt after a doomed backoff)", got)
	}
	st := c.Stats()
	if st.Requests != 1 || st.Retries != 0 {
		t.Fatalf("stats = %+v, want 1 request, 0 retries", st)
	}
}

// TestOversizedResponseIsTerminal: a 200 whose body is larger than any
// conforming server produces is refused, not buffered — one request, no
// retry, a protocol error under this package's prefix.
func TestOversizedResponseIsTerminal(t *testing.T) {
	huge, hits := canned([]byte{batchwire.Version}, batchwire.MaxResponseBytes+1)
	c, err := New(Config{Endpoint: "http://gpu/detect", HTTPClient: huge, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.DetectBatch(context.Background(), "car", []int64{1})
	if err == nil || !strings.Contains(err.Error(), "httpbatch: response exceeds") {
		t.Fatalf("err = %v, want an httpbatch response-size error", err)
	}
	if st := c.Stats(); hits.Load() != 1 || st.Requests != 1 || st.Retries != 0 || st.Batches != 0 {
		t.Fatalf("endpoint saw %d requests, stats = %+v; an oversized answer must be terminal", hits.Load(), st)
	}
}

// canned is an endpoint without a socket: an http.Client whose every request
// is answered 200 with body, declaring length bytes (-1: undeclared), and a
// count of the requests it saw.
func canned(body []byte, length int64) (*http.Client, *atomic.Int64) {
	hits := new(atomic.Int64)
	return &http.Client{Transport: roundTripper(func(*http.Request) (*http.Response, error) {
		hits.Add(1)
		return &http.Response{
			StatusCode:    http.StatusOK,
			Status:        "200 OK",
			Header:        http.Header{},
			Body:          io.NopCloser(bytes.NewReader(body)),
			ContentLength: length,
		}, nil
	})}, hits
}

type roundTripper func(*http.Request) (*http.Response, error)

func (f roundTripper) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// floatBackend answers every frame with detections whose floats have no
// short decimal form, one whose class is not the requested one and one
// whose echoed frame is off by one, at an arbitrary per-frame cost.
type floatBackend struct{}

func (floatBackend) DetectBatchCost(_ context.Context, class string, frames []int64) ([][]backend.Detection, []float64, error) {
	out := make([][]backend.Detection, len(frames))
	costs := make([]float64, len(frames))
	for i, f := range frames {
		costs[i] = 1.0 / 3.0 * float64(i+1)
		if f%3 == 1 {
			continue // nothing found
		}
		out[i] = []backend.Detection{
			{Frame: f, Class: class, Box: backend.Box{X1: 0.1 + 0.2, Y1: 1.0 / 3.0, X2: 0.30000000000000004, Y2: 1e-17}, Score: 0.123456789012345678, TruthID: -1},
			{Frame: f + 1, Class: "truck", Box: backend.Box{X1: math.SmallestNonzeroFloat64, Y1: math.Copysign(0, -1), X2: math.MaxFloat64, Y2: 5e-324}, Score: 1, TruthID: math.MaxInt32},
		}
	}
	return out, costs, nil
}

func (b floatBackend) DetectBatch(ctx context.Context, class string, frames []int64) ([][]backend.Detection, error) {
	dets, _, err := b.DetectBatchCost(ctx, class, frames)
	return dets, err
}

func (floatBackend) Hints() backend.Hints { return backend.Hints{CostSeconds: 0.05, MaxBatch: 16} }

// serve posts body to h under ctype and returns the recorded answer.
func serve(h http.Handler, ctype string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/detect", bytes.NewReader(body))
	req.Header.Set("Content-Type", ctype)
	h.ServeHTTP(rec, req)
	return rec
}

// TestFrameDecodeAllocs: decoding an n-frame response costs the results
// slice, one detection slab and the costs — three allocations, however many
// frames and detections the response carries.
func TestFrameDecodeAllocs(t *testing.T) {
	for _, tc := range []struct{ frames, perFrame int }{{1, 0}, {4, 1}, {32, 8}, {32, 64}} {
		frames := make([]int64, tc.frames)
		dets := make([][]backend.Detection, tc.frames)
		costs := make([]float64, tc.frames)
		for i := range frames {
			frames[i] = int64(100 + i)
			for j := 0; j < tc.perFrame; j++ {
				dets[i] = append(dets[i], backend.Detection{Frame: frames[i], Class: "car", Box: backend.Box{X1: 1, Y1: 2, X2: 3, Y2: 4}, Score: 0.5, TruthID: j})
			}
		}
		body, err := appendResponse(nil, "car", frames, dets, costs)
		if err != nil {
			t.Fatal(err)
		}
		want := 3.0
		if tc.perFrame == 0 {
			want = 2 // nothing found: no slab
		}
		got := testing.AllocsPerRun(50, func() {
			if _, _, err := decodeResponse(body, "car", frames); err != nil {
				t.Fatal(err)
			}
		})
		if got != want {
			t.Errorf("%d frames × %d detections: %v allocations per decode, want %v", tc.frames, tc.perFrame, got, want)
		}
	}
}
