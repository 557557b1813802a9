package httpcache

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/cachestore"
	"github.com/exsample/exsample/internal/batchwire"
)

// The timeout/retry/admission discipline itself is tested once, on a fake
// clock, in internal/batchwire. TestRetryOn5xx, Test4xxTerminal and
// TestOversizedResponseIsTerminal prove this package inherits it: Config
// reaches the shared client, its counters surface in Stats, and its errors
// carry this protocol's prefix.

func loopback(t *testing.T) (*Client, *cachestore.Local, *httptest.Server) {
	t.Helper()
	store := cachestore.NewLocal(4096)
	srv := httptest.NewServer(Handler(store))
	t.Cleanup(srv.Close)
	c, err := New(Config{Endpoint: srv.URL, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	return c, store, srv
}

func dets(frame int64) []backend.Detection {
	return []backend.Detection{{
		Frame: frame,
		Class: "car",
		Box:   backend.Box{X1: 0.125, Y1: 2.5, X2: 3.75, Y2: 4.0625},
		Score: 0.9375, // exactly representable, but arbitrary floats round-trip too
	}}
}

// TestClientServerRoundTrip: PutBatch then GetBatch through a real HTTP
// loopback returns exactly what went in, memoized-empty included.
func TestClientServerRoundTrip(t *testing.T) {
	c, _, _ := loopback(t)
	ctx := context.Background()
	keys := []cachestore.Key{
		{Content: 42, Class: "car", Frame: 17},
		{Content: 42, Class: "car", Frame: 18},
	}
	vals := [][]backend.Detection{dets(17), nil}
	if err := c.PutBatch(ctx, keys, vals); err != nil {
		t.Fatal(err)
	}
	probe := append(append([]cachestore.Key{}, keys...), cachestore.Key{Content: 42, Class: "car", Frame: 99})
	got, err := c.GetBatch(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Found || len(got[0].Dets) != 1 || got[0].Dets[0] != vals[0][0] {
		t.Fatalf("entry 0 = %+v, want exact round trip of %+v", got[0], vals[0][0])
	}
	if !got[1].Found || got[1].Dets != nil {
		t.Fatalf("entry 1 = %+v, want memoized empty", got[1])
	}
	if got[2].Found {
		t.Fatalf("entry 2 = %+v, want absent", got[2])
	}
	st := c.Stats()
	if st.Gets != 1 || st.Puts != 1 || st.Keys != 5 || st.Retries != 0 {
		t.Fatalf("stats = %+v, want 1 get + 1 put over 5 keys, no retries", st)
	}
}

// TestFloatRoundTrip: arbitrary float64 box coordinates and scores survive
// the wire bit-exactly (the frame carries their IEEE-754 bits), -0 and
// subnormals included, as do a detection of another class than its key's
// and a key whose class contains a colon — which is
// what keeps remote-tier results byte-identical to paid inference.
func TestFloatRoundTrip(t *testing.T) {
	c, _, _ := loopback(t)
	ctx := context.Background()
	in := []backend.Detection{{
		Frame: 3, Class: "car",
		Box:   backend.Box{X1: 0.1 + 0.2, Y1: 1.0 / 3.0, X2: 0.30000000000000004, Y2: 1e-17},
		Score: 0.123456789012345678, TruthID: -1,
	}, {
		Frame: 3, Class: "truck",
		Box:   backend.Box{X1: math.SmallestNonzeroFloat64, Y1: math.Copysign(0, -1), X2: math.MaxFloat64, Y2: 5e-324},
		Score: 1, TruthID: math.MaxInt32,
	}}
	colon := []backend.Detection{{Frame: 0, Class: "a:b", Box: backend.Box{X1: 1, Y1: 2, X2: 3, Y2: 4}, Score: 0.5, TruthID: 9}}
	k := []cachestore.Key{{Content: 1, Class: "car", Frame: 3}, {Content: 2, Class: "a:b", Frame: 0}}
	if err := c.PutBatch(ctx, k, [][]backend.Detection{in, colon}); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetBatch(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Found || !sameDetections(got[0].Dets, in) {
		t.Fatalf("floats drifted over the wire: got %+v want %+v", got[0].Dets, in)
	}
	if !got[1].Found || !sameDetections(got[1].Dets, colon) {
		t.Fatalf("key %+v: got %+v want %+v", k[1], got[1], colon)
	}
}

// TestBatchSplitting: a batch beyond maxBatch splits into sequential wire
// requests, entries still aligned.
func TestBatchSplitting(t *testing.T) {
	store := cachestore.NewLocal(4096)
	var gets atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/get") {
			gets.Add(1)
		}
		Handler(store).ServeHTTP(w, r)
	}))
	defer srv.Close()
	c, err := New(Config{Endpoint: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	n := 2*maxBatch + 5
	keys := make([]cachestore.Key, n)
	vals := make([][]backend.Detection, n)
	for i := range keys {
		keys[i] = cachestore.Key{Content: 7, Class: "car", Frame: int64(i)}
		vals[i] = dets(int64(i))
	}
	if err := c.PutBatch(ctx, keys, vals); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetBatch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	if got := gets.Load(); got != 3 {
		t.Fatalf("%d keys at maxBatch %d issued %d get requests, want 3", n, maxBatch, got)
	}
	for i, e := range got {
		if !e.Found || e.Dets[0].Frame != int64(i) {
			t.Fatalf("entry %d = %+v, misaligned after splitting", i, e)
		}
	}
}

// TestRetryOn5xx: a transient 500 is retried and the call succeeds; the
// retry is counted.
func TestRetryOn5xx(t *testing.T) {
	store := cachestore.NewLocal(64)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		Handler(store).ServeHTTP(w, r)
	}))
	defer srv.Close()
	c, err := New(Config{Endpoint: srv.URL, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.GetBatch(context.Background(), []cachestore.Key{{Content: 1, Class: "car", Frame: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Found {
		t.Fatal("empty store returned a hit")
	}
	if st := c.Stats(); st.Retries != 1 || st.Requests != 2 {
		t.Fatalf("stats = %+v, want exactly one retry over two requests", st)
	}
}

// Test4xxTerminal: a 400 fails immediately without retries.
func Test4xxTerminal(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "no", http.StatusBadRequest)
	}))
	defer srv.Close()
	c, err := New(Config{Endpoint: srv.URL, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetBatch(context.Background(), []cachestore.Key{{Frame: 0}}); err == nil {
		t.Fatal("400 response did not fail the call")
	}
	if calls.Load() != 1 {
		t.Fatalf("4xx retried (%d attempts), must be terminal", calls.Load())
	}
	if st := c.Stats(); st.Requests != 1 || st.Retries != 0 || st.Gets != 0 {
		t.Fatalf("stats = %+v, want 1 request, 0 retries, 0 gets", st)
	}
}

// TestEntryCountMismatch: a server answering with the wrong entry count is
// a protocol error, not silently misaligned data.
func TestEntryCountMismatch(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", batchwire.MediaType)
		w.Write([]byte{batchwire.Version, 0, 0}) // no entries, no detections
	}))
	defer srv.Close()
	c, err := New(Config{Endpoint: srv.URL, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetBatch(context.Background(), []cachestore.Key{{Frame: 0}}); err == nil {
		t.Fatal("entry-count mismatch accepted")
	}
}

// TestOversizedResponseIsTerminal: a 200 whose body is larger than any
// conforming server produces is refused, not buffered — one request, no
// retry, a protocol error under this package's prefix.
func TestOversizedResponseIsTerminal(t *testing.T) {
	huge, hits := canned([]byte{batchwire.Version, 1}, batchwire.MaxResponseBytes+1)
	c, err := New(Config{Endpoint: "http://cache", HTTPClient: huge, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	keys := []cachestore.Key{{Content: 1, Class: "car", Frame: 0}}
	if _, err := c.GetBatch(ctx, keys); err == nil || !strings.Contains(err.Error(), "httpcache: response exceeds") {
		t.Fatalf("GetBatch err = %v, want an httpcache response-size error", err)
	}
	if err := c.PutBatch(ctx, keys, [][]backend.Detection{nil}); err == nil || !strings.Contains(err.Error(), "httpcache: response exceeds") {
		t.Fatalf("PutBatch err = %v, want an httpcache response-size error", err)
	}
	if st := c.Stats(); hits.Load() != 2 || st.Requests != 2 || st.Retries != 0 || st.Gets != 0 || st.Puts != 0 {
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

// TestPutBatchLengthMismatch: every Store refuses a PutBatch whose values do
// not pair up with its keys, before writing anything — storing "seen, no
// detections" for the unpaired keys would poison a shared tier with
// permanent false negatives. A nil value for a key stays valid.
func TestPutBatchLengthMismatch(t *testing.T) {
	remote, _, _ := loopback(t)
	stores := []struct {
		name  string
		store cachestore.Store
	}{
		{"Local", cachestore.NewLocal(64)},
		{"httpcache.Client", remote},
	}
	ctx := context.Background()
	keys := []cachestore.Key{{Content: 3, Class: "car", Frame: 0}, {Content: 3, Class: "car", Frame: 1}}
	for _, s := range stores {
		for _, vals := range [][][]backend.Detection{nil, {dets(0)}, {dets(0), nil, nil}} {
			if err := s.store.PutBatch(ctx, keys, vals); err == nil {
				t.Errorf("%s: PutBatch accepted %d values for %d keys", s.name, len(vals), len(keys))
			}
		}
		got, err := s.store.GetBatch(ctx, keys)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if got[0].Found || got[1].Found {
			t.Errorf("%s: a refused PutBatch wrote entries: %+v", s.name, got)
		}
		if err := s.store.PutBatch(ctx, keys, [][]backend.Detection{dets(0), nil}); err != nil {
			t.Fatalf("%s: matched PutBatch with a nil value: %v", s.name, err)
		}
		got, err = s.store.GetBatch(ctx, keys)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if !got[0].Found || len(got[0].Dets) != 1 || !got[1].Found || got[1].Dets != nil {
			t.Errorf("%s: entries = %+v, want one detection and a memoized empty", s.name, got)
		}
	}
}

// post posts body to a handler's path under ctype.
func post(h http.Handler, path, ctype string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", ctype)
	h.ServeHTTP(rec, req)
	return rec
}

// TestHandlerRejects: the server rejects malformed, oversized and
// version-skewed requests with 400 and writes nothing — one bad key fails
// the whole batch so a skewed client cannot poison a shared store.
func TestHandlerRejects(t *testing.T) {
	good := cachestore.Key{Content: 1, Class: "car", Frame: 0}
	bad := cachestore.Key{Content: 1, Class: "car", Frame: -1}
	many := make([]cachestore.Key, maxKeysPerRequest+1)
	for i := range many {
		many[i] = cachestore.Key{Content: 1, Class: "car", Frame: int64(i + 1)}
	}
	big := make([]backend.Detection, maxDetsPerEntry+1)
	for i := range big {
		big[i] = dets(good.Frame)[0]
	}
	putFrame := func(ks []cachestore.Key, vs [][]backend.Detection) []byte {
		b, err := appendPutRequest(nil, ks, vs)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	goodGet, goodPut := appendGetRequest(nil, []cachestore.Key{good}), putFrame([]cachestore.Key{good}, [][]backend.Detection{nil})
	cases := []struct {
		name, path string
		body       []byte
		wantStatus int
	}{
		{"truncated get", "/get", goodGet[:len(goodGet)-1], http.StatusBadRequest},
		{"no keys", "/get", appendGetRequest(nil, nil), http.StatusBadRequest},
		{"negative frame", "/get", appendGetRequest(nil, []cachestore.Key{bad}), http.StatusBadRequest},
		{"one bad key poisons the batch", "/get", appendGetRequest(nil, []cachestore.Key{good, bad}), http.StatusBadRequest},
		{"over maxKeysPerRequest", "/get", appendGetRequest(nil, many), http.StatusBadRequest},
		{"bad version", "/get", append([]byte{batchwire.Version + 1}, goodGet[1:]...), http.StatusBadRequest},
		{"trailing bytes", "/get", append(append([]byte(nil), goodGet...), 0), http.StatusBadRequest},
		{"oversized body", "/get", bytes.Repeat([]byte{batchwire.Version}, batchwire.MaxRequestBytes+1), http.StatusBadRequest},
		{"truncated put", "/put", goodPut[:len(goodPut)-1], http.StatusBadRequest},
		{"no entries", "/put", putFrame(nil, nil), http.StatusBadRequest},
		{"negative frame", "/put", putFrame([]cachestore.Key{bad}, [][]backend.Detection{nil}), http.StatusBadRequest},
		{"one bad key poisons the batch", "/put", putFrame([]cachestore.Key{good, bad}, [][]backend.Detection{nil, nil}), http.StatusBadRequest},
		{"over maxKeysPerRequest", "/put", putFrame(many, make([][]backend.Detection, len(many))), http.StatusBadRequest},
		{"over maxDetsPerEntry", "/put", putFrame([]cachestore.Key{good}, [][]backend.Detection{big}), http.StatusBadRequest},
		{"bad version", "/put", append([]byte{batchwire.Version + 1}, goodPut[1:]...), http.StatusBadRequest},
		{"trailing bytes", "/put", append(append([]byte(nil), goodPut...), 0), http.StatusBadRequest},
		{"unknown endpoint", "/stats", goodPut, http.StatusNotFound},
	}
	for _, tc := range cases {
		store := cachestore.NewLocal(64)
		if rec := post(Handler(store), tc.path, batchwire.MediaType, tc.body); rec.Code != tc.wantStatus {
			t.Errorf("%s %s: status %d, want %d", tc.name, tc.path, rec.Code, tc.wantStatus)
		}
		if got, _ := store.GetBatch(context.Background(), append([]cachestore.Key{good}, many...)); slices.ContainsFunc(got, func(e cachestore.Entry) bool { return e.Found }) {
			t.Errorf("%s %s: a rejected request wrote to the store", tc.name, tc.path)
		}
	}

	// Non-POST is 405.
	rec := httptest.NewRecorder()
	Handler(cachestore.NewLocal(64)).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/get", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /get: status %d, want 405", rec.Code)
	}
}

// TestHandlerRefusesOtherMediaTypes: the handler speaks only the frame. A
// JSON lookup or store, or a request with no Content-Type, is answered 415
// before its body is read, and never reaches the store.
func TestHandlerRefusesOtherMediaTypes(t *testing.T) {
	store := &countingStore{Store: cachestore.NewLocal(64)}
	h := Handler(store)
	bodies := map[string]string{
		"/get": `{"keys": ["v1:000000000000002a:17:car"]}`,
		"/put": `{"entries": [{"key": "v1:000000000000002a:17:car", "dets": []}]}`,
	}
	for path, body := range bodies {
		for _, ctype := range []string{"application/json", ""} {
			rec := post(h, path, ctype, []byte(body))
			if rec.Code != http.StatusUnsupportedMediaType || !strings.HasPrefix(rec.Body.String(), "httpcache: unsupported Content-Type") {
				t.Errorf("%s as %q: status %d %q, want 415 under the httpcache prefix", path, ctype, rec.Code, rec.Body.String())
			}
		}
	}
	if n := store.calls.Load(); n != 0 {
		t.Fatalf("a refused request reached the store %d times", n)
	}
}

// countingStore counts the calls that reach its Store.
type countingStore struct {
	cachestore.Store
	calls atomic.Int64
}

func (s *countingStore) GetBatch(ctx context.Context, keys []cachestore.Key) ([]cachestore.Entry, error) {
	s.calls.Add(1)
	return s.Store.GetBatch(ctx, keys)
}

func (s *countingStore) PutBatch(ctx context.Context, keys []cachestore.Key, vals [][]backend.Detection) error {
	s.calls.Add(1)
	return s.Store.PutBatch(ctx, keys, vals)
}

// TestConfigValidation: New rejects out-of-range configs.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty endpoint accepted")
	}
	if _, err := New(Config{Endpoint: "http://x", Retries: -2}); err == nil {
		t.Error("Retries -2 accepted")
	}
	if _, err := New(Config{Endpoint: "http://x", Timeout: -time.Second}); err == nil {
		t.Error("negative Timeout accepted")
	}
}

// TestTieredOverLoopback: the full composition — Tiered with an httpcache
// Client as L2 against a live loopback server — serves a second user's
// fetch entirely from the shared tier.
func TestTieredOverLoopback(t *testing.T) {
	store := cachestore.NewLocal(4096)
	srv := httptest.NewServer(Handler(store))
	defer srv.Close()

	newTier := func() *cachestore.Tiered {
		c, err := New(Config{Endpoint: srv.URL})
		if err != nil {
			t.Fatal(err)
		}
		return cachestore.NewTiered(cachestore.NewLocal(256), c)
	}
	ctx := context.Background()
	keys := []cachestore.Key{{Content: 8, Class: "car", Frame: 5}}

	first := newTier()
	var fills atomic.Int64
	fill := func(_ context.Context, miss []int) ([][]backend.Detection, []float64, error) {
		fills.Add(int64(len(miss)))
		return [][]backend.Detection{dets(5)}, []float64{0.002}, nil
	}
	if _, err := first.FetchBatch(ctx, keys, nil, fill); err != nil {
		t.Fatal(err)
	}
	second := newTier()
	out, err := second.FetchBatch(ctx, keys, nil, fill)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Where != cachestore.TierL2 {
		t.Fatalf("second user outcome = %+v, want L2 hit over HTTP", out[0])
	}
	if fills.Load() != 1 {
		t.Fatalf("%d detector fills across two users, want 1", fills.Load())
	}
}

// TestShortPutAcknowledgement: a server that acknowledges fewer entries than
// it was sent has not stored what the caller believes; the put fails, and a
// Tiered store counts it as a dropped write-through.
func TestShortPutAcknowledgement(t *testing.T) {
	short, hits := canned([]byte{batchwire.Version, 1}, -1)
	c, err := New(Config{Endpoint: "http://cache", HTTPClient: short, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	keys := []cachestore.Key{{Content: 5, Class: "car", Frame: 0}, {Content: 5, Class: "car", Frame: 1}}
	vals := [][]backend.Detection{dets(0), nil}
	if err := c.PutBatch(ctx, keys, vals); err == nil || !strings.Contains(err.Error(), "httpcache: server acknowledged 1 of 2 entries") {
		t.Fatalf("PutBatch err = %v, want the short acknowledgement", err)
	}
	if st := c.Stats(); st.Puts != 0 || st.Requests != 1 {
		t.Fatalf("stats = %+v, want no successful put over one request", st)
	}
	// Through a Tiered store: the L2 read of the cold keys degrades to a
	// miss, the fill serves them, and the short put is dropped and counted.
	tier := cachestore.NewTiered(cachestore.NewLocal(64), c)
	fill := func(context.Context, []int) ([][]backend.Detection, []float64, error) {
		return vals, []float64{0, 0}, nil
	}
	if _, err := tier.FetchBatch(ctx, keys, nil, fill); err != nil {
		t.Fatal(err)
	}
	if st := tier.Stats(); st.L2PutErrors != 1 || st.Fills != 2 || hits.Load() != 3 {
		t.Fatalf("tier stats = %+v after %d requests, want one dropped write-through", st, hits.Load())
	}
}

// TestFrameDecodeAllocs: decoding an n-key lookup into the caller's entries
// costs one detection slab, however many keys and detections it carries.
func TestFrameDecodeAllocs(t *testing.T) {
	for _, tc := range []struct{ keys, perKey int }{{1, 1}, {4, 1}, {256, 8}, {256, 64}} {
		keys := make([]cachestore.Key, tc.keys)
		entries := make([]cachestore.Entry, tc.keys)
		for i := range keys {
			keys[i] = cachestore.Key{Content: 7, Class: "car", Frame: int64(i)}
			entries[i].Found = i%4 != 3
			for j := 0; entries[i].Found && j < tc.perKey; j++ {
				entries[i].Dets = append(entries[i].Dets, backend.Detection{Frame: int64(i), Class: "car", Box: backend.Box{X1: 1, Y1: 2, X2: 3, Y2: 4}, Score: 0.5, TruthID: j})
			}
		}
		body, err := appendEntries(nil, keys, entries)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]cachestore.Entry, len(keys))
		got := testing.AllocsPerRun(50, func() {
			if err := decodeEntries(body, keys, out); err != nil {
				t.Fatal(err)
			}
		})
		if got != 1 {
			t.Errorf("%d keys × %d detections: %v allocations per decode, want 1", tc.keys, tc.perKey, got)
		}
	}
}
