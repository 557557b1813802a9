package httpcache

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
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
// the wire bit-exactly (the frame carries their IEEE-754 bits), which is
// what keeps remote-tier results byte-identical to paid inference.
func TestFloatRoundTrip(t *testing.T) {
	c, _, _ := loopback(t)
	ctx := context.Background()
	in := []backend.Detection{{
		Frame: 3, Class: "car",
		Box:   backend.Box{X1: 0.1 + 0.2, Y1: 1.0 / 3.0, X2: 0.30000000000000004, Y2: 1e-17},
		Score: 0.123456789012345678,
	}}
	k := []cachestore.Key{{Content: 1, Class: "car", Frame: 3}}
	if err := c.PutBatch(ctx, k, [][]backend.Detection{in}); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetBatch(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Dets[0] != in[0] {
		t.Fatalf("floats drifted over the wire: got %+v want %+v", got[0].Dets[0], in[0])
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
	huge, hits := canned([]byte(`{"entries":[{"found":false}],"stored":1}`), batchwire.MaxResponseBytes+1)
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

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestHandlerRejects: the server rejects malformed, oversized and
// version-skewed requests with 400 — one bad key fails the whole batch so
// a skewed client cannot poison a shared store.
func TestHandlerRejects(t *testing.T) {
	_, _, srv := loopback(t)
	goodKey := cachestore.Key{Content: 1, Class: "car", Frame: 0}.Encode()

	manyKeys := make([]string, 5000)
	for i := range manyKeys {
		manyKeys[i] = cachestore.Key{Content: 1, Class: "car", Frame: int64(i)}.Encode()
	}
	manyJSON, _ := json.Marshal(map[string]any{"keys": manyKeys})

	bigDets := make([]batchwire.Detection, 2000)
	bigEntry, _ := json.Marshal(map[string]any{"entries": []any{map[string]any{"key": goodKey, "dets": bigDets}}})

	cases := []struct {
		name, path, body string
		wantStatus       int
	}{
		{"corrupt get body", "/get", `{"keys": [`, http.StatusBadRequest},
		{"empty keys", "/get", `{"keys": []}`, http.StatusBadRequest},
		{"bad key", "/get", `{"keys": ["v9:junk:1:car"]}`, http.StatusBadRequest},
		{"one bad key poisons the batch", "/get", fmt.Sprintf(`{"keys": [%q, "nope"]}`, goodKey), http.StatusBadRequest},
		{"oversized key batch", "/get", string(manyJSON), http.StatusBadRequest},
		{"corrupt put body", "/put", `{"entries": [`, http.StatusBadRequest},
		{"empty entries", "/put", `{"entries": []}`, http.StatusBadRequest},
		{"bad put key", "/put", `{"entries": [{"key": "garbage", "dets": []}]}`, http.StatusBadRequest},
		{"oversized entry", "/put", string(bigEntry), http.StatusBadRequest},
		{"unknown endpoint", "/stats", `{}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		resp := postJSON(t, srv.URL+tc.path, tc.body)
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.wantStatus)
		}
	}

	// Non-POST is 405.
	resp, err := http.Get(srv.URL + "/get")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /get: status %d, want 405", resp.StatusCode)
	}

	// An oversized body (beyond MaxRequestBytes) is rejected, not decoded.
	huge := `{"keys": ["` + strings.Repeat("x", batchwire.MaxRequestBytes) + `"]}`
	resp2 := postJSON(t, srv.URL+"/get", huge)
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body: status %d, want 400", resp2.StatusCode)
	}
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

// TestFrameVersionTracksKeyVersion: the binary key carries no version of
// its own, so the frame's version byte must move with the JSON key's.
func TestFrameVersionTracksKeyVersion(t *testing.T) {
	if want := fmt.Sprintf("v%d:", batchwire.Version); !strings.HasPrefix(cachestore.Key{}.Encode(), want) {
		t.Fatalf("key %q does not carry frame version %d", cachestore.Key{}.Encode(), batchwire.Version)
	}
}

// postCodec posts body to a handler's path under ctype.
func postCodec(h http.Handler, path, ctype string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", ctype)
	h.ServeHTTP(rec, req)
	return rec
}

// TestCodecsAgree: the same puts and lookups sent as JSON and as binary
// frames store and return the same detections, bit for bit, and every
// rejection is a 400 in both codecs.
func TestCodecsAgree(t *testing.T) {
	floats := backend.Detection{Frame: 3, Class: "car",
		Box:   backend.Box{X1: 0.1 + 0.2, Y1: 1.0 / 3.0, X2: 0.30000000000000004, Y2: 1e-17},
		Score: 0.123456789012345678, TruthID: -1}
	odd := backend.Detection{Frame: 4, Class: "truck",
		Box:   backend.Box{X1: math.SmallestNonzeroFloat64, Y1: math.Copysign(0, -1), X2: math.MaxFloat64, Y2: 5e-324},
		Score: 1, TruthID: math.MaxInt32}
	keys := []cachestore.Key{{Content: 1, Class: "car", Frame: 3}, {Content: 1, Class: "car", Frame: 4}, {Content: 2, Class: "a:b", Frame: 0}}
	vals := [][]backend.Detection{{floats, odd}, nil, {{Frame: 0, Class: "a:b", Box: backend.Box{X1: 1, Y1: 2, X2: 3, Y2: 4}, Score: 0.5, TruthID: 9}}}
	probe := append(append([]cachestore.Key(nil), keys...), cachestore.Key{Content: 9, Class: "car", Frame: 1})

	jsonPut := putRequest{}
	for i, k := range keys {
		jsonPut.Entries = append(jsonPut.Entries, putEntry{Key: k.Encode(), Dets: batchwire.ToWire(vals[i])})
	}
	binPut, err := appendPutRequest(nil, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	jsonGet := getRequest{}
	for _, k := range probe {
		jsonGet.Keys = append(jsonGet.Keys, k.Encode())
	}
	binGet := appendGetRequest(nil, probe)

	// Each store is written in one codec and read in both.
	for _, putCodec := range codecs {
		h := Handler(cachestore.NewLocal(64))
		body := binPut
		if putCodec != batchwire.MediaType {
			body = mustJSON(jsonPut)
		}
		if rec := postCodec(h, "/put", putCodec, body); rec.Code != http.StatusOK {
			t.Fatalf("%s put: status %d: %s", putCodec, rec.Code, rec.Body.Bytes())
		}
		var fromJSON getResponse
		if rec := postCodec(h, "/get", "application/json", mustJSON(jsonGet)); rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &fromJSON) != nil {
			t.Fatalf("%s put, JSON get: status %d: %s", putCodec, rec.Code, rec.Body.Bytes())
		}
		rec := postCodec(h, "/get", batchwire.MediaType, binGet)
		fromFrame := make([]cachestore.Entry, len(probe))
		if err := decodeEntries(rec.Body.Bytes(), probe, fromFrame); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("%s put, binary get: status %d, %v", putCodec, rec.Code, err)
		}
		for i := range probe {
			var want []backend.Detection
			if i < len(vals) {
				want = batchwire.PinFrame(keys[i].Frame, vals[i]) // as Local stores them
			}
			found := i < len(keys)
			j := fromJSON.Entries[i]
			if fromFrame[i].Found != found || j.Found != found ||
				!sameDetections(fromFrame[i].Dets, want) || !sameDetections(batchwire.FromWire(j.Dets), want) {
				t.Errorf("%s put, key %d: binary %+v, JSON %+v, want found=%v %+v", putCodec, i, fromFrame[i], j, found, want)
			}
		}
	}

	good := keys[0]
	bad := cachestore.Key{Content: 1, Class: "car", Frame: -1}
	many := make([]cachestore.Key, maxKeysPerRequest+1)
	big := [][]backend.Detection{make([]backend.Detection, maxDetsPerEntry+1)}
	for i := range big[0] {
		big[0][i] = dets(good.Frame)[0]
	}
	getJSON := func(ks ...string) []byte { return mustJSON(getRequest{Keys: ks}) }
	putJSON := func(k string, d []backend.Detection) []byte {
		return mustJSON(putRequest{Entries: []putEntry{{Key: k, Dets: batchwire.ToWire(d)}}})
	}
	putFrame := func(ks []cachestore.Key, vs [][]backend.Detection) []byte {
		b, err := appendPutRequest(nil, ks, vs)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	manyJSON := make([]string, len(many))
	var manyPut putRequest
	for i := range many {
		many[i] = cachestore.Key{Content: 1, Class: "car", Frame: int64(i)}
		manyJSON[i] = many[i].Encode()
		manyPut.Entries = append(manyPut.Entries, putEntry{Key: manyJSON[i]})
	}
	goodGet, goodPut := appendGetRequest(nil, []cachestore.Key{good}), putFrame([]cachestore.Key{good}, [][]backend.Detection{nil})
	rejections := []struct {
		name, path  string
		json, frame []byte
	}{
		{"no keys", "/get", getJSON(), appendGetRequest(nil, nil)},
		{"no entries", "/put", []byte(`{"entries":[]}`), putFrame(nil, nil)},
		{"over maxKeysPerRequest", "/get", getJSON(manyJSON...), appendGetRequest(nil, many)},
		{"over maxKeysPerRequest", "/put", mustJSON(manyPut), putFrame(many, make([][]backend.Detection, len(many)))},
		{"over maxDetsPerEntry", "/put", putJSON(good.Encode(), big[0]), putFrame([]cachestore.Key{good}, big)},
		{"negative frame", "/get", getJSON("v1:0000000000000001:-1:car"), appendGetRequest(nil, []cachestore.Key{bad})},
		{"negative frame", "/put", putJSON("v1:0000000000000001:-1:car", nil), putFrame([]cachestore.Key{bad}, [][]backend.Detection{nil})},
		{"bad version", "/get", getJSON("v9:0000000000000001:0:car"), append([]byte{batchwire.Version + 1}, goodGet[1:]...)},
		{"bad version", "/put", putJSON("v9:0000000000000001:0:car", nil), append([]byte{batchwire.Version + 1}, goodPut[1:]...)},
		{"trailing bytes", "/get", append(getJSON(good.Encode()), " {}"...), append(goodGet, 0)},
		{"trailing bytes", "/put", append(putJSON(good.Encode(), nil), " {}"...), append(goodPut, 0)},
	}
	for _, tc := range rejections {
		store := cachestore.NewLocal(64)
		h := Handler(store)
		if rec := postCodec(h, tc.path, "application/json", tc.json); rec.Code != http.StatusBadRequest {
			t.Errorf("%s %s: JSON status %d, want 400", tc.name, tc.path, rec.Code)
		}
		if rec := postCodec(h, tc.path, batchwire.MediaType, tc.frame); rec.Code != http.StatusBadRequest {
			t.Errorf("%s %s: frame status %d, want 400", tc.name, tc.path, rec.Code)
		}
		if got, _ := store.GetBatch(context.Background(), []cachestore.Key{good}); got[0].Found {
			t.Errorf("%s %s: a rejected request wrote to the store", tc.name, tc.path)
		}
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
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
