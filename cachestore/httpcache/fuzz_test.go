package httpcache

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/cachestore"
	"github.com/exsample/exsample/internal/batchwire"
)

// serveFuzz posts body as a frame to path on a handler over store and
// reports the answer, or false for a 4xx. Any other non-200 status, or a 200
// that is not a frame, fails.
func serveFuzz(t *testing.T, store cachestore.Store, path string, body []byte) (*httptest.ResponseRecorder, bool) {
	t.Helper()
	rec := post(Handler(store), path, batchwire.MediaType, body)
	if rec.Code >= 400 && rec.Code < 500 {
		return rec, false
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d for body %q", rec.Code, body)
	}
	if got := rec.Header().Get("Content-Type"); got != batchwire.MediaType {
		t.Fatalf("answered as %s", got)
	}
	return rec, true
}

var docKey = cachestore.Key{Content: 42, Class: "car", Frame: 17}

// handlerGets is the seed corpus of FuzzHandlerGet: one key (docKey),
// two keys, no keys, a negative frame, frames broken at each layer and a key
// count beyond the body.
func handlerGets() [][]byte {
	doc := appendGetRequest(nil, []cachestore.Key{docKey})
	return [][]byte{
		doc,
		appendGetRequest(nil, []cachestore.Key{docKey, {Content: 42, Class: "a:b", Frame: 18}}),
		appendGetRequest(nil, nil),
		appendGetRequest(nil, []cachestore.Key{{Content: 1, Class: "car", Frame: -1}}),
		append([]byte{batchwire.Version + 1}, doc[1:]...),
		doc[:len(doc)-1],
		append(append([]byte(nil), doc...), 0),
		{batchwire.Version, 0xff, 0xff, 0xff, 0xff, 0x0f},
	}
}

// FuzzHandlerGet feeds arbitrary frames to the get route: never a panic,
// 200 or 4xx, and a 200 carries exactly one entry per requested key.
func FuzzHandlerGet(f *testing.F) {
	for _, body := range handlerGets() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		store := cachestore.NewLocal(64)
		if err := store.PutBatch(context.Background(), []cachestore.Key{docKey}, [][]backend.Detection{dets(17)}); err != nil {
			t.Fatal(err)
		}
		rec, ok := serveFuzz(t, store, "/cache/get", body)
		if !ok {
			return
		}
		keys, err := decodeGetRequest(body)
		if err != nil {
			t.Fatalf("200 for a frame that does not decode (%v): %q", err, body)
		}
		if err := decodeEntries(rec.Body.Bytes(), keys, make([]cachestore.Entry, len(keys))); err != nil {
			t.Fatalf("200 frame does not decode against its %d keys (%v): %q", len(keys), err, rec.Body.Bytes())
		}
	})
}

// handlerPuts is the seed corpus of FuzzHandlerPut: one entry, a memoized
// empty and a nil entry, no entries, a negative frame, an entry over
// maxDetsPerEntry, frames broken at each layer and a total beyond the body.
func handlerPuts() [][]byte {
	put := func(keys []cachestore.Key, vals [][]backend.Detection) []byte {
		b, err := appendPutRequest(nil, keys, vals)
		if err != nil {
			panic(err)
		}
		return b
	}
	doc := put([]cachestore.Key{docKey}, [][]backend.Detection{dets(17)})
	return [][]byte{
		doc,
		put([]cachestore.Key{docKey, {Content: 42, Class: "car", Frame: 18}}, [][]backend.Detection{nil, {}}),
		put(nil, nil),
		put([]cachestore.Key{{Content: 1, Class: "car", Frame: -1}}, [][]backend.Detection{nil}),
		put([]cachestore.Key{docKey}, [][]backend.Detection{make([]backend.Detection, maxDetsPerEntry+1)}),
		append([]byte{batchwire.Version + 1}, doc[1:]...),
		doc[:len(doc)-1],
		append(append([]byte(nil), doc...), 0),
		{batchwire.Version, 1, 0xff, 0xff, 0xff, 0xff, 0x0f},
	}
}

// FuzzHandlerPut feeds arbitrary frames to the put route: never a panic,
// 200 or 4xx, and a 200 acknowledges every entry of the request and has
// stored the last one.
func FuzzHandlerPut(f *testing.F) {
	for _, body := range handlerPuts() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		store := cachestore.NewLocal(64)
		rec, ok := serveFuzz(t, store, "/cache/put", body)
		if !ok {
			return
		}
		keys, _, err := decodePutRequest(body)
		if err != nil {
			t.Fatalf("200 for a frame that does not decode (%v): %q", err, body)
		}
		r := batchwire.NewReader(rec.Body.Bytes())
		if stored := r.Uvarint(); r.Done() != nil || stored != uint64(len(keys)) || stored == 0 {
			t.Fatalf("stored %d for %d entries (%v): %q", stored, len(keys), r.Done(), rec.Body.Bytes())
		}
		last := keys[len(keys)-1]
		if got, err := store.GetBatch(context.Background(), []cachestore.Key{last}); err != nil || !got[0].Found {
			t.Fatalf("acknowledged entry %+v is not in the store: %+v, %v", last, got, err)
		}
	})
}

// refEntries is an independent parse of a binary lookup response for keys:
// written from the package doc with encoding/binary alone, sharing no code
// with batchwire.Reader, so the client fuzzer checks the client against the
// documented layout.
func refEntries(b []byte, keys []cachestore.Key) ([]cachestore.Entry, error) {
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
		out []cachestore.Entry
		err error
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
		if uvarint() != uint64(len(keys)) {
			panic(bad)
		}
		total := uvarint()
		for _, k := range keys {
			if len(b) == 0 || b[0] > 1 {
				panic(bad)
			}
			e := cachestore.Entry{Found: b[0] == 1}
			b = b[1:]
			for m := uvarint(); m > 0; m-- {
				d := backend.Detection{Class: k.Class}
				if tag := uvarint(); tag > 0 {
					if tag-1 > uint64(len(b)) {
						panic(bad)
					}
					d.Class, b = string(b[:tag-1]), b[tag-1:]
				}
				d.Frame = k.Frame + varint()
				d.Box = backend.Box{X1: float(), Y1: float(), X2: float(), Y2: float()}
				d.Score = float()
				d.TruthID = int(varint())
				e.Dets = append(e.Dets, d)
			}
			if !e.Found && len(e.Dets) > 0 {
				panic(bad)
			}
			total -= uint64(len(e.Dets))
			out = append(out, e)
		}
		if total != 0 || len(b) != 0 {
			panic(bad)
		}
	}()
	return out, err
}

// clientResponses is the seed corpus of FuzzClientResponse, each for
// a two-key batch: lookups that conform, lookups broken at each layer of the
// frame, and store acknowledgements.
func clientResponses() [][]byte {
	keys := []cachestore.Key{{Content: 1, Class: "car", Frame: 0}, {Content: 1, Class: "car", Frame: 1}}
	other := backend.Detection{Frame: 2, Class: "truck", Box: backend.Box{X1: 0.1, Y1: 0.2, X2: 0.3, Y2: 0.4}, Score: 0.5, TruthID: -1}
	entries := func(es ...cachestore.Entry) []byte {
		b, err := appendEntries(nil, keys, es)
		if err != nil {
			panic(err)
		}
		return b
	}
	full := entries(cachestore.Entry{Found: true, Dets: dets(0)}, cachestore.Entry{Found: true, Dets: []backend.Detection{other}})
	return [][]byte{
		full,
		entries(cachestore.Entry{Found: true}, cachestore.Entry{}),
		entries(cachestore.Entry{Found: true})[:4],                 // one entry for two keys
		{batchwire.Version, 2, 0, 2, 0, 0, 0},                      // found byte 2
		append(append([]byte(nil), full...), 0),                    // trailing byte
		append([]byte{batchwire.Version + 1}, full[1:]...),         // version skew
		{batchwire.Version, 2, 0xff, 0xff, 0xff, 0xff, 0x0f},       // total beyond the body
		{batchwire.Version, 2},                                     // a store acknowledgement of both keys
		{batchwire.Version, 1},                                     // a short acknowledgement
		[]byte(`{"entries": [{"found": true}, {"found": false}]}`), // JSON from a JSON-only server
	}
}

// FuzzClientResponse hands the client an arbitrary 200 body for a lookup
// and for a store. The lookup returns an error or — exactly when the
// documented layout parses — the entries the body encodes, aligned with the
// keys; the store succeeds exactly when the body acknowledges every entry.
// Never a panic.
func FuzzClientResponse(f *testing.F) {
	for _, body := range clientResponses() {
		f.Add(body, uint8(2))
	}
	f.Fuzz(func(t *testing.T, body []byte, n uint8) {
		endpoint, _ := canned(body, -1)
		c, err := New(Config{Endpoint: "http://cache", HTTPClient: endpoint, Retries: -1})
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]cachestore.Key, int(n%32)+1)
		for i := range keys {
			keys[i] = cachestore.Key{Content: 1, Class: "car", Frame: int64(i)}
		}
		ctx := context.Background()
		got, err := c.GetBatch(ctx, keys)
		want, wantErr := refEntries(body, keys)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("client err = %v, independent parse err = %v, body %q", err, wantErr, body)
		}
		for i := range got {
			if got[i].Found != want[i].Found || !sameDetections(got[i].Dets, want[i].Dets) {
				t.Fatalf("entry %d = %+v, body says %+v", i, got[i], want[i])
			}
		}
		acked := false
		if len(body) > 0 && body[0] == 1 {
			stored, k := binary.Uvarint(body[1:])
			acked = k > 0 && 1+k == len(body) && stored == uint64(len(keys))
		}
		if err := c.PutBatch(ctx, keys, make([][]backend.Detection, len(keys))); (err == nil) != acked {
			t.Fatalf("store of %d keys: err = %v on body %q", len(keys), err, body)
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
