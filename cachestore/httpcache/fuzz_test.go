package httpcache

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/cachestore"
)

// serveFuzz posts body to path on a handler over a fresh in-memory store and
// reports the answer, or false for a 4xx. Any other non-200 status fails.
func serveFuzz(t *testing.T, store cachestore.Store, path string, body []byte) (*httptest.ResponseRecorder, bool) {
	t.Helper()
	rec := httptest.NewRecorder()
	Handler(store).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code >= 400 && rec.Code < 500 {
		return rec, false
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d for body %q", rec.Code, body)
	}
	return rec, true
}

// FuzzHandlerGet feeds arbitrary bodies to the get route: never a panic,
// 200 or 4xx, and a 200 carries exactly one entry per requested key.
func FuzzHandlerGet(f *testing.F) {
	f.Add([]byte(`{"keys": ["v1:000000000000002a:17:car"]}`)) // the package doc's example
	f.Add([]byte(`{"keys": ["v1:000000000000002a:17:car", "v1:000000000000002a:18:a:b"]}`))
	f.Add([]byte(`{"keys": ["v9:junk:1:car"]}`))
	f.Add([]byte(`{"keys": []}`))
	f.Add([]byte(`{"keys": null}`))
	f.Add([]byte(`{"keys": [17]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"keys": [`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec, ok := serveFuzz(t, cachestore.NewLocal(64), "/cache/get", body)
		if !ok {
			return
		}
		var req getRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not decode (%v): %q", err, body)
		}
		var resp getResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body does not decode (%v): %q", err, rec.Body.Bytes())
		}
		if len(resp.Entries) != len(req.Keys) {
			t.Fatalf("%d entries for %d keys", len(resp.Entries), len(req.Keys))
		}
	})
}

// FuzzHandlerPut feeds arbitrary bodies to the put route: never a panic,
// 200 or 4xx, and a 200 acknowledges every entry of the request and has
// stored the last one.
func FuzzHandlerPut(f *testing.F) {
	f.Add([]byte(`{"entries": [{"key": "v1:000000000000002a:17:car", "dets": [{"frame": 17, "class": "car", "box": [1, 2, 3, 4], "score": 0.93, "truth_id": 7}]}]}`))
	f.Add([]byte(`{"entries": [{"key": "v1:000000000000002a:17:car"}, {"key": "v1:000000000000002a:18:car", "dets": []}]}`))
	f.Add([]byte(`{"entries": [{"key": "v1:000000000000002a:17:car", "dets": null}]}`))
	f.Add([]byte(`{"entries": [{"key": "garbage", "dets": []}]}`))
	f.Add([]byte(`{"entries": [{"dets": [{"box": [1, 2, 3, 4, 5]}]}]}`))
	f.Add([]byte(`{"entries": []}`))
	f.Add([]byte(`{"entries": null}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"entries": [`))
	f.Fuzz(func(t *testing.T, body []byte) {
		store := cachestore.NewLocal(64)
		rec, ok := serveFuzz(t, store, "/cache/put", body)
		if !ok {
			return
		}
		var req putRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not decode (%v): %q", err, body)
		}
		var resp putResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body does not decode (%v): %q", err, rec.Body.Bytes())
		}
		if resp.Stored != len(req.Entries) || resp.Stored == 0 {
			t.Fatalf("stored %d for %d entries", resp.Stored, len(req.Entries))
		}
		last, err := cachestore.DecodeKey(req.Entries[len(req.Entries)-1].Key)
		if err != nil {
			t.Fatalf("200 for an undecodable key: %v", err)
		}
		if got, err := store.GetBatch(context.Background(), []cachestore.Key{last}); err != nil || !got[0].Found {
			t.Fatalf("acknowledged entry %+v is not in the store: %+v, %v", last, got, err)
		}
	})
}

// FuzzClientResponse hands the client an arbitrary 200 body for a lookup
// and for a store: each returns an error or — the lookup — entries aligned
// with the keys; never a panic, never a misaligned success.
func FuzzClientResponse(f *testing.F) {
	f.Add([]byte(`{"entries": [{"found": true, "dets": [{"frame": 17, "class": "car", "box": [1, 2, 3, 4], "score": 0.93, "truth_id": 7}]}, {"found": false}]}`), uint8(2))
	f.Add([]byte(`{"entries": [{"found": true}, {"found": true, "dets": []}]}`), uint8(2))
	f.Add([]byte(`{"entries": [{"found": true}]}`), uint8(2)) // short entries
	f.Add([]byte(`{"entries": [null, {}]}`), uint8(2))
	f.Add([]byte(`{"entries": []}`), uint8(1))
	f.Add([]byte(`{"stored": 1}`), uint8(1))
	f.Add([]byte(`{"stored": "one"}`), uint8(1))
	f.Add([]byte(`[]`), uint8(1))
	f.Add([]byte(`null`), uint8(1))
	f.Add([]byte(``), uint8(1))
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
		if got, err := c.GetBatch(ctx, keys); err == nil {
			var resp getResponse
			if err := json.Unmarshal(body, &resp); err != nil || len(resp.Entries) != len(keys) {
				t.Fatalf("lookup of %d keys succeeded on body %q (%d entries, %v)", len(keys), body, len(resp.Entries), err)
			}
			for i, e := range resp.Entries {
				if got[i].Found != e.Found || len(got[i].Dets) != len(e.Dets) {
					t.Fatalf("entry %d = %+v, body says %+v", i, got[i], e)
				}
			}
		}
		_ = c.PutBatch(ctx, keys, make([][]backend.Detection, len(keys))) // any outcome but a panic
	})
}
