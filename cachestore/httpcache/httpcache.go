// Package httpcache is the remote half of the shared result tier: a Client
// that speaks a small JSON batch protocol to a cache server, and a Handler
// that serves any cachestore.Store over the same protocol (the loopback
// pairing used by tests, examples and exserve's -cache-remote mode).
//
// # Wire protocol
//
// One POST per batch, routed by path suffix.
//
// GET — POST {endpoint}/get:
//
//	{"keys": ["v1:000000000000002a:17:car", ...]}
//
// Response (HTTP 200), entries aligned with keys:
//
//	{"entries": [{"found": true, "dets": [{"frame": 17, "class": "car",
//	  "box": [x1, y1, x2, y2], "score": 0.93, "truth_id": 7}]},
//	  {"found": false}]}
//
// PUT — POST {endpoint}/put:
//
//	{"entries": [{"key": "v1:000000000000002a:17:car", "dets": [...]}]}
//
// Response (HTTP 200):
//
//	{"stored": 1}
//
// found:true with no dets is a valid memoized "nothing in this frame".
// Errors: a non-200 status fails the batch. Timeouts, bounded retries (5xx
// and transport errors only — a 4xx means the request itself is malformed),
// the doomed-deadline rule, per-endpoint admission and the size bounds on
// both sides are the discipline of internal/batchwire, the transport this
// protocol shares with backend/httpbatch; its package doc states them once.
package httpcache

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/cachestore"
	"github.com/exsample/exsample/internal/batchwire"
)

// proto prefixes every error and rejection of this protocol, including the
// ones the shared transport produces.
const proto = batchwire.Proto("httpcache")

// getRequest / getResponse are the wire forms of a batched lookup.
type getRequest struct {
	Keys []string `json:"keys"`
}

type getEntry struct {
	Found bool                  `json:"found"`
	Dets  []batchwire.Detection `json:"dets,omitempty"`
}

type getResponse struct {
	Entries []getEntry `json:"entries"`
}

// putRequest / putResponse are the wire forms of a batched store.
type putRequest struct {
	Entries []putEntry `json:"entries"`
}

type putEntry struct {
	Key  string                `json:"key"`
	Dets []batchwire.Detection `json:"dets,omitempty"`
}

type putResponse struct {
	Stored int `json:"stored"`
}

// Config parameterizes a Client. Endpoint is required; everything else has
// a production-shaped default, the transport fields the same ones as
// backend/httpbatch's.
type Config struct {
	// Endpoint is the cache server's base URL (e.g. http://cache-1:9090);
	// the client POSTs to {Endpoint}/get and {Endpoint}/put.
	Endpoint string
	// HTTPClient overrides the transport (default: a fresh http.Client;
	// the per-attempt timeout always comes from Timeout).
	HTTPClient *http.Client
	// Timeout bounds each HTTP attempt (default 30s).
	Timeout time.Duration
	// Retries is how many times a failed attempt is retried on transport
	// errors and 5xx responses (default 2; 4xx never retries). Use -1 to
	// disable retries entirely.
	Retries int
	// RetryBackoff is the pause before each retry (default 100ms).
	RetryBackoff time.Duration
	// MaxConcurrent caps in-flight requests to the endpoint across every
	// query sharing this client (default 4).
	MaxConcurrent int
	// MaxBatch caps keys per wire request; larger batches are split into
	// sequential requests (default 256 — cache entries are far smaller
	// than detector batches, so the cap is correspondingly higher).
	MaxBatch int
}

// Stats is a snapshot of a client's traffic counters.
type Stats struct {
	// Gets/Puts count successful batched calls; Keys the keys they
	// covered (both directions).
	Gets, Puts, Keys int64
	// Requests counts HTTP attempts (retries included); Retries the
	// attempts beyond the first.
	Requests, Retries int64
}

// Client is a remote cache store: it implements cachestore.Store over the
// httpcache wire protocol and is safe for concurrent use by any number of
// queries. A failing remote never fails a query — the Tiered store above
// degrades its errors to misses — but the Client itself reports them
// honestly.
type Client struct {
	getURL, putURL string
	maxBatch       int
	wire           *batchwire.Client

	mu    sync.Mutex
	stats Stats // Requests and Retries live in wire
}

// Compile-time interface check.
var _ cachestore.Store = (*Client)(nil)

// New builds a client for the given cache server.
func New(cfg Config) (*Client, error) {
	if cfg.Endpoint == "" {
		return nil, fmt.Errorf("httpcache: Config.Endpoint is required")
	}
	if cfg.MaxBatch < 0 {
		return nil, fmt.Errorf("httpcache: negative MaxBatch")
	}
	wire, err := proto.NewClient(batchwire.Config{
		HTTPClient:    cfg.HTTPClient,
		Timeout:       cfg.Timeout,
		Retries:       cfg.Retries,
		RetryBackoff:  cfg.RetryBackoff,
		MaxConcurrent: cfg.MaxConcurrent,
	})
	if err != nil {
		return nil, err
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 256
	}
	base := strings.TrimSuffix(cfg.Endpoint, "/")
	return &Client{getURL: base + "/get", putURL: base + "/put", maxBatch: cfg.MaxBatch, wire: wire}, nil
}

// Stats returns a snapshot of the client's traffic counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	st := c.stats
	c.mu.Unlock()
	st.Requests, st.Retries = c.wire.Counters()
	return st
}

// GetBatch implements cachestore.Store. Batches beyond MaxBatch are split
// into sequential wire requests; the returned entries are aligned with keys.
func (c *Client) GetBatch(ctx context.Context, keys []cachestore.Key) ([]cachestore.Entry, error) {
	out := make([]cachestore.Entry, len(keys))
	for lo := 0; lo < len(keys); lo += c.maxBatch {
		hi := min(lo+c.maxBatch, len(keys))
		if err := c.getChunk(ctx, keys[lo:hi], out[lo:hi]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (c *Client) getChunk(ctx context.Context, keys []cachestore.Key, out []cachestore.Entry) error {
	req := getRequest{Keys: make([]string, len(keys))}
	for i, k := range keys {
		req.Keys[i] = k.Encode()
	}
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("httpcache: encode get request: %w", err)
	}
	var resp getResponse
	if err := c.wire.Post(ctx, c.getURL, body, &resp); err != nil {
		return err
	}
	if len(resp.Entries) != len(keys) {
		return fmt.Errorf("httpcache: server returned %d entries for a %d-key get", len(resp.Entries), len(keys))
	}
	for i, e := range resp.Entries {
		if e.Found {
			out[i] = cachestore.Entry{Found: true, Dets: batchwire.FromWire(e.Dets)}
		}
	}
	c.mu.Lock()
	c.stats.Gets++
	c.stats.Keys += int64(len(keys))
	c.mu.Unlock()
	return nil
}

// PutBatch implements cachestore.Store, splitting by MaxBatch like GetBatch.
// A length mismatch is refused before anything reaches the wire.
func (c *Client) PutBatch(ctx context.Context, keys []cachestore.Key, vals [][]backend.Detection) error {
	if len(vals) != len(keys) {
		return fmt.Errorf("httpcache: PutBatch got %d values for %d keys", len(vals), len(keys))
	}
	for lo := 0; lo < len(keys); lo += c.maxBatch {
		hi := min(lo+c.maxBatch, len(keys))
		if err := c.putChunk(ctx, keys[lo:hi], vals[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

func (c *Client) putChunk(ctx context.Context, keys []cachestore.Key, vals [][]backend.Detection) error {
	req := putRequest{Entries: make([]putEntry, len(keys))}
	for i, k := range keys {
		req.Entries[i] = putEntry{Key: k.Encode(), Dets: batchwire.ToWire(vals[i])}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("httpcache: encode put request: %w", err)
	}
	var resp putResponse
	if err := c.wire.Post(ctx, c.putURL, body, &resp); err != nil {
		return err
	}
	c.mu.Lock()
	c.stats.Puts++
	c.stats.Keys += int64(len(keys))
	c.mu.Unlock()
	return nil
}

// Server-side bounds on top of batchwire.MaxRequestBytes.
const (
	// maxKeysPerRequest bounds keys (or entries) per request — far above
	// any batch a well-behaved client sends (MaxBatch defaults to 256).
	maxKeysPerRequest = 4096
	// maxDetsPerEntry bounds detections in a single stored entry; a frame
	// with thousands of detections is a corrupt or hostile payload, not a
	// video frame.
	maxDetsPerEntry = 1024
)

// Handler serves a cachestore.Store over the httpcache wire protocol — the
// server half of the pairing. Routing is by path suffix: POST .../get and
// POST .../put. Requests are bounded (oversized bodies, oversized batches
// and absurdly large entries are rejected with 400) and every key must
// decode; a request carrying one undecodable key is rejected whole, so a
// version-skewed client cannot silently poison a shared store. Pair it with
// any mux: http.Handle("/cache/", httpcache.Handler(store)).
func Handler(store cachestore.Store) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The method check comes first: a GET to an unknown path is a 405.
		if !proto.PostOnly(w, r) {
			return
		}
		switch {
		case strings.HasSuffix(r.URL.Path, "/get"):
			handleGet(store, w, r)
		case strings.HasSuffix(r.URL.Path, "/put"):
			handlePut(store, w, r)
		default:
			http.Error(w, "httpcache: unknown endpoint (want .../get or .../put)", http.StatusNotFound)
		}
	})
}

func handleGet(store cachestore.Store, w http.ResponseWriter, r *http.Request) {
	var req getRequest
	if !proto.Decode(w, r, &req) {
		return
	}
	if len(req.Keys) == 0 {
		http.Error(w, "httpcache: keys are required", http.StatusBadRequest)
		return
	}
	if len(req.Keys) > maxKeysPerRequest {
		http.Error(w, fmt.Sprintf("httpcache: %d keys exceeds the per-request cap %d", len(req.Keys), maxKeysPerRequest), http.StatusBadRequest)
		return
	}
	keys := make([]cachestore.Key, len(req.Keys))
	for i, s := range req.Keys {
		k, err := cachestore.DecodeKey(s)
		if err != nil {
			http.Error(w, fmt.Sprintf("httpcache: %v", err), http.StatusBadRequest)
			return
		}
		keys[i] = k
	}
	entries, err := store.GetBatch(r.Context(), keys)
	if err != nil {
		http.Error(w, fmt.Sprintf("httpcache: store: %v", err), http.StatusInternalServerError)
		return
	}
	if len(entries) != len(keys) {
		http.Error(w, fmt.Sprintf("httpcache: store returned %d entries for %d keys", len(entries), len(keys)), http.StatusInternalServerError)
		return
	}
	resp := getResponse{Entries: make([]getEntry, len(entries))}
	for i, e := range entries {
		resp.Entries[i] = getEntry{Found: e.Found, Dets: batchwire.ToWire(e.Dets)}
	}
	proto.Respond(w, resp)
}

func handlePut(store cachestore.Store, w http.ResponseWriter, r *http.Request) {
	var req putRequest
	if !proto.Decode(w, r, &req) {
		return
	}
	if len(req.Entries) == 0 {
		http.Error(w, "httpcache: entries are required", http.StatusBadRequest)
		return
	}
	if len(req.Entries) > maxKeysPerRequest {
		http.Error(w, fmt.Sprintf("httpcache: %d entries exceeds the per-request cap %d", len(req.Entries), maxKeysPerRequest), http.StatusBadRequest)
		return
	}
	keys := make([]cachestore.Key, len(req.Entries))
	vals := make([][]backend.Detection, len(req.Entries))
	for i, e := range req.Entries {
		k, err := cachestore.DecodeKey(e.Key)
		if err != nil {
			http.Error(w, fmt.Sprintf("httpcache: %v", err), http.StatusBadRequest)
			return
		}
		if len(e.Dets) > maxDetsPerEntry {
			http.Error(w, fmt.Sprintf("httpcache: entry %q carries %d detections, cap is %d", e.Key, len(e.Dets), maxDetsPerEntry), http.StatusBadRequest)
			return
		}
		keys[i] = k
		vals[i] = batchwire.FromWire(e.Dets)
	}
	if err := store.PutBatch(r.Context(), keys, vals); err != nil {
		http.Error(w, fmt.Sprintf("httpcache: store: %v", err), http.StatusInternalServerError)
		return
	}
	proto.Respond(w, putResponse{Stored: len(keys)})
}
