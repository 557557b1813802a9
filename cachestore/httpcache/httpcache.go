// Package httpcache is the remote half of the shared result tier: a Client
// that speaks a small batch protocol to a cache server, and a Handler that
// serves any cachestore.Store over the same protocol (the loopback pairing
// used by tests, the package example and exserve's -cache-remote mode).
//
// # Wire protocol
//
// One POST per batch, routed by path suffix, in the binary frame of
// internal/batchwire (Content-Type application/x-exsample-frame); the
// Handler answers any other Content-Type 415.
//
// Every message starts with the version byte (batchwire.Version, 1), and a
// key is
//
//	content  8 bytes, little-endian
//	frame    zigzag varint
//	class    uvarint length, then that many bytes
//
// GET — POST {endpoint}/get. Request: version, a uvarint key count n, then
// n keys. Response (HTTP 200):
//
//	version  1 byte
//	n        uvarint, equal to the request's key count
//	total    uvarint, detections across all n entries
//	n times, for keys[i] in order:
//	  found  1 byte, 0 or 1
//	  dets   a detection list relative to (keys[i].class, keys[i].frame);
//	         empty when found is 0
//
// PUT — POST {endpoint}/put. Request: version, a uvarint entry count n, a
// uvarint total detection count, then n times a key followed by its
// detection list. Response (HTTP 200): version, then the uvarint count of
// entries stored, which must equal n.
//
// A detection list is a uvarint count m, then m detections of at least 43
// bytes each (see the batchwire package doc): a class tag (0: the key's
// class), the detection's frame minus the key's as a zigzag varint, the box
// as four float64s (x1, y1, x2, y2) and the score as a float64, each as
// little-endian IEEE-754 bits, and the truth id as a zigzag varint. The m's
// sum to total; trailing bytes, a NaN or an infinity, and any count the
// bytes left cannot hold are errors.
//
// A found entry with an empty list is a valid memoized "nothing in this
// frame".
//
// Errors: a non-200 status fails the batch. Timeouts, bounded retries (5xx
// and transport errors only — a 4xx means the request itself is malformed),
// the doomed-deadline rule, per-endpoint admission and the size bounds on
// both sides are the discipline of internal/batchwire, the transport this
// protocol shares with backend/httpbatch; its package doc states them once.
package httpcache

import (
	"context"
	"encoding/binary"
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

// minKeyBytes is the smallest binary key: the content, a one-byte frame and
// an empty class.
const minKeyBytes = 8 + 1 + 1

// appendKey appends k's binary form.
func appendKey(b []byte, k cachestore.Key) []byte {
	b = binary.LittleEndian.AppendUint64(b, k.Content)
	return batchwire.AppendString(binary.AppendVarint(b, k.Frame), k.Class)
}

// readKey reads a binary key, reusing class when the key's is the same.
func readKey(r *batchwire.Reader, class string) cachestore.Key {
	var k cachestore.Key
	k.Content = r.Uint64()
	k.Frame = r.Varint()
	k.Class = r.String(class)
	return k
}

// keysCap bounds the binary size of keys, entry overhead excluded.
func keysCap(keys []cachestore.Key) int {
	n := 1 + 2*binary.MaxVarintLen64
	for _, k := range keys {
		n += 8 + 2*binary.MaxVarintLen64 + len(k.Class)
	}
	return n
}

// appendGetRequest appends the binary lookup request for keys.
func appendGetRequest(b []byte, keys []cachestore.Key) []byte {
	b = binary.AppendUvarint(append(b, batchwire.Version), uint64(len(keys)))
	for _, k := range keys {
		b = appendKey(b, k)
	}
	return b
}

// decodeGetRequest decodes a binary lookup request.
func decodeGetRequest(b []byte) ([]cachestore.Key, error) {
	r := batchwire.NewReader(b)
	keys := make([]cachestore.Key, r.Count(minKeyBytes))
	class := ""
	for i := range keys {
		keys[i] = readKey(&r, class)
		class = keys[i].Class
	}
	return keys, r.Done()
}

// appendEntries appends the binary lookup response for entries aligned with
// keys. An absent entry carries no detections.
func appendEntries(b []byte, keys []cachestore.Key, entries []cachestore.Entry) ([]byte, error) {
	total := 0
	for _, e := range entries {
		if e.Found {
			total += len(e.Dets)
		}
	}
	b = binary.AppendUvarint(append(b, batchwire.Version), uint64(len(entries)))
	b = binary.AppendUvarint(b, uint64(total))
	for i, e := range entries {
		var dets []backend.Detection
		b = append(b, 0)
		if e.Found {
			b[len(b)-1], dets = 1, e.Dets
		}
		var err error
		if b, err = batchwire.AppendDetections(b, dets, keys[i].Class, keys[i].Frame); err != nil {
			return b, fmt.Errorf("key %+v: %w", keys[i], err)
		}
	}
	return b, nil
}

// decodeEntries decodes a binary lookup response into out, aligned with
// keys: one detection slab carved into cap-clipped per-entry windows, each
// detection's class the key's own string unless the frame says otherwise.
func decodeEntries(b []byte, keys []cachestore.Key, out []cachestore.Entry) error {
	r := batchwire.NewReader(b)
	n := r.Count(1 + 1) // a found byte and a detection count per entry
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(keys) {
		return fmt.Errorf("server returned %d entries for a %d-key get", n, len(keys))
	}
	r.Slab()
	for i, k := range keys {
		found := r.Byte()
		dets := r.Detections(k.Class, k.Frame)
		if found > 1 || (found == 0 && dets != nil) {
			return fmt.Errorf("entry %d: found byte %d with %d detections", i, found, len(dets))
		}
		out[i] = cachestore.Entry{Found: found == 1, Dets: dets}
	}
	return r.Done()
}

// appendPutRequest appends the binary store request for keys and vals.
func appendPutRequest(b []byte, keys []cachestore.Key, vals [][]backend.Detection) ([]byte, error) {
	total := 0
	for _, v := range vals {
		total += len(v)
	}
	b = binary.AppendUvarint(append(b, batchwire.Version), uint64(len(keys)))
	b = binary.AppendUvarint(b, uint64(total))
	for i, k := range keys {
		var err error
		if b, err = batchwire.AppendDetections(appendKey(b, k), vals[i], k.Class, k.Frame); err != nil {
			return b, fmt.Errorf("key %+v: %w", k, err)
		}
	}
	return b, nil
}

// decodePutRequest decodes a binary store request: the keys, and their
// values carved from one detection slab.
func decodePutRequest(b []byte) ([]cachestore.Key, [][]backend.Detection, error) {
	r := batchwire.NewReader(b)
	n := r.Count(minKeyBytes + 1) // a key and a detection count per entry
	r.Slab()
	keys := make([]cachestore.Key, n)
	vals := make([][]backend.Detection, n)
	class := ""
	for i := range keys {
		keys[i] = readKey(&r, class)
		class = keys[i].Class
		vals[i] = r.Detections(class, keys[i].Frame)
	}
	return keys, vals, r.Done()
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
}

// maxBatch caps keys per wire request; larger batches are split into
// sequential requests. Cache entries are far smaller than detector
// batches, so the cap is correspondingly higher.
const maxBatch = 256

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
// queries. A failing remote never fails a query — a Tiered over it
// degrades its errors to misses — but the Client itself reports them
// honestly.
type Client struct {
	getURL, putURL string
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
	base := strings.TrimSuffix(cfg.Endpoint, "/")
	return &Client{getURL: base + "/get", putURL: base + "/put", wire: wire}, nil
}

// Stats returns a snapshot of the client's traffic counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	st := c.stats
	c.mu.Unlock()
	st.Requests, st.Retries = c.wire.Counters()
	return st
}

// GetBatch implements cachestore.Store. Batches beyond maxBatch keys are split
// into sequential wire requests; the returned entries are aligned with keys.
func (c *Client) GetBatch(ctx context.Context, keys []cachestore.Key) ([]cachestore.Entry, error) {
	out := make([]cachestore.Entry, len(keys))
	for lo := 0; lo < len(keys); lo += maxBatch {
		hi := min(lo+maxBatch, len(keys))
		if err := c.getChunk(ctx, keys[lo:hi], out[lo:hi]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (c *Client) getChunk(ctx context.Context, keys []cachestore.Key, out []cachestore.Entry) error {
	// A fresh body per call: see batchwire.Client.Post.
	body := appendGetRequest(make([]byte, 0, keysCap(keys)), keys)
	if err := c.wire.Post(ctx, c.getURL, body, func(b []byte) error { return decodeEntries(b, keys, out) }); err != nil {
		return err
	}
	c.mu.Lock()
	c.stats.Gets++
	c.stats.Keys += int64(len(keys))
	c.mu.Unlock()
	return nil
}

// PutBatch implements cachestore.Store, splitting by maxBatch like GetBatch.
// A length mismatch is refused before anything reaches the wire.
func (c *Client) PutBatch(ctx context.Context, keys []cachestore.Key, vals [][]backend.Detection) error {
	if len(vals) != len(keys) {
		return fmt.Errorf("httpcache: PutBatch got %d values for %d keys", len(vals), len(keys))
	}
	for lo := 0; lo < len(keys); lo += maxBatch {
		hi := min(lo+maxBatch, len(keys))
		if err := c.putChunk(ctx, keys[lo:hi], vals[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// putChunk stores one request's worth of entries. An acknowledgement of
// fewer (or more) entries than were sent is an error: the server did not
// store what the caller believes it did.
func (c *Client) putChunk(ctx context.Context, keys []cachestore.Key, vals [][]backend.Detection) error {
	size := keysCap(keys)
	for _, v := range vals {
		size += len(v) * (batchwire.MinDetectionBytes + 4)
	}
	// A fresh body per call: see batchwire.Client.Post.
	body, err := appendPutRequest(make([]byte, 0, size), keys, vals)
	if err != nil {
		return fmt.Errorf("httpcache: encode put request: %w", err)
	}
	var stored uint64
	err = c.wire.Post(ctx, c.putURL, body, func(b []byte) error {
		r := batchwire.NewReader(b)
		stored = r.Uvarint()
		return r.Done()
	})
	if err != nil {
		return err
	}
	if stored != uint64(len(keys)) {
		return fmt.Errorf("httpcache: server acknowledged %d of %d entries", stored, len(keys))
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
	// any batch a well-behaved client sends (maxBatch, 256).
	maxKeysPerRequest = 4096
	// maxDetsPerEntry bounds detections in a single stored entry; a frame
	// with thousands of detections is a corrupt or hostile payload, not a
	// video frame.
	maxDetsPerEntry = 1024
)

// Handler serves a cachestore.Store over the httpcache wire protocol — the
// server half of the pairing. Routing is by path suffix: POST .../get and
// POST .../put. It speaks only the binary frame: a request whose
// Content-Type is not batchwire.MediaType is answered 415. Requests are
// bounded (oversized bodies, oversized batches and absurdly large entries
// are rejected with 400) and every key must decode; a request carrying one
// undecodable key, or a frame of another version, is rejected whole, so a
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

// validate is the one check of a decoded request: keys
// present and within the per-request cap, no negative frame, and for a store
// (vals non-nil) no entry over the detection cap. what names the keys in
// the answer ("keys", "entries").
func validate(what string, keys []cachestore.Key, vals [][]backend.Detection) error {
	if len(keys) == 0 {
		return fmt.Errorf("httpcache: %s are required", what)
	}
	if len(keys) > maxKeysPerRequest {
		return fmt.Errorf("httpcache: %d %s exceeds the per-request cap %d", len(keys), what, maxKeysPerRequest)
	}
	for i, k := range keys {
		if k.Frame < 0 {
			return fmt.Errorf("httpcache: key content %016x frame %d class %q: negative frame", k.Content, k.Frame, k.Class)
		}
		if vals != nil && len(vals[i]) > maxDetsPerEntry {
			return fmt.Errorf("httpcache: entry content %016x frame %d class %q carries %d detections, cap is %d", k.Content, k.Frame, k.Class, len(vals[i]), maxDetsPerEntry)
		}
	}
	return nil
}

func handleGet(store cachestore.Store, w http.ResponseWriter, r *http.Request) {
	var keys []cachestore.Key
	if !proto.Decode(w, r, func(b []byte) (err error) {
		keys, err = decodeGetRequest(b)
		return err
	}) {
		return
	}
	if err := validate("keys", keys, nil); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
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
	proto.Respond(w, func(b []byte) ([]byte, error) { return appendEntries(b, keys, entries) })
}

func handlePut(store cachestore.Store, w http.ResponseWriter, r *http.Request) {
	var (
		keys []cachestore.Key
		vals [][]backend.Detection
	)
	if !proto.Decode(w, r, func(b []byte) (err error) {
		keys, vals, err = decodePutRequest(b)
		return err
	}) {
		return
	}
	if err := validate("entries", keys, vals); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := store.PutBatch(r.Context(), keys, vals); err != nil {
		http.Error(w, fmt.Sprintf("httpcache: store: %v", err), http.StatusInternalServerError)
		return
	}
	proto.Respond(w, func(b []byte) ([]byte, error) {
		return binary.AppendUvarint(append(b, batchwire.Version), uint64(len(keys))), nil
	})
}
