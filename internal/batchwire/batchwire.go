// Package batchwire is the one wire under the module's two batched
// protocols: backend/httpbatch (frames in, detections out) and
// cachestore/httpcache (keys in, entries out; entries in, count out). Those
// packages own their request/response shapes, their own validation and their
// Stats; everything the protocols share is decided here, once.
//
// # Codec
//
// Both protocols speak one codec, the binary frame below, under
// Content-Type MediaType ("application/x-exsample-frame"): the Go clients
// send it, and the handlers answer any other Content-Type 415 before
// reading the body. The frame is documented byte by byte so a client or a
// server in any language can speak it.
//
// # Frame
//
// A frame is one HTTP body: the version byte (Version, 1), then the
// protocol's message, with nothing after it. The message is built from
//
//	uvarint   unsigned LEB128, as encoding/binary.AppendUvarint
//	varint    zigzag-encoded signed LEB128, as encoding/binary.AppendVarint
//	uint64    8 bytes, little-endian
//	float64   8 bytes, little-endian IEEE-754 bits; NaN and ±Inf refused
//	string    uvarint byte length, then the bytes
//
// and, shared by both protocols, the detection list of one entry (a frame's
// results, a cache key's value), relative to the entry's class and frame:
//
//	m         uvarint detection count
//	m times:
//	  class   uvarint tag: 0 = the entry's class; k+1 = a k-byte label follows
//	  frame   varint: the detection's frame minus the entry's frame
//	  box     4 float64: x1, y1, x2, y2
//	  score   float64
//	  truth   varint truth id (-1 when unknown)
//
// A detection is at least MinDetectionBytes (43) long. A message that
// carries detection lists declares their total first, as a uvarint, and
// the lists must add up to it; the decoder allocates one slab of that many
// detections per message and hands each entry a cap-clipped window of it.
// Every count is checked against the bytes left before anything is
// allocated, so decoding never allocates more than the body's length
// bounds. The protocol packages' docs give their message layouts.
//
// # Client discipline
//
// A Client sends one POST per batch and answers with the decoded 200 body or
// an error prefixed with its protocol's name:
//
//   - Admission. At most Config.MaxConcurrent requests are in flight per
//     Client, across every query sharing it. A caller waits for a slot, but
//     never past its context's cancellation.
//   - Timeout. Every attempt runs under Config.Timeout, derived from the
//     caller's context: cancelling the query aborts the attempt at once, and
//     context values still reach the http.RoundTripper.
//   - Retries. Transport errors, a connection reset mid-body and 5xx answers
//     are retried up to Config.Retries times, Config.RetryBackoff apart. A
//     4xx answer, a 200 whose body arrived whole but does not parse, and a
//     200 body beyond MaxResponseBytes are terminal: the exchange itself is
//     wrong, repeating it cannot help.
//   - Doomed deadline. When the caller's deadline cannot outlive the backoff
//     the retry would be a guaranteed deadline failure, so the call ends
//     there: errors.Is(err, context.DeadlineExceeded) holds and the message
//     keeps the endpoint's last answer.
//   - Cancellation mid-backoff is terminal at once; no final attempt.
//   - Counters. Only attempts actually issued count as requests, and only
//     those beyond a call's first as retries — a call that ends while
//     backing off records no phantom retry.
//   - Buffers. Response reads go through pooled buffers; request bodies are
//     never pooled (see Client.Post).
//
// # Handler discipline
//
// A protocol's http.Handler is assembled from Proto.PostOnly (405 otherwise),
// Proto.Decode (415 unless the Content-Type is MediaType, then the body
// bounded by MaxRequestBytes, decode-or-400, trailing bytes refused) and
// Proto.Respond (encode into a pooled buffer, then one write; an encode
// failure is a 500, never a half-written body). Between decode and encode a
// handler runs one validation and one backend or store call.
//
// # Detections
//
// AppendDetections and Reader.Detections are the only code that maps a
// detection list between backend.Detection, the one in-memory form, and the
// frame. PinFrame is the one place a result's Frame is forced to the frame
// it was requested or stored for.
package batchwire

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Proto names a protocol ("httpbatch", "httpcache"). It prefixes every error
// and every rejection the shared transport produces on the protocol's behalf.
type Proto string

// Config is the transport half of a protocol client's configuration: the
// fields httpbatch.Config and httpcache.Config have in common, with the same
// meaning and zero-value defaults in both.
type Config struct {
	// HTTPClient overrides the transport (default: a fresh http.Client; the
	// per-attempt timeout always comes from Timeout).
	HTTPClient *http.Client
	// Timeout bounds each HTTP attempt (default 30s).
	Timeout time.Duration
	// Retries is how many times a failed attempt is retried (default 2;
	// -1 disables retries).
	Retries int
	// RetryBackoff is the pause before each retry (default 100ms). Short and
	// fixed: the bounded worker pool above the client is the real pacing
	// mechanism.
	RetryBackoff time.Duration
	// MaxConcurrent caps in-flight requests (default 4).
	MaxConcurrent int
}

// MaxResponseBytes bounds the 200 body a Client reads. It must fit any
// frame a conforming server produces for the largest batch a client sends.
// The larger protocol is an httpcache lookup: a detection takes 43 bytes in
// the frame when its class is the key's (MinDetectionBytes), so httpcache's
// default 256-key batch with every entry at the server's 1024-detection cap
// is 11 MiB (256 × 1024 × 43 B), and so is the server's 4096-key request cap
// at 64 detections per frame; 64 MiB leaves room for detections that carry
// their own class label. An httpbatch response (32 frames by default, plus
// one float per frame) is orders of magnitude below either.
const MaxResponseBytes = 64 << 20

// Client is the shared batched-POST client. It is safe for concurrent use.
type Client struct {
	proto Proto
	cfg   Config
	sem   chan struct{}

	// The clock and the response bound are seams for the package's own
	// tests; nothing configures them.
	now         func() time.Time
	after       func(time.Duration) <-chan time.Time
	maxResponse int64

	mu                sync.Mutex
	requests, retries int64
}

// NewClient validates cfg, fills its defaults and builds the protocol's
// client.
func (p Proto) NewClient(cfg Config) (*Client, error) {
	if cfg.Retries < -1 || cfg.MaxConcurrent < 0 || cfg.Timeout < 0 || cfg.RetryBackoff < 0 {
		return nil, fmt.Errorf("%s: negative MaxConcurrent, Timeout or RetryBackoff, or Retries below -1", p)
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 30 * time.Second
	}
	switch {
	case cfg.Retries == 0:
		cfg.Retries = 2
	case cfg.Retries < 0:
		cfg.Retries = 0
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	if cfg.MaxConcurrent == 0 {
		cfg.MaxConcurrent = 4
	}
	return &Client{
		proto:       p,
		cfg:         cfg,
		sem:         make(chan struct{}, cfg.MaxConcurrent),
		now:         time.Now,
		after:       time.After,
		maxResponse: MaxResponseBytes,
	}, nil
}

// Counters reports the HTTP attempts issued so far (retries included) and
// how many of them were retries.
func (c *Client) Counters() (requests, retries int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.requests, c.retries
}

// Post runs one exchange under the client discipline (see the package doc):
// it POSTs the frame body to url and hands the 200 answer to decode. decode
// reads a pooled buffer that is recycled once it returns, so it must copy
// whatever it keeps; its error is a terminal protocol error. The traffic is
// counted whether or not the call succeeds.
//
// body must be a fresh allocation the caller does not reuse: net/http's
// transport may keep reading (or closing) the body reader from its own
// goroutine after Do returns — on failed attempts, and in edge cases (early
// server response) even on successful ones — so nothing here can prove the
// backing array is free again. Request bodies are tiny (a few bytes per
// frame, ~20 per key); the recycled buffers are the response reads and the
// handlers' encodes, whose lifetimes are synchronous.
func (c *Client) Post(ctx context.Context, url string, body []byte, decode func([]byte) error) error {
	select {
	case c.sem <- struct{}{}:
		defer func() { <-c.sem }()
	case <-ctx.Done():
		return ctx.Err()
	}
	attempts, err := c.retry(ctx, url, body, decode)
	c.mu.Lock()
	c.requests += attempts
	c.retries += attempts - 1
	c.mu.Unlock()
	return err
}

// retry is the attempt loop. It reports how many attempts it issued.
func (c *Client) retry(ctx context.Context, url string, body []byte, decode func([]byte) error) (int64, error) {
	for attempts := int64(1); ; attempts++ {
		retryable, err := c.attempt(ctx, url, body, decode)
		if err == nil || !retryable || attempts > int64(c.cfg.Retries) || ctx.Err() != nil {
			return attempts, err
		}
		// A deadline that cannot outlive the backoff makes the retry a
		// guaranteed deadline failure: end here instead of sleeping toward
		// a doomed attempt. errors.Is matches context.DeadlineExceeded, and
		// the log still shows what the endpoint actually returned.
		if deadline, ok := ctx.Deadline(); ok && deadline.Sub(c.now()) <= c.cfg.RetryBackoff {
			return attempts, fmt.Errorf("%w before the retry backoff (last attempt: %v)", context.DeadlineExceeded, err)
		}
		select {
		case <-c.after(c.cfg.RetryBackoff):
		case <-ctx.Done():
			return attempts, ctx.Err()
		}
	}
}

// scratch is the pooled state of one synchronous read or encode: the buffer,
// and the limiter a bounded read goes through (pooled with it so bounding a
// response costs no allocation). Shared by every client and handler in the
// process: the buffers are opaque, and a process typically runs many
// endpoint clients with identical traffic shapes.
type scratch struct {
	buf   bytes.Buffer
	limit io.LimitedReader
	frame []byte // a handler's response
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// attempt issues one HTTP request. retryable reports whether a failure is
// worth retrying.
func (c *Client) attempt(ctx context.Context, url string, body []byte, decode func([]byte) error) (retryable bool, err error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return false, fmt.Errorf("%s: build request: %w", c.proto, err)
	}
	req.Header.Set("Content-Type", MediaType)
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		// Attribute the failure to the caller's cancellation when that is
		// what aborted the attempt — the engine surfaces this through
		// QueryHandle.Wait as a context error.
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		return true, fmt.Errorf("%s: %w", c.proto, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort: the status alone is an answer
		return resp.StatusCode >= 500, fmt.Errorf("%s: endpoint returned %s: %s", c.proto, resp.Status, bytes.TrimSpace(msg))
	}
	// Read the body whole before decoding, so a connection reset mid-body
	// (after a 200 status) stays a retryable transport failure and only a
	// complete body that does not parse is a protocol error. The read is
	// bounded — a declared length over the limit is refused unread, an
	// undeclared one after limit+1 bytes — and pooled: decode copies what the
	// result keeps.
	if resp.ContentLength > c.maxResponse {
		return false, c.tooLarge()
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.buf.Reset()
	s.limit = io.LimitedReader{R: resp.Body, N: c.maxResponse + 1}
	_, err = s.buf.ReadFrom(&s.limit)
	s.limit.R = nil
	if err != nil {
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		return true, fmt.Errorf("%s: read response: %w", c.proto, err)
	}
	if int64(s.buf.Len()) > c.maxResponse {
		return false, c.tooLarge()
	}
	if err := decode(s.buf.Bytes()); err != nil {
		return false, fmt.Errorf("%s: decode response: %w", c.proto, err)
	}
	return false, nil
}

func (c *Client) tooLarge() error {
	return fmt.Errorf("%s: response exceeds the %d-byte limit", c.proto, c.maxResponse)
}

// MaxRequestBytes bounds a request body a handler is willing to decode: far
// above any sane batch (a frame number is 1–5 bytes, a key ~20), far below
// anything that could pressure server memory.
const MaxRequestBytes = 8 << 20

// PostOnly reports whether r is a POST; any other method is answered 405.
func (p Proto) PostOnly(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		http.Error(w, string(p)+": POST only", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

// Decode answers 415 unless r's Content-Type is MediaType (parameters
// allowed), without reading the body. Otherwise it reads the body, bounded
// by MaxRequestBytes, and hands it whole to frame, which reads a pooled
// buffer and must copy what it keeps. A body that is oversized or does not
// parse is answered 400. Decode reports whether the handler may go on.
func (p Proto) Decode(w http.ResponseWriter, r *http.Request, frame func([]byte) error) bool {
	if !isFrame(r) {
		http.Error(w, fmt.Sprintf("%s: unsupported Content-Type %q (want %s)", p, r.Header.Get("Content-Type"), MediaType), http.StatusUnsupportedMediaType)
		return false
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.buf.Reset()
	_, err := s.buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err == nil {
		err = frame(s.buf.Bytes())
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("%s: bad request: %v", p, err), http.StatusBadRequest)
		return false
	}
	return true
}

// Respond answers 200 with the binary frame, version byte included, that
// encode appends to an empty pooled buffer. The response hits the wire in
// one write, and an encode failure surfaces as a 500 instead of a
// half-written body.
func (p Proto) Respond(w http.ResponseWriter, encode func([]byte) ([]byte, error)) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	b, err := encode(s.frame[:0])
	s.frame = b[:0]
	if err != nil {
		http.Error(w, fmt.Sprintf("%s: encode response: %v", p, err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", MediaType)
	w.Write(b) // a failed write means the peer is gone; nobody is left to tell
}
