// Package httpbatch is a production-shaped remote detector backend: a
// Client that speaks a small batch protocol to an HTTP endpoint, and a
// Handler that serves any backend.Backend over the same protocol (the
// loopback pairing used by tests, the package example and exserve's
// -backend http mode).
//
// # Wire protocol
//
// One POST per batch, in the binary frame of internal/batchwire
// (Content-Type application/x-exsample-frame); the Handler answers any other
// Content-Type 415.
//
// Request frame, byte by byte:
//
//	version  1 byte, batchwire.Version (1)
//	class    uvarint length, then that many bytes
//	n        uvarint frame count
//	frames   n zigzag varints
//
// Response frame (HTTP 200):
//
//	version  1 byte
//	n        uvarint, equal to the request's frame count
//	total    uvarint, detections across all n frames
//	n times, for frames[i] in order:
//	  cost   float64, little-endian IEEE-754 bits: the frame's charged seconds
//	  dets   a detection list relative to (class, frames[i])
//
// A detection list is a uvarint count m, then m detections of at least 43
// bytes each (see the batchwire package doc): a class tag (0: the requested
// class), the detection's frame minus frames[i] as a zigzag varint, the box
// as four float64s (x1, y1, x2, y2), the score as a float64 and the truth id
// as a zigzag varint. The m's sum to total; trailing bytes, a NaN or an
// infinity, and any count the bytes left cannot hold are errors.
//
// Results are aligned with the request's frames (the i-th list holds frame
// frames[i]'s detections; an empty list is a valid "nothing found"), and
// each frame carries its charged seconds, so the client charges exactly
// what the remote fleet spent, legitimate zeros included. The truth id is
// -1 when the server does not know ground-truth identity — the value real
// detectors report.
//
// Errors: a non-200 status fails the batch. Timeouts, bounded retries (5xx
// and transport errors only — a 4xx means the request itself is malformed),
// the doomed-deadline rule, per-endpoint admission and the size bounds on
// both sides are the discipline of internal/batchwire, the transport this
// protocol shares with cachestore/httpcache; its package doc states them
// once. A query cancellation aborts an in-flight batch immediately.
package httpbatch

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"
	"time"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/internal/batchwire"
)

// proto prefixes every error and rejection of this protocol, including the
// ones the shared transport produces.
const proto = batchwire.Proto("httpbatch")

// request is one decoded batch request.
type request struct {
	Class  string
	Frames []int64
}

// decodeFrame decodes a binary request frame into req, reusing its Frames.
func (req *request) decodeFrame(b []byte) error {
	r := batchwire.NewReader(b)
	req.Class = r.String(req.Class)
	n := r.Count(1) // a varint is at least one byte
	req.Frames = slices.Grow(req.Frames[:0], n)
	for range n {
		req.Frames = append(req.Frames, r.Varint())
	}
	return r.Done()
}

// validate is the one check of a decoded request.
func (req *request) validate(maxBatch int) error {
	if req.Class == "" || len(req.Frames) == 0 {
		return fmt.Errorf("httpbatch: class and frames are required")
	}
	if maxBatch > 0 && len(req.Frames) > maxBatch {
		return fmt.Errorf("httpbatch: batch of %d frames exceeds the backend's MaxBatch %d", len(req.Frames), maxBatch)
	}
	for _, f := range req.Frames {
		if f < 0 {
			return fmt.Errorf("httpbatch: negative frame %d", f)
		}
	}
	return nil
}

// appendRequest appends the binary request frame for one batch.
func appendRequest(b []byte, class string, frames []int64) []byte {
	b = batchwire.AppendString(append(b, batchwire.Version), class)
	b = binary.AppendUvarint(b, uint64(len(frames)))
	for _, f := range frames {
		b = binary.AppendVarint(b, f)
	}
	return b
}

// appendResponse appends the binary response frame for a batch the backend
// answered with dets and costs.
func appendResponse(b []byte, class string, frames []int64, dets [][]backend.Detection, costs []float64) ([]byte, error) {
	total := 0
	for _, d := range dets {
		total += len(d)
	}
	b = binary.AppendUvarint(append(b, batchwire.Version), uint64(len(frames)))
	b = binary.AppendUvarint(b, uint64(total))
	for i, f := range frames {
		var err error
		if b, err = batchwire.AppendFloat(b, costs[i]); err != nil {
			return b, fmt.Errorf("frame %d cost: %w", f, err)
		}
		if b, err = batchwire.AppendDetections(b, dets[i], class, f); err != nil {
			return b, fmt.Errorf("frame %d: %w", f, err)
		}
	}
	return b, nil
}

// decodeResponse decodes a binary response frame to a class/frames request:
// one results slice, one detection slab carved into cap-clipped per-frame
// windows, and the per-frame costs.
func decodeResponse(b []byte, class string, frames []int64) ([][]backend.Detection, []float64, error) {
	r := batchwire.NewReader(b)
	n := r.Count(8 + 1) // a cost and a detection count per frame
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if n != len(frames) {
		return nil, nil, fmt.Errorf("server returned %d results for a %d-frame batch", n, len(frames))
	}
	r.Slab()
	dets := make([][]backend.Detection, n)
	costs := make([]float64, n)
	for i, f := range frames {
		costs[i] = r.Float()
		dets[i] = r.Detections(class, f)
	}
	if err := r.Done(); err != nil {
		return nil, nil, err
	}
	return dets, costs, nil
}

// Config parameterizes a Client. Endpoint is required; everything else has
// a production-shaped default.
type Config struct {
	// Endpoint is the batch URL (e.g. http://gpu-7:8080/detect).
	Endpoint string
	// HTTPClient overrides the transport (default: a fresh http.Client;
	// the per-attempt timeout always comes from Timeout).
	HTTPClient *http.Client
	// Timeout bounds each HTTP attempt (default 30s).
	Timeout time.Duration
	// Retries is how many times a failed attempt is retried on transport
	// errors and 5xx responses (default 2; 4xx never retries). Use -1 to
	// disable retries entirely — e.g. for a non-idempotent endpoint that
	// must never see the same batch twice.
	Retries int
	// RetryBackoff is the pause before each retry (default 100ms). Kept
	// short and fixed: the bounded worker pool above us is the real
	// pacing mechanism.
	RetryBackoff time.Duration
	// MaxConcurrent caps in-flight requests to the endpoint across every
	// query sharing this client (default 4) — the per-endpoint admission
	// control a shared GPU service needs.
	MaxConcurrent int
	// MaxBatch is the batch-size hint advertised to the pipeline: larger
	// batches are split before they reach the wire (default 32).
	MaxBatch int
	// CostSeconds is the nominal per-frame cost advertised to the pipeline
	// in Hints (default 1/20 s, the paper's measured 20 fps detector); what
	// a batch is charged is what the server reports per frame.
	CostSeconds float64
}

// Stats is a snapshot of a client's traffic counters.
type Stats struct {
	// Batches counts successful DetectBatch calls; Frames the frames they
	// covered. Frames/Batches is the realized wire batch size.
	Batches, Frames int64
	// Requests counts HTTP attempts (retries included); Retries the
	// attempts beyond the first.
	Requests, Retries int64
	// ServerSeconds sums the server-reported per-frame costs across
	// successful batches — the charged inference time.
	ServerSeconds float64
}

// reqPool recycles the Handler's decoded request structs; decodeFrame
// reuses the Frames slice's capacity, so a warm handler stops allocating a
// frames array per request.
var reqPool = sync.Pool{New: func() any { return new(request) }}

// Client is a remote HTTP batch detector backend. It implements both
// backend.Backend and backend.BatchCoster, so the pipeline charges the
// server-reported latency of every batch. Client is safe for concurrent
// use by any number of queries.
type Client struct {
	cfg  Config
	wire *batchwire.Client

	mu    sync.Mutex
	stats Stats // Requests and Retries live in wire
}

// Compile-time interface checks.
var (
	_ backend.Backend     = (*Client)(nil)
	_ backend.BatchCoster = (*Client)(nil)
)

// New builds a client for the given endpoint.
func New(cfg Config) (*Client, error) {
	if cfg.Endpoint == "" {
		return nil, fmt.Errorf("httpbatch: Config.Endpoint is required")
	}
	if cfg.MaxBatch < 0 || !(cfg.CostSeconds >= 0) || math.IsInf(cfg.CostSeconds, 1) {
		return nil, fmt.Errorf("httpbatch: negative MaxBatch or CostSeconds")
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
		cfg.MaxBatch = 32
	}
	if cfg.CostSeconds == 0 {
		cfg.CostSeconds = 1.0 / 20.0
	}
	return &Client{cfg: cfg, wire: wire}, nil
}

// Hints implements backend.Backend.
func (c *Client) Hints() backend.Hints {
	return backend.Hints{CostSeconds: c.cfg.CostSeconds, MaxBatch: c.cfg.MaxBatch}
}

// Stats returns a snapshot of the client's traffic counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	st := c.stats
	c.mu.Unlock()
	st.Requests, st.Retries = c.wire.Counters()
	return st
}

// DetectBatch implements backend.Backend.
func (c *Client) DetectBatch(ctx context.Context, class string, frames []int64) ([][]backend.Detection, error) {
	dets, _, err := c.DetectBatchCost(ctx, class, frames)
	return dets, err
}

// DetectBatchCost implements backend.BatchCoster: it runs the batch and
// reports the server-charged inference seconds per frame, which the
// pipeline charges in place of the nominal per-frame cost.
func (c *Client) DetectBatchCost(ctx context.Context, class string, frames []int64) ([][]backend.Detection, []float64, error) {
	if len(frames) == 0 {
		return nil, nil, nil
	}
	// A fresh body per call: see batchwire.Client.Post.
	body := appendRequest(make([]byte, 0, 1+binary.MaxVarintLen64*(2+len(frames))+len(class)), class, frames)
	var (
		out   [][]backend.Detection
		costs []float64
	)
	err := c.wire.Post(ctx, c.cfg.Endpoint, body, func(b []byte) (err error) {
		out, costs, err = decodeResponse(b, class, frames)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	var total float64
	for _, cost := range costs {
		total += cost
	}
	c.mu.Lock()
	c.stats.Batches++
	c.stats.Frames += int64(len(frames))
	c.stats.ServerSeconds += total
	c.mu.Unlock()
	return out, costs, nil
}

// Handler serves a backend.Backend over the httpbatch wire protocol — the
// server half of the pairing. It speaks only the binary frame: a request
// whose Content-Type is not batchwire.MediaType is answered 415. Detection
// cost in the response comes from the backend's own accounting, reported per
// frame (so clients charge exact values, no divide-by-batch-size loss): the
// measured per-frame costs when the backend implements backend.BatchCoster,
// its nominal Hints().CostSeconds per frame otherwise. Requests are
// bounded: oversized bodies and negative frames are rejected, and when the
// backend hints a MaxBatch, batches beyond it are refused with a 400 rather
// than run unsplit. Pair it with any mux:
// http.Handle("/detect", httpbatch.Handler(b)).
func Handler(b backend.Backend) http.Handler {
	coster, _ := b.(backend.BatchCoster)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !proto.PostOnly(w, r) {
			return
		}
		req := reqPool.Get().(*request)
		defer reqPool.Put(req)
		req.Class, req.Frames = "", req.Frames[:0]
		if !proto.Decode(w, r, req.decodeFrame) {
			return
		}
		if err := req.validate(b.Hints().MaxBatch); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var (
			dets  [][]backend.Detection
			costs []float64
			err   error
		)
		if coster != nil {
			dets, costs, err = coster.DetectBatchCost(r.Context(), req.Class, req.Frames)
		} else {
			dets, err = b.DetectBatch(r.Context(), req.Class, req.Frames)
			costs = make([]float64, len(req.Frames))
			per := b.Hints().CostSeconds
			for i := range costs {
				costs[i] = per
			}
		}
		if err == nil && (len(dets) != len(req.Frames) || len(costs) != len(req.Frames)) {
			err = fmt.Errorf("%d results and %d costs for %d frames", len(dets), len(costs), len(req.Frames))
		}
		if err != nil {
			http.Error(w, fmt.Sprintf("httpbatch: backend: %v", err), http.StatusInternalServerError)
			return
		}
		proto.Respond(w, func(buf []byte) ([]byte, error) {
			return appendResponse(buf, req.Class, req.Frames, dets, costs)
		})
	})
}
