// Package httpbatch is a production-shaped remote detector backend: a
// Client that speaks a small JSON batch protocol to an HTTP endpoint, and a
// Handler that serves any backend.Backend over the same protocol (the
// loopback pairing used by tests, examples and exserve's -backend http
// mode).
//
// # Wire protocol
//
// One POST per batch. Request body:
//
//	{"class": "car", "frames": [17, 42, 1999]}
//
// Response body (HTTP 200):
//
//	{
//	  "results": [
//	    [{"frame": 17, "class": "car", "box": [x1, y1, x2, y2],
//	      "score": 0.93, "truth_id": 7}],
//	    [],
//	    [{"frame": 1999, "class": "car", "box": [x1, y1, x2, y2],
//	      "score": 0.88, "truth_id": -1}]
//	  ],
//	  "cost_seconds": 0.15
//	}
//
// results is aligned with the request's frames (results[i] holds frame
// frames[i]'s detections; an empty array is a valid "nothing found").
// The response may also carry per-frame charged costs:
//
//	"frame_costs": [0.05, 0.05, 0.05]
//
// When frame_costs is present (aligned with frames), the client charges
// those exact seconds per frame — including legitimate zeros. Otherwise
// cost_seconds, the server-reported inference latency for the whole batch,
// is spread evenly across the batch's frames; and when neither is
// reported the client falls back to its nominal Config.CostSeconds. Either
// way charged query time tracks what the remote fleet actually spent.
// truth_id is -1 when the server does not know ground-truth identity —
// the value real detectors report.
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
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/internal/batchwire"
)

// proto prefixes every error and rejection of this protocol, including the
// ones the shared transport produces.
const proto = batchwire.Proto("httpbatch")

// request is the wire form of one batch request.
type request struct {
	Class  string  `json:"class"`
	Frames []int64 `json:"frames"`
}

// response is the wire form of one batch response.
type response struct {
	Results [][]batchwire.Detection `json:"results"`
	// FrameCosts, when present, is the exact charged seconds per frame.
	FrameCosts []float64 `json:"frame_costs,omitempty"`
	// CostSeconds is the batch-level inference latency, used (spread
	// evenly) when FrameCosts is absent.
	CostSeconds float64 `json:"cost_seconds"`
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
	// CostSeconds is the nominal per-frame cost charged when the server
	// does not report cost_seconds (default 1/20 s, the paper's measured
	// 20 fps detector).
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
	// ServerSeconds sums the server-reported cost_seconds across
	// successful batches — the charged inference time.
	ServerSeconds float64
}

// reqPool recycles the Handler's decoded request structs; encoding/json
// reuses the Frames slice capacity when decoding into a non-nil slice, so
// a warm handler stops allocating a frames array per request.
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
	if cfg.MaxBatch < 0 || cfg.CostSeconds < 0 {
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
	body, err := json.Marshal(request{Class: class, Frames: frames})
	if err != nil {
		return nil, nil, fmt.Errorf("httpbatch: encode request: %w", err)
	}
	var resp response
	if err := c.wire.Post(ctx, c.cfg.Endpoint, body, &resp); err != nil {
		return nil, nil, err
	}
	if len(resp.Results) != len(frames) {
		return nil, nil, fmt.Errorf("httpbatch: server returned %d results for a %d-frame batch", len(resp.Results), len(frames))
	}
	if resp.FrameCosts != nil && len(resp.FrameCosts) != len(frames) {
		return nil, nil, fmt.Errorf("httpbatch: server returned %d frame costs for a %d-frame batch", len(resp.FrameCosts), len(frames))
	}
	out := make([][]backend.Detection, len(frames))
	for i, wire := range resp.Results {
		out[i] = batchwire.FromWire(wire)
	}
	costs := resp.FrameCosts
	if costs == nil {
		// No per-frame costs: spread the batch latency evenly, falling
		// back to the nominal rate when the server reported nothing.
		per := resp.CostSeconds / float64(len(frames))
		if resp.CostSeconds == 0 {
			per = c.cfg.CostSeconds
		}
		costs = make([]float64, len(frames))
		for i := range costs {
			costs[i] = per
		}
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
// server half of the pairing. Detection cost in the response comes from the
// backend's own accounting, reported per frame in frame_costs (so clients
// charge exact values, no divide-by-batch-size loss): the measured
// per-frame costs when the backend implements backend.BatchCoster, its
// nominal Hints().CostSeconds per frame otherwise. Requests are bounded:
// oversized bodies are rejected, and when the backend hints a MaxBatch,
// batches beyond it are refused with a 400 rather than run unsplit. Pair
// it with any mux: http.Handle("/detect", httpbatch.Handler(b)).
func Handler(b backend.Backend) http.Handler {
	coster, _ := b.(backend.BatchCoster)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !proto.PostOnly(w, r) {
			return
		}
		req := reqPool.Get().(*request)
		defer reqPool.Put(req)
		req.Class, req.Frames = "", req.Frames[:0]
		if !proto.Decode(w, r, req) {
			return
		}
		if req.Class == "" || len(req.Frames) == 0 {
			http.Error(w, "httpbatch: class and frames are required", http.StatusBadRequest)
			return
		}
		if max := b.Hints().MaxBatch; max > 0 && len(req.Frames) > max {
			http.Error(w, fmt.Sprintf("httpbatch: batch of %d frames exceeds the backend's MaxBatch %d", len(req.Frames), max), http.StatusBadRequest)
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
		if err != nil {
			http.Error(w, fmt.Sprintf("httpbatch: backend: %v", err), http.StatusInternalServerError)
			return
		}
		var total float64
		for _, cost := range costs {
			total += cost
		}
		resp := response{Results: make([][]batchwire.Detection, len(dets)), FrameCosts: costs, CostSeconds: total}
		for i, frameDets := range dets {
			resp.Results[i] = batchwire.ToWire(frameDets)
		}
		proto.Respond(w, resp)
	})
}
