package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/cachestore"
)

// probe is the benchmark's view of one workload from outside the engine:
// the counters its decorators keep at the public seams, the tracer they
// record spans into during the traced pass, and the detections recorded
// for the layer drivers. The engine sees only ordinary backends, stores,
// handlers and transports.
type probe struct {
	tr atomic.Pointer[tracer]

	// backendFrames counts what the dataset-facing seam saw, detectFrames
	// what the innermost (detector-side) seam saw; they differ only when
	// something between them retries or fails over.
	backendFrames, detectFrames atomic.Int64
	// replicaFrames counts frames per remote replica, fast replica first.
	replicaFrames [3]atomic.Int64
	// l2* count the shared tier's client-side traffic.
	l2Gets, l2GetKeys, l2Puts, l2PutKeys atomic.Int64
	// wire* count bytes through the benchmark's RoundTripper, by target.
	detectWireBytes, cacheWireBytes atomic.Int64

	rec recorder
}

func (p *probe) tracer() *tracer { return p.tr.Load() }

// recordLimit is how many frames' detections the innermost seam keeps for
// the layer drivers.
const recordLimit = 4096

// recorded is one frame's detector output as the seam saw it.
type recorded struct {
	frame int64
	dets  []backend.Detection
}

// recorder keeps the first recordLimit frames' detections of the one seam
// it is attached to.
type recorder struct {
	mu     sync.Mutex
	frames []recorded
	full   atomic.Bool
}

func (r *recorder) add(frames []int64, out [][]backend.Detection) {
	if r.full.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, f := range frames {
		if len(r.frames) >= recordLimit {
			r.full.Store(true)
			return
		}
		if i < len(out) {
			r.frames = append(r.frames, recorded{frame: f, dets: append([]backend.Detection(nil), out[i]...)})
		}
	}
}

// seam decorates a backend.Backend: it counts frames always, and records a
// span per call during the traced pass.
type seam struct {
	p      *probe
	name   spanName
	inner  backend.Backend
	frames *atomic.Int64
	rec    *recorder // non-nil on the seam that records detections
}

func (s *seam) DetectBatch(ctx context.Context, class string, frames []int64) ([][]backend.Detection, error) {
	tr := s.p.tracer()
	ctx, id := tr.open(ctx, s.name)
	out, err := s.inner.DetectBatch(ctx, class, frames)
	tr.close(id, len(frames))
	s.note(frames, out, err)
	return out, err
}

func (s *seam) note(frames []int64, out [][]backend.Detection, err error) {
	s.frames.Add(int64(len(frames)))
	if s.rec != nil && err == nil {
		s.rec.add(frames, out)
	}
}

func (s *seam) Hints() backend.Hints { return s.inner.Hints() }

// costSeam is the seam for backends that report measured per-call cost; it
// keeps the pipeline on the DetectBatchCost path it would take without the
// decorator.
type costSeam struct {
	seam
	coster backend.BatchCoster
}

func (s *costSeam) DetectBatchCost(ctx context.Context, class string, frames []int64) ([][]backend.Detection, []float64, error) {
	tr := s.p.tracer()
	ctx, id := tr.open(ctx, s.name)
	out, costs, err := s.coster.DetectBatchCost(ctx, class, frames)
	tr.close(id, len(frames))
	s.note(frames, out, err)
	return out, costs, err
}

func (p *probe) wrap(name spanName, inner backend.Backend, frames *atomic.Int64, rec *recorder) backend.Backend {
	s := seam{p: p, name: name, inner: inner, frames: frames, rec: rec}
	if c, ok := inner.(backend.BatchCoster); ok {
		return &costSeam{seam: s, coster: c}
	}
	return &s
}

// backendSeam is the dataset-facing decorator: everything the engine asks
// of a detector crosses it.
func (p *probe) backendSeam(inner backend.Backend) backend.Backend {
	return p.wrap(spanBackend, inner, &p.backendFrames, nil)
}

// detectSeam is the innermost decorator, directly around the detector (and
// its simulated service time). record attaches the detection recorder.
func (p *probe) detectSeam(inner backend.Backend, record bool) backend.Backend {
	var rec *recorder
	if record {
		rec = &p.rec
	}
	return p.wrap(spanDetect, inner, &p.detectFrames, rec)
}

// replicaSeam decorates one remote replica's client.
func (p *probe) replicaSeam(i int, inner backend.Backend) backend.Backend {
	return p.wrap(spanReplica, inner, &p.replicaFrames[i], nil)
}

// sleepBackend adds a simulated service time of overhead + perFrame per
// frame to every batch: the fixed-cost-plus-linear shape of a remote GPU
// batch endpoint.
type sleepBackend struct {
	inner              backend.Backend
	overhead, perFrame time.Duration
	maxBatch           int
}

func (b *sleepBackend) DetectBatch(ctx context.Context, class string, frames []int64) ([][]backend.Detection, error) {
	t := time.NewTimer(b.overhead + time.Duration(len(frames))*b.perFrame)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return b.inner.DetectBatch(ctx, class, frames)
}

func (b *sleepBackend) Hints() backend.Hints {
	h := b.inner.Hints()
	h.MaxBatch = b.maxBatch
	return h
}

// storeSeam decorates a cachestore.Store with one span per batched call. The
// client-side seam also counts calls and keys.
type storeSeam struct {
	p        *probe
	get, put spanName
	inner    cachestore.Store
	counted  bool
}

func (s *storeSeam) GetBatch(ctx context.Context, keys []cachestore.Key) ([]cachestore.Entry, error) {
	tr := s.p.tracer()
	ctx, id := tr.open(ctx, s.get)
	out, err := s.inner.GetBatch(ctx, keys)
	tr.close(id, len(keys))
	if s.counted {
		s.p.l2Gets.Add(1)
		s.p.l2GetKeys.Add(int64(len(keys)))
	}
	return out, err
}

func (s *storeSeam) PutBatch(ctx context.Context, keys []cachestore.Key, vals [][]backend.Detection) error {
	tr := s.p.tracer()
	ctx, id := tr.open(ctx, s.put)
	err := s.inner.PutBatch(ctx, keys, vals)
	tr.close(id, len(keys))
	if s.counted {
		s.p.l2Puts.Add(1)
		s.p.l2PutKeys.Add(int64(len(keys)))
	}
	return err
}

// l2Seam is the client-side decorator around the remote tier's store.
func (p *probe) l2Seam(inner cachestore.Store) *storeSeam {
	return &storeSeam{p: p, get: spanL2Get, put: spanL2Put, inner: inner, counted: true}
}

// serverStoreSeam is the decorator around the store behind the cache
// server's handler: client span minus this span is wire and codec time.
func (p *probe) serverStoreSeam(inner cachestore.Store) *storeSeam {
	return &storeSeam{p: p, get: spanStoreGet, put: spanStorePut, inner: inner}
}

// scopeHeader carries the caller's trace scope across the loopback wire.
const scopeHeader = "X-Bench-Scope"

// handlerSeam decorates an http.Handler: during the traced pass it adopts
// the scope the benchmark's transport put on the request and records the
// handler's span under it.
func (p *probe) handlerSeam(name spanName, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := p.tracer()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		var sc scope
		fmt.Sscanf(r.Header.Get(scopeHeader), "%d.%d", &sc.op, &sc.span)
		ctx, id := tr.open(context.WithValue(r.Context(), ctxKey{}, sc), name)
		h.ServeHTTP(w, r.WithContext(ctx))
		tr.close(id, 1)
	})
}

// wireTap is the benchmark's http.RoundTripper: during the traced pass it
// forwards the caller's scope in a header and counts request and response
// bytes; untraced it is a pass-through.
type wireTap struct {
	p     *probe
	inner http.RoundTripper
	bytes *atomic.Int64
}

func (t *wireTap) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.p.tracer() == nil {
		return t.inner.RoundTrip(req)
	}
	sc := scopeOf(req.Context())
	req = req.Clone(req.Context())
	req.Header.Set(scopeHeader, fmt.Sprintf("%d.%d", sc.op, sc.span))
	t.bytes.Add(req.ContentLength)
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: t.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
