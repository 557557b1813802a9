package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// spanName is a span's layer boundary. Names are small integers in the
// buffer so the buffer holds no pointers and the garbage collector never
// scans it while a traced rep runs.
type spanName uint8

const (
	spanOp spanName = iota
	spanBackend
	spanReplica
	spanDetectHandler
	spanDetect
	spanL2Get
	spanL2Put
	spanCacheHandler
	spanStoreGet
	spanStorePut
	spanAppend
)

var spanNames = [...]string{"op", "backend", "replica", "detect.handler", "detect",
	"l2.get", "l2.put", "cache.handler", "store.get", "store.put", "append"}

func (n spanName) String() string { return spanNames[n] }

// MarshalText writes the name, not its code, into spans.jsonl.
func (n spanName) MarshalText() ([]byte, error) { return []byte(n.String()), nil }

// span is one recorded interval at a layer boundary. IDs are 1-based
// positions in the tracer's buffer; Parent 0 marks an op's root span. Spans
// of one op share Op.
type span struct {
	ID     int32    `json:"id"`
	Parent int32    `json:"parent"`
	Op     int32    `json:"op_id"`
	Name   spanName `json:"name"`
	// N is the span's work count (frames of a detector batch, keys of a
	// cache round trip, 1 for an op).
	N     int32 `json:"n"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer is the traced pass's in-memory span buffer: preallocated, claimed
// by one atomic add per span, written out once at exit. A nil tracer is the
// untraced configuration and every method is a no-op on it, so the
// decorators cost two nil checks when end-to-end numbers are measured.
type tracer struct {
	t0    time.Time
	next  atomic.Int32
	spans []span
	lost  atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, capacity)}
}

type ctxKey struct{}

// scope is what a traced context carries: the op and the innermost open
// span, which becomes the parent of the next span opened under it.
type scope struct {
	op, span int32
}

// liveScope is a scope that changes under a long-lived context: a standing
// query keeps the context it was submitted with, so the client repoints the
// scope at each append op instead.
type liveScope struct{ v atomic.Uint64 }

func (l *liveScope) set(sc scope) { l.v.Store(uint64(uint32(sc.op))<<32 | uint64(uint32(sc.span))) }

func scopeOf(ctx context.Context) scope {
	switch v := ctx.Value(ctxKey{}).(type) {
	case scope:
		return v
	case *liveScope:
		x := v.v.Load()
		return scope{op: int32(x >> 32), span: int32(uint32(x))}
	}
	return scope{}
}

// open starts a span under ctx's scope and returns a context scoped to it.
// id 0 means the span was not recorded (untraced, or the buffer is full).
func (t *tracer) open(ctx context.Context, name spanName) (context.Context, int32) {
	if t == nil {
		return ctx, 0
	}
	parent := scopeOf(ctx)
	id := t.begin(name, parent)
	if id == 0 {
		return ctx, 0
	}
	return context.WithValue(ctx, ctxKey{}, scope{op: parent.op, span: id}), id
}

// begin claims a slot and stamps the start time.
func (t *tracer) begin(name spanName, parent scope) int32 {
	id := t.next.Add(1)
	if int(id) > len(t.spans) {
		t.lost.Add(1)
		return 0
	}
	t.spans[id-1] = span{ID: id, Parent: parent.span, Op: parent.op, Name: name, Start: int64(time.Since(t.t0))}
	return id
}

// close stamps a span's end time and work count.
func (t *tracer) close(id int32, n int) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.N = int32(n)
}

// openOp starts an op's root span; op ids are the root span's own id.
func (t *tracer) openOp(ctx context.Context) (context.Context, int32) {
	if t == nil {
		return ctx, 0
	}
	id := t.begin(spanOp, scope{})
	if id == 0 {
		return ctx, 0
	}
	t.spans[id-1].Op = id
	return context.WithValue(ctx, ctxKey{}, scope{op: id, span: id}), id
}

// recorded returns the closed spans in id order.
func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	out := make([]span, 0, n)
	for _, s := range t.spans[:n] {
		if s.End >= s.Start && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// covered returns how much of [lo, hi) the given intervals cover; intervals
// are clipped to the window, so a child that outlives its parent by a
// scheduling hiccup cannot push self time negative.
func covered(lo, hi int64, iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := x[0], x[1]
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// selfTimes computes each span's self time: its duration minus the part of
// that interval its direct children cover.
func selfTimes(spans []span) map[int32]int64 {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// selfByName sums self time per span name, and reports the worst relative
// gap between an op's span and the self times recorded under it — 0 when
// children nest and never overlap, positive when sibling spans ran in
// parallel.
func selfByName(spans []span) (byName map[spanName]int64, worstGap float64) {
	self := selfTimes(spans)
	byName = make(map[spanName]int64)
	perOp := make(map[int32]int64)
	opDur := make(map[int32]int64)
	for _, s := range spans {
		byName[s.Name] += self[s.ID]
		perOp[s.Op] += self[s.ID]
		if s.Parent == 0 {
			opDur[s.Op] = s.End - s.Start
		}
	}
	for op, d := range opDur {
		if d <= 0 {
			continue
		}
		gap := float64(perOp[op]-d) / float64(d)
		if gap < 0 {
			gap = -gap
		}
		if gap > worstGap {
			worstGap = gap
		}
	}
	return byName, worstGap
}

// unionNs is the total time covered by the named spans within [lo, hi).
func unionNs(spans []span, name spanName, lo, hi int64) int64 {
	var iv [][2]int64
	for _, s := range spans {
		if s.Name == name {
			iv = append(iv, [2]int64{s.Start, s.End})
		}
	}
	return covered(lo, hi, iv)
}

// writeSpans appends the spans to path as JSON lines, one span per line
// with its workload attached.
func writeSpans(path, workload string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			Workload string `json:"workload"`
			span
		}{workload, s}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
