package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"time"

	exsample "github.com/exsample/exsample"
	"github.com/exsample/exsample/cachestore"
	"github.com/exsample/exsample/cachestore/httpcache"
)

// rep is one repetition's start state: a fresh Engine with a fresh L1, and
// for the workloads that need one a fresh cache server or fresh streams.
type rep struct {
	eng     *exsample.Engine
	cache   *httpcache.Client
	streams []*liveStream
	closers []func()
}

func (r *rep) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
}

// liveStream is one client's segment ring and the standing query over it.
type liveStream struct {
	src *exsample.StreamSource
	h   *exsample.QueryHandle
	// tick bounds how long the client waits for an event before it checks
	// whether its query has parked.
	tick *time.Ticker
	// scope is non-nil in the traced pass: the standing query's context
	// resolves its trace scope through it.
	scope *liveScope
	// found and frames are the query's running totals as of the last
	// consumed event.
	found  int
	frames int64
	events int64
}

func (w *world) engineOptions() exsample.EngineOptions {
	return exsample.EngineOptions{
		Workers:        w.cfg.clients,
		FramesPerRound: w.spec.framesPerRound,
		EventBuffer:    w.spec.eventBuffer,
	}
}

// startRep builds a repetition's start state. It is untimed.
func (w *world) startRep() (*rep, error) {
	r := &rep{}
	opts := w.engineOptions()
	if w.fleet != nil {
		if err := w.fleet.reset(); err != nil {
			return nil, err
		}
	}
	if w.tier {
		url := w.cacheURL
		if url == "" {
			// tier_fill: a fresh, empty cache server per rep keeps every rep
			// genuinely cold.
			srv := httptest.NewServer(w.p.handlerSeam(spanCacheHandler, httpcache.Handler(w.p.serverStoreSeam(cachestore.NewLocal(1<<16)))))
			r.closers = append(r.closers, srv.Close)
			url = srv.URL
		}
		client, err := httpcache.New(httpcache.Config{
			Endpoint:      url,
			HTTPClient:    w.httpClient(true),
			MaxConcurrent: w.cfg.clients,
		})
		if err != nil {
			r.close()
			return nil, err
		}
		r.cache = client
		opts.RemoteCache = w.p.l2Seam(client)
	}
	eng, err := exsample.NewEngine(opts)
	if err != nil {
		r.close()
		return nil, err
	}
	r.eng = eng
	r.closers = append(r.closers, eng.Close)
	for c := range w.segs {
		ls, err := w.startStream(r, c)
		if err != nil {
			r.close()
			return nil, err
		}
		r.streams = append(r.streams, ls)
	}
	return r, nil
}

// startStream opens client c's ring on its (dead) priming segment, submits
// the standing query and waits for it to park.
func (w *world) startStream(r *rep, c int) (*liveStream, error) {
	src, err := exsample.NewStreamSource(exsample.StreamConfig{
		Name:            fmt.Sprintf("cam-%d", c),
		Retention:       streamRetention,
		MotionThreshold: streamGate,
	}, w.segs[c][0])
	if err != nil {
		return nil, err
	}
	ls := &liveStream{src: src, tick: time.NewTicker(200 * time.Microsecond)}
	r.closers = append(r.closers, ls.tick.Stop)
	ctx := context.Background()
	if w.p.tracer() != nil {
		ls.scope = &liveScope{}
		ctx = context.WithValue(ctx, ctxKey{}, ls.scope)
	}
	ls.h, err = r.eng.SubmitStanding(ctx, src,
		exsample.Query{Class: w.spec.class}, exsample.Options{Seed: mix(w.cfg.seed, 100, uint64(c))})
	if err != nil {
		return nil, err
	}
	ls.untilParked(nil)
	return ls, nil
}

// untilParked consumes the standing query's events until it has parked and
// its event channel is drained. Events are emitted before the round that
// finds nothing to propose, so once Parked reports true everything the
// append produced is already buffered.
func (ls *liveStream) untilParked(onAlert func()) {
	events := ls.h.Events()
	consume := func(ev exsample.QueryEvent) {
		ls.events++
		ls.frames, ls.found = ev.FramesProcessed, ev.Found
		if len(ev.New) > 0 && onAlert != nil {
			onAlert()
		}
	}
	for {
		if ls.h.Parked() {
			for {
				select {
				case ev := <-events:
					consume(ev)
					continue
				default:
				}
				return
			}
		}
		select {
		case ev := <-events:
			consume(ev)
		case <-ls.tick.C:
		}
	}
}

// opResult is what one executed op reports.
type opResult struct {
	latency time.Duration
	// first is the time to the first result event; negative when the op
	// produced no result.
	first   time.Duration
	frames  int64
	results int
	events  int64
	dropped int64
	// hits and remoteHits are the op's cache outcomes (tier workloads).
	hits, remoteHits int64
	// digest identifies the op's results; equal digests mean equal results
	// and frame counts.
	digest uint64
	err    error
	// track-query extras, for trackquery.* metrics.
	refineFrames, denseFrames int64
}

// runOp executes one op on a rep. ctx carries the trace scope in the traced
// pass and is context.Background() otherwise.
func (w *world) runOp(ctx context.Context, r *rep, o op) opResult {
	tr := w.p.tracer()
	ctx, id := tr.openOp(ctx)
	defer tr.close(id, 1)
	switch o.Kind {
	case opSearch:
		return w.runSearch(ctx, r, o)
	case opTrack:
		return w.runTrack(ctx, r, o)
	default:
		return w.runAppend(ctx, r, o)
	}
}

func (w *world) query(o op) (exsample.Query, exsample.Options) {
	return exsample.Query{Class: w.spec.class, Limit: o.Limit},
		exsample.Options{Seed: o.Seed, MaxFrames: o.MaxFrames}
}

// consume drains a bounded query's event stream, which closes when the query
// is finalized. It returns the number of events and the time from start to
// the first one that carried a result (negative when none did).
func consume(events <-chan exsample.QueryEvent, start time.Time) (n int64, first time.Duration) {
	first = -1
	for ev := range events {
		n++
		if first < 0 && (len(ev.New) > 0 || len(ev.Tracks) > 0) {
			first = time.Since(start)
		}
	}
	return n, first
}

func (w *world) runSearch(ctx context.Context, r *rep, o op) opResult {
	res := opResult{first: -1}
	q, opts := w.query(o)
	start := time.Now()
	h, err := r.eng.Submit(ctx, w.sources[o.Src], q, opts)
	if err != nil {
		res.err = err
		return res
	}
	res.events, res.first = consume(h.Events(), start)
	rep, err := h.Wait()
	res.latency = time.Since(start)
	res.dropped = h.Dropped()
	if err != nil {
		res.err = err
		return res
	}
	res.frames, res.results = rep.FramesProcessed, len(rep.Results)
	res.hits, res.remoteHits = rep.CacheHits, rep.RemoteCacheHits
	res.digest = reportDigest(rep)
	return res
}

func (w *world) runTrack(ctx context.Context, r *rep, o op) opResult {
	res := opResult{first: -1}
	start := time.Now()
	h, err := r.eng.SubmitTrack(ctx, w.sources[o.Src], w.trackPredicate(), exsample.TrackOptions{Seed: o.Seed})
	if err != nil {
		res.err = err
		return res
	}
	res.events, res.first = consume(h.Events(), start)
	rep, err := h.Wait()
	res.latency = time.Since(start)
	res.dropped = h.Dropped()
	if err != nil {
		res.err = err
		return res
	}
	res.frames, res.results = rep.FramesProcessed, len(rep.Results)
	res.hits, res.remoteHits = rep.CacheHits, rep.RemoteCacheHits
	res.refineFrames, res.denseFrames = rep.RefineFrames, rep.DenseFrames
	res.digest = trackDigest(rep)
	return res
}

func (w *world) trackPredicate() exsample.TrackPredicate {
	return exsample.TrackPredicate{Class: w.spec.class, MinDuration: 50}
}

// runAppend attaches the op's segment to its client's ring and returns once
// the standing query has consumed it and parked again.
func (w *world) runAppend(ctx context.Context, r *rep, o op) opResult {
	res := opResult{first: -1}
	ls := r.streams[o.Src]
	tr := w.p.tracer()
	found, frames, events, dropped := ls.found, ls.frames, ls.events, ls.h.Dropped()
	if ls.scope != nil {
		ls.scope.set(scopeOf(ctx))
	}
	start := time.Now()
	_, id := tr.open(ctx, spanAppend)
	_, err := ls.src.Append(w.segs[o.Src][o.Seg])
	tr.close(id, 1)
	if err != nil {
		res.err = err
		return res
	}
	ls.untilParked(func() {
		if res.first < 0 {
			res.first = time.Since(start)
		}
	})
	res.latency = time.Since(start)
	res.frames = ls.frames - frames
	res.results = ls.found - found
	res.events = ls.events - events
	res.dropped = ls.h.Dropped() - dropped
	d := newDigest()
	d.add(uint64(o.Seg))
	d.add(uint64(res.frames))
	d.add(uint64(res.results))
	res.digest = uint64(d)
	return res
}

// finishStreams cancels every standing query at the end of a rep and checks
// the final reports against what the event streams said.
func (r *rep) finishStreams() error {
	for c, ls := range r.streams {
		ls.h.Cancel()
		rep, err := ls.h.Wait()
		if err != nil && !errors.Is(err, context.Canceled) {
			return fmt.Errorf("stream %d: %w", c, err)
		}
		if rep.FramesProcessed != ls.frames || len(rep.Results) != ls.found {
			return fmt.Errorf("stream %d: report says %d frames / %d alerts, events said %d / %d",
				c, rep.FramesProcessed, len(rep.Results), ls.frames, ls.found)
		}
	}
	return nil
}

// digest is an allocation-free running hash (FNV-1a over 64-bit words); op
// results are folded into it inside the timed window, so it must not show
// up in the allocation metrics.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) add(v uint64) {
	for i := 0; i < 8; i++ {
		*d = (*d ^ digest(v&0xff)) * 1099511628211
		v >>= 8
	}
}

func (d *digest) addBox(b exsample.Box) {
	d.add(math.Float64bits(b.X1))
	d.add(math.Float64bits(b.Y1))
	d.add(math.Float64bits(b.X2))
	d.add(math.Float64bits(b.Y2))
}

// reportDigest hashes what identifies a distinct-object report: the frame
// count and every result's id, frame, box and score.
func reportDigest(rep *exsample.Report) uint64 {
	d := newDigest()
	d.add(uint64(rep.FramesProcessed))
	for _, r := range rep.Results {
		d.add(uint64(r.ObjectID))
		d.add(uint64(r.Frame))
		d.addBox(r.Box)
		d.add(math.Float64bits(r.Score))
	}
	return uint64(d)
}

// trackDigest is reportDigest for track reports.
func trackDigest(rep *exsample.TrackReport) uint64 {
	d := newDigest()
	d.add(uint64(rep.FramesProcessed))
	for _, r := range rep.Results {
		d.add(uint64(r.TrackID))
		d.add(uint64(r.Start))
		d.add(uint64(r.End))
		d.add(uint64(r.Hits))
		d.addBox(r.StartBox)
		d.addBox(r.EndBox)
	}
	return uint64(d)
}
