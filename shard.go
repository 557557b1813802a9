package exsample

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/exsample/exsample/internal/detect"
	"github.com/exsample/exsample/internal/discrim"
	"github.com/exsample/exsample/internal/shard"
	"github.com/exsample/exsample/internal/track"
)

// ShardedSource composes N datasets into one logical repository: shard i's
// frames, chunks and ground-truth ids are remapped into a shared global
// space, so one query's Thompson sampler treats every shard's chunks as
// arms of a single bandit while detector calls route back to the owning
// shard. This is the paper's observation taken to production scale — a
// chunk is "just another source of Propose/Detect work", so a shard (a
// machine's worth of chunks) is too.
//
// The shard set is elastic. AddShard attaches a new dataset while queries
// are running: its frames, chunks and truth ids append past the existing
// global space (addresses never move), and every in-flight query picks the
// new chunks up at its next round boundary with fresh belief arms — its
// existing per-chunk statistics, proxy scores and memo-cache entries carry
// across untouched. DrainShard retires a shard the same way: batches
// already in flight finish and apply, but the shard's chunks are fenced
// out of every sampler and its frames receive no new picks; the shard's
// data stays resident so old detections remain extendable and decodable.
// Each mutation publishes a new generation-counted snapshot; queries
// compare generations at round boundaries, so a stable topology costs one
// atomic load per pick.
//
// Determinism is unchanged: a seeded query over a 1-shard source is
// byte-identical to Dataset.Search on the underlying dataset, a
// multi-shard query is reproducible for a fixed seed and shard order, and
// — because fenced chunks are skipped before the sampling policy draws any
// randomness — attaching and immediately draining a shard mid-query leaves
// a seeded Report byte-identical to a run that never saw the churn.
// Objects never span shards (frame ranges are disjoint), so the
// discriminator's distinct-object guarantee is preserved; ground-truth
// populations simply add.
//
// ShardedSource is safe for concurrent use by any number of queries, and
// AddShard/DrainShard may be called concurrently with running queries.
type ShardedSource struct {
	name string
	qs   *querySource

	// mu serializes topology mutations (AddShard, DrainShard); readers go
	// through the topo pointer and never block.
	mu   sync.Mutex
	topo atomic.Pointer[shardedTopo]

	// subs are append-notification callbacks (keyed for cancellation):
	// standing queries subscribe so a segment attach wakes them out of
	// their park. Callbacks run after the new topology is published, off
	// the topology lock, and must be cheap and non-blocking.
	subsMu  sync.Mutex
	subs    map[int]func()
	nextSub int
}

// onAppend registers fn to run after every shard attach that adds
// sampleable frames, returning a cancel function. It is the wake-on-append
// seam for standing queries; fn runs on the appender's goroutine.
func (s *ShardedSource) onAppend(fn func()) (cancel func()) {
	s.subsMu.Lock()
	defer s.subsMu.Unlock()
	if s.subs == nil {
		s.subs = make(map[int]func())
	}
	id := s.nextSub
	s.nextSub++
	s.subs[id] = fn
	return func() {
		s.subsMu.Lock()
		delete(s.subs, id)
		s.subsMu.Unlock()
	}
}

// notifyAppend runs every subscribed append callback.
func (s *ShardedSource) notifyAppend() {
	s.subsMu.Lock()
	for _, fn := range s.subs {
		fn()
	}
	s.subsMu.Unlock()
}

// shardedTopo is one immutable generation of the composed repository:
// the address snapshot plus the slot-aligned member list and the merged
// ground-truth populations. Mutations build a fresh shardedTopo and
// publish it atomically.
type shardedTopo struct {
	snap    *shard.Snapshot
	members []*shardMember
	counts  map[string]int
}

// shardMember is one attached dataset and its per-shard counters. Members
// are append-only: a slot, once assigned, always refers to the same
// dataset, draining or not.
type shardMember struct {
	ds      *Dataset
	detects atomic.Int64 // detector invocations routed here (cache hits excluded)
	// opensBase is the member backend's cumulative breaker-open count at
	// the moment it joined the source. The source-level capacity signal
	// sums (current - base) per member, so attaching a shard whose router
	// already recorded breaker opens in a previous life does not jump the
	// total and fire a phantom capacity-loss shrink on running adaptive
	// queries.
	opensBase int64
}

// newShardMember snapshots the backend's breaker baseline at attach time.
func newShardMember(d *Dataset) *shardMember {
	m := &shardMember{ds: d}
	if sig, ok := d.be.(capacitySignaler); ok {
		m.opensBase = sig.BreakerOpens()
	}
	return m
}

// shardPart builds the address-space description of a dataset.
func shardPart(d *Dataset) shard.Part {
	bound := 0
	for _, in := range d.inner.Instances {
		if in.ID+1 > bound {
			bound = in.ID + 1
		}
	}
	return shard.Part{
		NumFrames:    d.NumFrames(),
		Chunks:       d.inner.Chunks,
		TruthIDBound: bound,
	}
}

// NewShardedSource composes the given datasets, in order, into one
// searchable source. Every dataset keeps its own detector, noise model and
// cost model; frames are charged at their owning shard's rates. One global
// property is taken from shard 0: the recording rate used for random+'s
// hour-granularity stratification — compose shards of equal FPS when that
// baseline's stratum boundaries matter. More shards can be attached later
// with AddShard and retired with DrainShard.
func NewShardedSource(name string, shards ...*Dataset) (*ShardedSource, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("exsample: sharded source needs at least one shard")
	}
	parts := make([]shard.Part, len(shards))
	counts := make(map[string]int)
	members := make([]*shardMember, len(shards))
	for i, d := range shards {
		if d == nil {
			return nil, fmt.Errorf("exsample: shard %d is nil", i)
		}
		parts[i] = shardPart(d)
		for class, n := range d.inner.CountByClass {
			counts[class] += n
		}
		members[i] = newShardMember(d)
	}
	m, err := shard.New(parts)
	if err != nil {
		return nil, err
	}
	s := &ShardedSource{name: name}
	status := make([]shard.Status, len(shards))
	s.topo.Store(&shardedTopo{
		snap:    &shard.Snapshot{Gen: 1, Map: m, Status: status},
		members: members,
		counts:  counts,
	})
	s.qs = &querySource{
		id:        sourceIDs.Add(1),
		contentID: shardedContentID(name, shards),
		name:      name,
		numFrames: m.NumFrames(),
		fps:       shards[0].inner.Profile.FPS,
		chunks:    m.Chunks(),
		numShards: len(shards),
		maxBatch: func() int {
			// The tightest positive per-shard bound: every shard must
			// accept whatever slice of a round lands on it.
			min := 0
			for _, m := range s.topo.Load().members {
				if m.ds.be == nil {
					continue
				}
				if mb := m.ds.be.Hints().MaxBatch; mb > 0 && (min == 0 || mb < min) {
					min = mb
				}
			}
			return min
		},
		breakerOpens: func() int64 {
			// Sum of per-member deltas since attach: a valid edge signal
			// even as the member set grows mid-run.
			var n int64
			for _, m := range s.topo.Load().members {
				if sig, ok := m.ds.be.(capacitySignaler); ok {
					n += sig.BreakerOpens() - m.opensBase
				}
			}
			return n
		},
		shardOf: func(frame int64) int {
			sh, _ := s.topo.Load().snap.Map.Locate(frame)
			return sh
		},
		topology: func() *shard.Snapshot {
			return s.topo.Load().snap
		},
		decodeCost: func(frame int64) float64 {
			t := s.topo.Load()
			sh, local := t.snap.Map.Locate(frame)
			return t.members[sh].ds.dec.Cost(local)
		},
		scanSeconds: s.scanSeconds,
		groundTruth: s.GroundTruthCount,
		shardTruth: func(class string, shard int) int {
			return s.topo.Load().members[shard].ds.inner.CountByClass[class]
		},
		newDetector: s.newDetector,
		newExtender: s.newExtender,
		newScorer:   s.newScorer,
	}
	return s, nil
}

// shardedContentID composes the initial members' content addresses, in
// order, under the source's name — the composed repository's stable content
// address (see querySource.contentID). Later attaches keep the id: frames
// append past the existing space, so the original members' keys stay valid,
// and cross-process sharing of the appended range is sound exactly when the
// processes attach the same shards in the same order — the caveat the
// shared-tier docs carry.
func shardedContentID(name string, shards []*Dataset) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "sharded|%s|", name)
	for _, d := range shards {
		fmt.Fprintf(h, "%016x|", d.qs.contentID)
	}
	return h.Sum64()
}

// AddShard attaches one more dataset to the composed repository and
// returns its shard index. The new shard's frames, chunks and truth ids
// append past the existing global space, so no running query's state is
// invalidated; every query discovers the new chunks at its next round
// boundary and starts sampling them from the belief prior. Queries
// submitted after AddShard returns see the enlarged repository (classes
// and ground-truth populations included) immediately.
func (s *ShardedSource) AddShard(d *Dataset) (int, error) {
	return s.addShardStatus(d, shard.Active)
}

// addShardStatus is AddShard with an explicit initial lifecycle state —
// the seam the stream motion gate uses to attach a dead segment already
// fenced, so no query can sample it during the window between the attach
// and a separate gate flip. Attaching an Active shard notifies append
// subscribers (parked standing queries wake); a Gated attach adds nothing
// sampleable and stays silent.
func (s *ShardedSource) addShardStatus(d *Dataset, st shard.Status) (int, error) {
	if d == nil {
		return 0, fmt.Errorf("exsample: cannot attach a nil shard")
	}
	s.mu.Lock()
	old := s.topo.Load()
	m, err := old.snap.Map.Extend(shardPart(d))
	if err != nil {
		s.mu.Unlock()
		return 0, err
	}
	slot := len(old.members)
	counts := make(map[string]int, len(old.counts))
	for class, n := range old.counts {
		counts[class] = n
	}
	for class, n := range d.inner.CountByClass {
		counts[class] += n
	}
	status := append(append(make([]shard.Status, 0, slot+1), old.snap.Status...), st)
	members := append(append(make([]*shardMember, 0, slot+1), old.members...), newShardMember(d))
	s.topo.Store(&shardedTopo{
		snap:    &shard.Snapshot{Gen: old.snap.Gen + 1, Map: m, Status: status},
		members: members,
		counts:  counts,
	})
	s.mu.Unlock()
	if st == shard.Active {
		s.notifyAppend()
	}
	return slot, nil
}

// setShardStatus flips shard i between Active and Gated — the reversible
// fence behind the stream motion gate. Draining is terminal and owned by
// DrainShard: a draining shard cannot be flipped, and this method cannot
// drain. Readmitting a shard to Active notifies append subscribers, since
// its frames just became sampleable again.
func (s *ShardedSource) setShardStatus(i int, st shard.Status) error {
	if st != shard.Active && st != shard.Gated {
		return fmt.Errorf("exsample: setShardStatus only flips between active and gated, got %v", st)
	}
	s.mu.Lock()
	old := s.topo.Load()
	if i < 0 || i >= len(old.members) {
		s.mu.Unlock()
		return fmt.Errorf("exsample: shard %d out of range [0, %d)", i, len(old.members))
	}
	if old.snap.Status[i] == shard.Draining {
		s.mu.Unlock()
		return fmt.Errorf("exsample: shard %d is draining and cannot be regated", i)
	}
	if old.snap.Status[i] == st {
		s.mu.Unlock()
		return nil
	}
	status := append(make([]shard.Status, 0, len(old.snap.Status)), old.snap.Status...)
	status[i] = st
	s.topo.Store(&shardedTopo{
		snap:    &shard.Snapshot{Gen: old.snap.Gen + 1, Map: old.snap.Map, Status: status},
		members: old.members,
		counts:  old.counts,
	})
	s.mu.Unlock()
	if st == shard.Active {
		s.notifyAppend()
	}
	return nil
}

// DrainShard retires shard i: detector batches already in flight finish
// and their results apply normally, but the shard's chunks are fenced out
// of every running query's sampler at its next round boundary and no new
// picks route to the shard. The shard's dataset stays resident — frames
// already processed remain decodable and their detections extendable — so
// draining never perturbs the belief state built from the shard's past
// samples. Draining the last active shard is allowed; new bounded queries
// then fail with ErrNoActiveShards until a shard is attached, while
// standing queries park and wait.
func (s *ShardedSource) DrainShard(i int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.topo.Load()
	if i < 0 || i >= len(old.members) {
		return fmt.Errorf("exsample: shard %d out of range [0, %d)", i, len(old.members))
	}
	if old.snap.Status[i] == shard.Draining {
		return fmt.Errorf("exsample: shard %d is already draining", i)
	}
	status := append(make([]shard.Status, 0, len(old.snap.Status)), old.snap.Status...)
	status[i] = shard.Draining
	s.topo.Store(&shardedTopo{
		snap:    &shard.Snapshot{Gen: old.snap.Gen + 1, Map: old.snap.Map, Status: status},
		members: old.members,
		counts:  old.counts,
	})
	return nil
}

// Generation returns the current topology generation: 1 at construction,
// incremented by every AddShard/DrainShard. Running queries re-fence their
// samplers when they observe the generation move.
func (s *ShardedSource) Generation() uint64 { return s.topo.Load().snap.Gen }

// Name returns the composed source's name.
func (s *ShardedSource) Name() string { return s.name }

// NumFrames returns the total frame count across all attached shards,
// draining ones included (their frames remain addressable).
func (s *ShardedSource) NumFrames() int64 { return s.topo.Load().snap.Map.NumFrames() }

// NumChunks returns the total native chunk count across attached shards.
func (s *ShardedSource) NumChunks() int { return len(s.topo.Load().snap.Map.Chunks()) }

// NumShards returns the number of attached shards, draining ones included.
func (s *ShardedSource) NumShards() int { return len(s.topo.Load().members) }

// NumActiveShards returns how many shards currently accept new picks.
func (s *ShardedSource) NumActiveShards() int { return s.topo.Load().snap.NumActive() }

// Hours returns the repository length in hours of video across shards.
func (s *ShardedSource) Hours() float64 {
	var h float64
	for _, mem := range s.topo.Load().members {
		h += mem.ds.Hours()
	}
	return h
}

// Classes lists the union of the shards' searchable classes, sorted.
func (s *ShardedSource) Classes() []string {
	counts := s.topo.Load().counts
	out := make([]string, 0, len(counts))
	for c := range counts {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// GroundTruthCount returns the summed distinct-instance population of a
// class across attached shards. Draining shards stay in the total: their
// data is still resident, and shrinking a running query's recall
// denominator mid-flight would make recall non-monotonic.
func (s *ShardedSource) GroundTruthCount(class string) (int, error) {
	n, ok := s.topo.Load().counts[class]
	if !ok {
		return 0, fmt.Errorf("exsample: sharded source %q has no class %q", s.name, class)
	}
	return n, nil
}

// querySource implements Source. It is nil-receiver-safe and returns nil
// for a zero-value ShardedSource, so the pipeline can reject uninitialized
// sources with a clear error instead of a panic.
func (s *ShardedSource) querySource() *querySource {
	if s == nil {
		return nil
	}
	return s.qs
}

// ShardStat is one shard's contribution to the queries run so far.
type ShardStat struct {
	// Shard is the shard index in attachment order.
	Shard int
	// Name is the underlying dataset's profile name.
	Name string
	// Status is the shard's lifecycle state: "active", "draining" or
	// "gated" (fenced by the stream motion gate).
	Status string
	// NumFrames is the shard's repository size.
	NumFrames int64
	// DetectCalls counts detector invocations routed to the shard across
	// all queries on this source (memo-cache hits never reach a shard and
	// are not counted).
	DetectCalls int64
}

// ShardStats snapshots the per-shard detector traffic and lifecycle state
// — the fan-out visibility knob for dashboards and the fairness tests.
func (s *ShardedSource) ShardStats() []ShardStat {
	t := s.topo.Load()
	out := make([]ShardStat, len(t.members))
	for i, mem := range t.members {
		out[i] = ShardStat{
			Shard:       i,
			Name:        mem.ds.Name(),
			Status:      t.snap.Status[i].String(),
			NumFrames:   mem.ds.NumFrames(),
			DetectCalls: mem.detects.Load(),
		}
	}
	return out
}

// scanSeconds charges a proxy-scoring pass over a global frame range at
// each overlapped shard's own scan throughput. Draining shards still
// charge — their data remains scannable.
func (s *ShardedSource) scanSeconds(start, end int64) float64 {
	t := s.topo.Load()
	m := t.snap.Map
	var total float64
	for i, mem := range t.members {
		off := m.Offset(i)
		lo, hi := max(start, off), min(end, off+m.ShardFrames(i))
		if hi > lo {
			total += mem.ds.cost.ScanSeconds(hi - lo)
		}
	}
	return total
}

// newDetector builds the fan-out detector: frames route to the owning
// shard's own batched detector — its attached Backend when one is
// configured, otherwise its simulated detector, behind the backend adapter
// with that shard's cost — and detections come back
// remapped into global coordinates. Per-shard detectors are built lazily
// per query, so a shard attached after the query started is served the
// moment a pick routes to it. This is where a ShardedSource routes each
// shard to its own endpoint: every shard keeps its own backend.
func (s *ShardedSource) newDetector(class string) detect.BatchDetector {
	return &shardedDetector{src: s, class: class}
}

// newExtender builds the discriminator's tracker model: a detection is
// extended by its owning shard's ground-truth tracker and the predicted
// track is translated back to global frames. Per-shard extenders are
// built lazily so detections from late-attached shards extend too.
func (s *ShardedSource) newExtender() (discrim.Extender, error) {
	return &shardedExtender{src: s}, nil
}

// newScorer builds the routed proxy scorer over the shards attached now:
// the proxy scan scores every frame once, at construction, and its order
// is frozen from then on. Shard 0 keeps the caller's seed unchanged so a
// 1-shard source scores byte-identically to its underlying dataset; later
// shards decorrelate their hash noise by slot, so a shard's scores do not
// depend on when it was attached.
func (s *ShardedSource) newScorer(class string, seed uint64) func(int64) float64 {
	t := s.topo.Load()
	scores := make([]func(int64) float64, len(t.members))
	for i, mem := range t.members {
		scores[i] = mem.ds.qs.newScorer(class, seed+uint64(i)*0x9e3779b97f4a7c15)
	}
	m := t.snap.Map
	return func(frame int64) float64 {
		sh, local := m.Locate(frame)
		return scores[sh](local)
	}
}

// shardedDetector routes batches of global frames to per-shard batched
// detectors and remaps detections (frame and truth id) into the global
// space. Each maximal run of consecutive same-shard frames goes to its
// shard as one DetectBatch call. Search, Session and the Engine all run
// the engine round, whose affinity grouping hands it one shard's frames
// per batch, so a batch is one run and one call. Output positions follow
// the input. DetectBatch is safe for concurrent use, like every shard
// detector it wraps. Each frame's cost comes from its owning shard's
// detector, so heterogeneous fleets are charged accurately.
//
// Per-shard detectors are built lazily under a mutex, which is what lets a
// query started before an AddShard route picks to the new shard without
// rebuilding its pipeline; frames of draining shards still resolve, so
// batches in flight across a drain finish normally.
type shardedDetector struct {
	src   *ShardedSource
	class string

	mu   sync.Mutex
	dets []detect.BatchDetector // slot-indexed, built on first use
}

// detector returns the slot's batched detector, building it on first use.
func (s *shardedDetector) detector(t *shardedTopo, slot int) detect.BatchDetector {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.dets) <= slot {
		s.dets = append(s.dets, nil)
	}
	if s.dets[slot] == nil {
		s.dets[slot] = t.members[slot].ds.newBatchDetector(s.class)
	}
	return s.dets[slot]
}

// DetectBatch implements detect.BatchDetector over the global frame space.
// The local frames live in the scratch's frame buffer, each run's outputs
// are appended to dst in place, and the batch's detections are remapped
// into one slab of their own.
func (s *shardedDetector) DetectBatch(ctx context.Context, global []int64, dst []detect.FrameOutput, scr *detect.Scratch) ([]detect.FrameOutput, error) {
	// One topology load per batch: the append-only address space means a
	// snapshot taken here stays valid however the topology moves while the
	// batch is in flight.
	t := s.src.topo.Load()
	m := t.snap.Map
	local := scr.Frames(len(global))
	base := len(dst)
	for start := 0; start < len(global); {
		sh, _ := m.Locate(global[start])
		end := start
		for ; end < len(global); end++ {
			owner, l := m.Locate(global[end])
			if owner != sh {
				break
			}
			local[end] = l
		}
		run := local[start:end]
		at := len(dst)
		var err error
		if dst, err = s.detector(t, sh).DetectBatch(ctx, run, dst, scr); err != nil {
			return nil, err
		}
		if got := len(dst) - at; got != len(run) {
			return nil, fmt.Errorf("exsample: shard %d returned %d results for a %d-frame batch", sh, got, len(run))
		}
		t.members[sh].detects.Add(int64(len(run)))
		start = end
	}
	// Remap the detections into global frame and truth-id space, copying
	// every frame's out of one slab sized for the batch: a shard backend may
	// share its output with other callers, so it is never written in place,
	// and a slab per batch keeps what a memo entry holding one frame's slice
	// retains to that batch's detections. A frame with no detections
	// reports nil.
	out := dst[base:]
	n := 0
	for i, fo := range out {
		if len(fo.Dets) == 0 {
			out[i].Dets = nil
		}
		n += len(fo.Dets)
	}
	if n == 0 {
		return dst, nil
	}
	slab := make([]track.Detection, 0, n)
	for i, fo := range out {
		if fo.Dets == nil {
			continue
		}
		sh, _ := m.Locate(global[i])
		k := len(slab)
		for _, d := range fo.Dets {
			d.Frame = m.Global(sh, d.Frame)
			d.TruthID = m.GlobalTruthID(sh, d.TruthID)
			slab = append(slab, d)
		}
		out[i].Dets = slab[k:len(slab):len(slab)]
	}
	return dst, nil
}

// shardedExtender routes detections to per-shard tracker models and
// translates the predicted tracks back into global frames. Extenders are
// built lazily by slot so detections on late-attached shards extend too.
type shardedExtender struct {
	src *ShardedSource

	mu   sync.Mutex
	exts []discrim.Extender
}

// extender returns the slot's tracker model, building it on first use.
func (s *shardedExtender) extender(t *shardedTopo, slot int) discrim.Extender {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.exts) <= slot {
		next := len(s.exts)
		ext, err := t.members[next].ds.qs.newExtender()
		if err != nil {
			// Unreachable: a dataset's extender always builds. Fall back to
			// the no-extension model rather than panicking mid-query.
			ext = discrim.FrameExtender{}
		}
		s.exts = append(s.exts, ext)
	}
	return s.exts[slot]
}

// Extend implements discrim.Extender over the global frame space.
func (s *shardedExtender) Extend(det track.Detection) discrim.PredictedTrack {
	t := s.src.topo.Load()
	m := t.snap.Map
	sh, local := m.Locate(det.Frame)
	ld := det
	ld.Frame = local
	ld.TruthID = m.LocalTruthID(sh, det.TruthID)
	tr := s.extender(t, sh).Extend(ld)
	tr.Start = m.Global(sh, tr.Start)
	tr.End = m.Global(sh, tr.End)
	return tr
}
