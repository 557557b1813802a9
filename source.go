package exsample

import (
	"errors"
	"sync/atomic"

	"github.com/exsample/exsample/internal/detect"
	"github.com/exsample/exsample/internal/discrim"
	"github.com/exsample/exsample/internal/shard"
	"github.com/exsample/exsample/internal/video"
)

// ErrNoActiveShards is returned (wrapped, with the source's name) when a
// bounded query is submitted against an elastic source whose every shard
// is draining or gated — there is nothing to sample and the query could
// never make progress. Match it with errors.Is. Standing queries are the
// exception: they park until the next append instead of failing.
var ErrNoActiveShards = errors.New("no active shards")

// Source is the seam between the query pipeline (Search, Session, Engine)
// and a video repository: a frame layout, a chunk layout, a detector
// factory and a cost model. A Source can be a single local Dataset or a
// ShardedSource composing many datasets into one global sampler space —
// the Thompson sampler, discriminator and report accounting are identical
// either way, which is what lets one Engine query fan its detector calls
// out across every shard's workers while the decision loop stays
// centralized and byte-deterministic.
//
// Source is implemented by Dataset and ShardedSource; the interface has an
// unexported method, so outside packages consume sources rather than
// providing them (the pipeline needs internal plumbing — ground-truth
// indexes, cost models — that only this package can wire).
type Source interface {
	// Name identifies the source.
	Name() string
	// NumFrames returns the repository size in frames (global space).
	NumFrames() int64
	// NumChunks returns the native chunk count.
	NumChunks() int
	// Hours returns the repository length in hours of video.
	Hours() float64
	// Classes lists the searchable object classes, sorted.
	Classes() []string
	// GroundTruthCount returns the number of distinct instances of a class.
	GroundTruthCount(class string) (int, error)
	// NumShards reports how many independently scannable shards back the
	// source (1 for a local Dataset).
	NumShards() int

	// querySource exposes the internal pipeline plumbing.
	querySource() *querySource
}

// sourceIDs hands out the unique per-source ids that key the detector
// memo cache.
var sourceIDs atomic.Uint64

// capacitySignaler is the structural contract a backend (the router)
// satisfies to feed capacity-loss events into the adaptive round sizer: a
// cumulative count of circuit-breaker open transitions. Matched by type
// assertion so the root package needs no dependency on backend/router.
type capacitySignaler interface {
	BreakerOpens() int64
}

// backendMaxBatch returns the sizer's quota ceiling for the source: the
// tightest positive MaxBatch across its backends, 0 (meaning "no bound,
// use the sizer default cap") when no backend reports one.
func (qs *querySource) backendMaxBatch() int {
	if qs.maxBatch == nil {
		return 0
	}
	return qs.maxBatch()
}

// querySource is the internal contract behind Source: everything the query
// pipeline needs from a repository, expressed in global frame coordinates.
type querySource struct {
	// id uniquely identifies this open source (cache key prefix).
	id uint64
	// contentID is the stable content address of the source: a hash of the
	// construction inputs that determine detector output (profile, scale,
	// generation seed, noise model; composed member hashes for sharded
	// sources). Two processes opening the same video derive the same value,
	// which is what lets shared-tier cache entries (cachestore) survive
	// restarts and cross process boundaries. For sharded sources the hash
	// composes the initial members in order; elastic attaches keep the id
	// (frames append past the existing space), so sharing the appended
	// range across processes is sound only when they attach the same shards
	// in the same order. Sources with custom
	// backends inherit the same determinism caveat as the memo cache: the
	// backend must be deterministic per (class, frame) for sharing to be
	// sound.
	contentID uint64
	name      string
	numFrames int64
	// fps is the recording rate used for hour-granularity stratification
	// (random+'s initial segmentation).
	fps float64
	// chunks is the native chunk layout.
	chunks []video.Chunk
	// numShards and shardOf expose the shard topology for the engine's
	// affinity grouping; shardOf is nil for unsharded sources.
	numShards int
	shardOf   func(frame int64) int
	// topology, when non-nil, returns the source's current elastic
	// topology snapshot (generation-counted, append-only address space).
	// The query pipeline compares generations at every pick: when the
	// topology moves, newly attached shards' chunks become fresh sampler
	// arms and draining shards' chunks are fenced, with all other belief
	// state carried across. nil means the topology is fixed for the
	// source's lifetime (a local Dataset).
	topology func() *shard.Snapshot
	// maxBatch, when non-nil, returns the tightest positive MaxBatch hint
	// across the source's backends (0 = no bound) — the adaptive round
	// sizer's quota ceiling. Consulted once per Submit.
	maxBatch func() int
	// breakerOpens, when non-nil, returns the cumulative count of circuit
	// breakers opened across the source's backends (0 when none reports
	// capacity). The adaptive sizer polls it once per round and treats any
	// increase as a capacity-loss event.
	breakerOpens func() int64

	// decodeCost is the charged random-read+decode time for one frame.
	decodeCost func(frame int64) float64
	// scanSeconds is the charged proxy-scoring time for a frame range.
	scanSeconds func(start, end int64) float64
	// groundTruth returns the distinct-instance population of a class.
	groundTruth func(class string) (int, error)
	// shardTruth returns one shard's population of a class (0 when the
	// shard lacks it). Non-nil only for elastic sources: the query
	// pipeline uses it to measure recall against the shards the query has
	// actually been able to reach — shards active at submission plus any
	// observed active at a later topology sync — so an attached shard
	// grows a running query's recall denominator the moment it becomes
	// samplable, while a shard attached and drained unseen changes
	// nothing.
	shardTruth func(class string, shard int) int
	// newDetector builds the per-class batched detector: the attached
	// public Backend, or the simulated detector as the default Backend,
	// behind the backend adapter.
	// DetectBatch must be safe for concurrent use.
	newDetector func(class string) detect.BatchDetector
	// newExtender builds the discriminator's SORT-style tracker model, the
	// paper's idealized tracker that recovers an object's full visible
	// extent.
	newExtender func() (discrim.Extender, error)
	// newScorer builds a perfect per-frame proxy scorer for the class.
	newScorer func(class string, seed uint64) func(frame int64) float64
}
