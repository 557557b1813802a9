// Package cachestore is the shared result tier: a pluggable, batched,
// context-aware store of detector outputs keyed by content-addressed
// (source content id, class, frame) triples.
//
// The per-engine memo cache (internal/cache) dies with its process and its
// keys — per-process source ids — mean nothing to anyone else. This package
// lifts the same memoization to a seam a fleet can share: keys hash the
// *content* of a source (profile, scale, generation seed, noise model), so
// they survive restarts and are identical across processes that opened the
// same video. A Store is the in-process L1 (Local, wrapping
// internal/cache) or a remote L2 (httpcache.Client, speaking the binary
// batch frame of backend/httpbatch's transport); a Tiered composes a Local
// L1 with an optional L2 behind one FetchBatch call, with write-through
// and singleflight dedupe.
//
// Values are []backend.Detection — the public wire type — so a remote store
// round-trips exactly what a remote detector would have produced, and a
// query served from the tier reports byte-identical results to one that
// paid for the inference. The in-process tiers hold and return those slices
// as they are, shared between every query and singleflight waiter that
// resolves the key: a stored or returned detection slice is read-only for
// both sides after the call.
package cachestore

import (
	"context"
	"fmt"

	"github.com/exsample/exsample/backend"
)

// Key identifies one detector invocation by content. Content is a stable
// hash of the source's construction inputs (two processes opening the same
// profile at the same scale and seed derive the same value — see the root
// package's content addressing), Class the detector head, Frame the global
// frame index.
//
// A key crosses the wire only in httpcache's binary frame, which carries no
// key version of its own: bump batchwire.Version when the key's binary form
// or the content-hash recipe feeding Content changes incompatibly. A server
// of the other version then answers 400, and a Tiered degrades that to a
// miss, so stale remote entries are never served.
type Key struct {
	Content uint64
	Class   string
	Frame   int64
}

// Entry is one key's lookup outcome. Found distinguishes a memoized empty
// result (Found true, Dets nil — a frame the detector saw and found
// nothing in) from an absent entry.
type Entry struct {
	Found bool
	Dets  []backend.Detection
}

// Store is the batched cache contract of a single tier. Both methods
// take the full batch in one call — the whole point of the tier is paying
// one round trip for a round's worth of frames — and honor ctx for
// cancellation and deadlines.
//
// GetBatch returns one Entry per key, aligned with keys. PutBatch stores
// vals[i] under keys[i]; storing nil is valid (a memoized "no detections").
// len(vals) must equal len(keys): a mismatch is a caller bug that would
// otherwise memoize "seen, nothing found" for the unpaired keys — permanent
// false negatives for everyone sharing the tier — so PutBatch returns an
// error and writes nothing.
//
// Detection slices are shared, not copied: after the call, neither side may
// modify a slice passed to PutBatch or returned (in an Entry) by GetBatch.
//
// Implementations must be safe for concurrent use; detector output is
// deterministic per key, so concurrent puts of the same key are benign.
type Store interface {
	GetBatch(ctx context.Context, keys []Key) ([]Entry, error)
	PutBatch(ctx context.Context, keys []Key, vals [][]backend.Detection) error
}

// checkPut enforces PutBatch's length contract for this package's stores.
func checkPut(keys []Key, vals [][]backend.Detection) error {
	if len(vals) != len(keys) {
		return fmt.Errorf("cachestore: PutBatch got %d values for %d keys", len(vals), len(keys))
	}
	return nil
}
