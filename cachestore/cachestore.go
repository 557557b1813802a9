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
	"strconv"
	"strings"

	"github.com/exsample/exsample/backend"
)

// Key identifies one detector invocation by content. Content is a stable
// hash of the source's construction inputs (two processes opening the same
// profile at the same scale and seed derive the same value — see the root
// package's content addressing), Class the detector head, Frame the global
// frame index.
type Key struct {
	Content uint64
	Class   string
	Frame   int64
}

// keyVersion is the wire-format version prefix; bump it when the encoding
// (or the content-hash recipe feeding Key.Content) changes incompatibly, so
// stale remote entries miss instead of poisoning new readers. The binary
// frame's keys carry no prefix: bump batchwire.Version with it.
const keyVersion = "v1"

// Encode renders the key in its canonical wire form:
//
//	v1:<content as 16 lowercase hex digits>:<frame as decimal>:<class>
//
// The class is last and unescaped — it may contain any byte, including the
// separator — so DecodeKey splits on the first three colons only.
func (k Key) Encode() string {
	var b strings.Builder
	b.Grow(len(keyVersion) + 1 + 16 + 1 + 20 + 1 + len(k.Class))
	b.WriteString(keyVersion)
	b.WriteByte(':')
	var hexBuf [16]byte
	const digits = "0123456789abcdef"
	for i := 0; i < 16; i++ {
		hexBuf[i] = digits[(k.Content>>uint(60-4*i))&0xf]
	}
	b.Write(hexBuf[:])
	b.WriteByte(':')
	b.WriteString(strconv.FormatInt(k.Frame, 10))
	b.WriteByte(':')
	b.WriteString(k.Class)
	return b.String()
}

// DecodeKey parses a wire-form key. It accepts exactly the shape Encode
// produces: the v1 prefix, a 16-digit lowercase hex content hash, a
// non-negative decimal frame, and the class as the unvalidated remainder
// (which may be empty or contain further colons).
func DecodeKey(s string) (Key, error) {
	parts := strings.SplitN(s, ":", 4)
	if len(parts) != 4 {
		return Key{}, fmt.Errorf("cachestore: key %q: want 4 colon-separated fields, got %d", s, len(parts))
	}
	if parts[0] != keyVersion {
		return Key{}, fmt.Errorf("cachestore: key %q: unsupported version %q", s, parts[0])
	}
	if len(parts[1]) != 16 {
		return Key{}, fmt.Errorf("cachestore: key %q: content hash must be 16 hex digits, got %d", s, len(parts[1]))
	}
	if strings.ToLower(parts[1]) != parts[1] {
		return Key{}, fmt.Errorf("cachestore: key %q: content hash must be lowercase hex", s)
	}
	content, err := strconv.ParseUint(parts[1], 16, 64)
	if err != nil {
		return Key{}, fmt.Errorf("cachestore: key %q: bad content hash: %v", s, err)
	}
	frame, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return Key{}, fmt.Errorf("cachestore: key %q: bad frame: %v", s, err)
	}
	if frame < 0 {
		return Key{}, fmt.Errorf("cachestore: key %q: negative frame %d", s, frame)
	}
	// Reject non-canonical frame spellings ("+7", "007") so a key has
	// exactly one wire form and remote stores never hold aliased entries.
	if strconv.FormatInt(frame, 10) != parts[2] {
		return Key{}, fmt.Errorf("cachestore: key %q: non-canonical frame %q", s, parts[2])
	}
	return Key{Content: content, Class: parts[3], Frame: frame}, nil
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
