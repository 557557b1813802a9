// Package track models ground-truth object instances in a video repository.
//
// A distinct object ("instance" in the paper's terminology) is visible for a
// contiguous interval of frames; its bounding box moves smoothly between a
// start and an end pose. The paper's distinct-object queries count each
// instance once no matter how many frames it is detected in (§II-B); the
// discriminator and the evaluation both need an efficient mapping from a
// frame index to the instances visible in that frame, which Index provides.
package track

import (
	"fmt"
	"sync"

	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/internal/geom"
)

// Instance is one distinct ground-truth object: a class label, a visibility
// interval [Start, End] in repository frame coordinates (inclusive on both
// ends), and interpolated box motion from StartBox to EndBox.
type Instance struct {
	ID       int
	Class    string
	Start    int64
	End      int64
	StartBox geom.Box
	EndBox   geom.Box
}

// Duration returns the number of frames the instance is visible in.
func (in Instance) Duration() int64 {
	if in.End < in.Start {
		return 0
	}
	return in.End - in.Start + 1
}

// VisibleAt reports whether the instance is visible in the given frame.
func (in Instance) VisibleAt(frame int64) bool {
	return frame >= in.Start && frame <= in.End
}

// BoxAt returns the instance's bounding box at the given frame, linearly
// interpolated between StartBox and EndBox. The frame must be within the
// visibility interval; callers should check VisibleAt first. Out-of-interval
// frames are clamped to the nearest endpoint.
func (in Instance) BoxAt(frame int64) geom.Box {
	if in.Duration() <= 1 {
		return in.StartBox
	}
	t := float64(frame-in.Start) / float64(in.End-in.Start)
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return geom.Lerp(in.StartBox, in.EndBox, t)
}

// Validate reports an error if the instance is malformed.
func (in Instance) Validate() error {
	if in.End < in.Start {
		return fmt.Errorf("track: instance %d has End %d < Start %d", in.ID, in.End, in.Start)
	}
	if in.Start < 0 {
		return fmt.Errorf("track: instance %d has negative Start %d", in.ID, in.Start)
	}
	if !in.StartBox.Valid() || !in.EndBox.Valid() {
		return fmt.Errorf("track: instance %d has an invalid box", in.ID)
	}
	if in.Class == "" {
		return fmt.Errorf("track: instance %d has empty class", in.ID)
	}
	return nil
}

// Index answers "which instances are visible in frame f?" in time
// proportional to the answer size. It buckets the frame axis; each bucket
// records the instances whose interval overlaps it.
type Index struct {
	instances  []Instance
	bucketSize int64
	buckets    [][]int32 // instance indices per bucket
	numFrames  int64

	// byID maps instance ids to positions in instances for Lookup. It is
	// built once, on first use, and stays nil when every instance's id is
	// its position.
	byIDOnce sync.Once
	byID     map[int]int32
}

// DefaultBucketSize is used when NewIndex is called with bucketSize <= 0.
const DefaultBucketSize = 1 << 10

// NewIndex builds an index over the given instances for a repository with
// numFrames frames. Instances extending beyond the repository are clipped to
// it. bucketSize <= 0 selects DefaultBucketSize.
func NewIndex(instances []Instance, numFrames int64, bucketSize int64) (*Index, error) {
	if numFrames <= 0 {
		return nil, fmt.Errorf("track: NewIndex requires numFrames > 0, got %d", numFrames)
	}
	if bucketSize <= 0 {
		bucketSize = DefaultBucketSize
	}
	for _, in := range instances {
		if err := in.Validate(); err != nil {
			return nil, err
		}
	}
	nb := (numFrames + bucketSize - 1) / bucketSize
	idx := &Index{
		instances:  instances,
		bucketSize: bucketSize,
		buckets:    make([][]int32, nb),
		numFrames:  numFrames,
	}
	for i, in := range instances {
		lo := in.Start
		hi := in.End
		if hi >= numFrames {
			hi = numFrames - 1
		}
		if lo >= numFrames || hi < 0 {
			continue // entirely outside the repository
		}
		for b := lo / bucketSize; b <= hi/bucketSize; b++ {
			idx.buckets[b] = append(idx.buckets[b], int32(i))
		}
	}
	return idx, nil
}

// At appends to dst the instances visible in the given frame and returns the
// extended slice. The entries point into the index's own table, which never
// changes, so a caller copies nothing; pass a reusable buffer to avoid
// allocation in hot loops. Out-of-range frames yield no instances.
func (x *Index) At(frame int64, dst []*Instance) []*Instance {
	if frame < 0 || frame >= x.numFrames {
		return dst
	}
	for _, i := range x.buckets[frame/x.bucketSize] {
		in := &x.instances[i]
		if in.VisibleAt(frame) {
			dst = append(dst, in)
		}
	}
	return dst
}

// AtClass is like At but keeps only instances of the given class.
func (x *Index) AtClass(frame int64, class string, dst []*Instance) []*Instance {
	if frame < 0 || frame >= x.numFrames {
		return dst
	}
	for _, i := range x.buckets[frame/x.bucketSize] {
		in := &x.instances[i]
		if in.Class == class && in.VisibleAt(frame) {
			dst = append(dst, in)
		}
	}
	return dst
}

// Lookup returns the instance with the given id; when several share it,
// the last one wins. The id lookup is built once per index, on the first
// call, so an index that is never asked pays nothing; when ids are
// positions, as the generators assign them, it needs no table at all.
func (x *Index) Lookup(id int) (Instance, bool) {
	x.byIDOnce.Do(x.buildByID)
	if x.byID == nil {
		if id < 0 || id >= len(x.instances) {
			return Instance{}, false
		}
		return x.instances[id], true
	}
	i, ok := x.byID[id]
	if !ok {
		return Instance{}, false
	}
	return x.instances[i], true
}

func (x *Index) buildByID() {
	dense := true
	for i, in := range x.instances {
		if in.ID != i {
			dense = false
			break
		}
	}
	if dense {
		return
	}
	x.byID = make(map[int]int32, len(x.instances))
	for i, in := range x.instances {
		x.byID[in.ID] = int32(i)
	}
}

// Instances returns the indexed instances (shared slice; do not mutate).
func (x *Index) Instances() []Instance { return x.instances }

// NumFrames returns the repository size the index was built for.
func (x *Index) NumFrames() int64 { return x.numFrames }

// CountByClass returns the number of distinct instances per class.
func CountByClass(instances []Instance) map[string]int {
	counts := make(map[string]int)
	for _, in := range instances {
		counts[in.Class]++
	}
	return counts
}

// FilterClass returns the instances of the given class, preserving order.
func FilterClass(instances []Instance, class string) []Instance {
	var out []Instance
	for _, in := range instances {
		if in.Class == class {
			out = append(out, in)
		}
	}
	return out
}

// Detection is the public backend.Detection: the pipeline, the caches and
// the Backend API share one detection type, so results cross them without
// conversion. TruthID is read only by the evaluation, to compute recall —
// the sampler and the discriminator never read it, mirroring the paper's
// setting where instance identity is unknown at query time.
type Detection = backend.Detection
