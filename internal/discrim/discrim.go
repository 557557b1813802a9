// Package discrim implements the paper's discriminator (§II-B): the
// component that decides whether a detection corresponds to an object
// already returned earlier in the query, so that distinct-object queries
// count each object once.
//
// The paper's discriminator applies a SORT-like tracker backwards and
// forwards through the video from each new detection, recording the object's
// predicted position in every frame where it is visible; later detections
// are discarded when they match a recorded position by IoU. Here the tracker
// is abstracted as an Extender: given a detection, it returns the predicted
// track (a frame interval with interpolated boxes). The simulation-backed
// extender reproduces a tracker of configurable quality over ground truth;
// a trivial extender covers only the detection's own frame.
//
// The discriminator also maintains per-object sighting counts, because
// ExSample's estimator needs d0 (detections matching nothing: new objects)
// and d1 (detections whose object had been seen exactly once before):
// Algorithm 1 updates N1[j] += len(d0) - len(d1).
//
// Matching a frame costs one walk of its bucket's object list (the objects
// whose track overlaps the frame's 1024-frame bucket), one interpolated box
// per track that covers the frame, and then, per detection, one scan of
// those boxes, where an overlap test rejects most of them before any IoU.
// Objects a detection creates join the frame's candidates for the later
// detections. So a frame of D detections over C covering tracks makes C
// interpolations and D·C box compares; on dense scenes the D·C term is
// what a spatial index over the frame's boxes would bound.
package discrim

import (
	"fmt"

	"github.com/exsample/exsample/internal/geom"
	"github.com/exsample/exsample/internal/track"
)

// PredictedTrack is the tracker's output for one discovered object: the
// frame interval over which the tracker could follow the object, with
// interpolated boxes.
type PredictedTrack struct {
	Start    int64
	End      int64
	StartBox geom.Box
	EndBox   geom.Box
}

// BoxAt returns the predicted box at a frame within the track (clamped).
// It is the one interpolation of a track; the discriminator calls it once
// per covering track per frame (see load), through a pointer so the track
// is not copied.
func (p *PredictedTrack) BoxAt(frame int64) geom.Box {
	if p.End <= p.Start {
		return p.StartBox
	}
	// The quotient of two integers with a positive divisor is finite and
	// never -0, so the builtin clamp equals the compare-and-assign one.
	return geom.Lerp(p.StartBox, p.EndBox,
		min(max(float64(frame-p.Start)/float64(p.End-p.Start), 0), 1))
}

// Covers reports whether the predicted track covers the frame.
func (p *PredictedTrack) Covers(frame int64) bool {
	return frame >= p.Start && frame <= p.End
}

// Extender runs the tracker forwards and backwards from a detection and
// returns the predicted track.
type Extender interface {
	Extend(det track.Detection) PredictedTrack
}

// Object is a distinct result registered by the discriminator.
type Object struct {
	// ID is the discriminator-assigned result id (0, 1, 2, ...).
	ID int
	// Class is the detection class.
	Class string
	// Track is the predicted visibility extent.
	Track PredictedTrack
	// Sightings counts how many detections have matched this object,
	// including the one that created it.
	Sightings int
	// FirstDetection is the detection that discovered the object.
	FirstDetection track.Detection
}

// Discriminator matches detections against previously discovered objects.
type Discriminator struct {
	iouThresh  float64
	extender   Extender
	objects    []*Object
	bucketSize int64
	// slab is the block new objects are carved from. Blocks grow from
	// minSlab to maxSlab objects, so a query that finds few objects
	// allocates little and one that finds many allocates once per maxSlab.
	slab []Object
	// buckets maps a frame bucket to the objects whose track overlaps it,
	// as a list threaded through links. Lists keep discovery order, which
	// match's tie-break follows, and adding an entry allocates only when
	// links or the map grows.
	buckets map[int64]bucket
	links   []link
	// newObjs and secondObjs are ObserveObjects' result buffers, reused by
	// every call.
	newObjs, secondObjs []*Object
	// spill holds the candidates of frames too dense for ObserveObjects'
	// stack buffer (see grow).
	spill []cand
	// interpolated counts the candidate boxes made so far: one per
	// covering track per frame.
	interpolated int
}

// cand is an object whose track covers the frame being matched, with its
// predicted box there.
type cand struct {
	obj *Object
	box geom.Box
}

// inlineCands is the length of ObserveObjects' stack buffer of candidates
// (2.5 KB). Frames of up to a few dozen covering tracks fit in it, so a
// query over such scenes allocates no candidate buffer; only denser frames
// spill (see grow).
const inlineCands = 64

// bucket is one frame bucket's object list: the first and last entries in
// links.
type bucket struct{ head, tail int32 }

// link is one bucket entry; next is the following entry's position in
// links, or -1 at the end of the list.
type link struct {
	obj  *Object
	next int32
}

// Object slab block sizes (see Discriminator.slab).
const (
	minSlab = 8
	maxSlab = 256
)

// DefaultIoUThreshold is the overlap needed for a detection to match a
// predicted position, the usual SORT/IoU-matching operating point.
const DefaultIoUThreshold = 0.5

// New creates a discriminator. iouThresh <= 0 selects
// DefaultIoUThreshold; above 1 or NaN it is an error, so the threshold is
// always in (0, 1].
func New(extender Extender, iouThresh float64) (*Discriminator, error) {
	if extender == nil {
		return nil, fmt.Errorf("discrim: nil extender")
	}
	if iouThresh <= 0 {
		iouThresh = DefaultIoUThreshold
	}
	if !(iouThresh <= 1) {
		return nil, fmt.Errorf("discrim: IoU threshold %v > 1", iouThresh)
	}
	return &Discriminator{
		iouThresh:  iouThresh,
		extender:   extender,
		bucketSize: 1 << 10,
		buckets:    make(map[int64]bucket),
	}, nil
}

// GetMatches classifies the frame's detections without mutating state
// (Algorithm 1, line 10): d0 are detections that match no known object (new
// objects); d1 are detections whose matched object had been seen exactly
// once before. Detections matching an object already seen twice or more fall
// into neither set.
func (d *Discriminator) GetMatches(frame int64, dets []track.Detection) (d0, d1 []track.Detection) {
	cands := d.load(frame, nil)
	for i := range dets {
		obj := d.match(cands, &dets[i])
		switch {
		case obj == nil:
			d0 = append(d0, dets[i])
		case obj.Sightings == 1:
			d1 = append(d1, dets[i])
		}
	}
	return d0, d1
}

// Add registers the frame's detections (Algorithm 1, line 13): matched
// detections bump their object's sighting count; unmatched detections create
// new objects via the tracker. It returns the newly created objects.
func (d *Discriminator) Add(frame int64, dets []track.Detection) []*Object {
	var created []*Object
	cands := d.load(frame, nil)
	for i := range dets {
		obj := d.match(cands, &dets[i])
		if obj != nil {
			obj.Sightings++
			continue
		}
		obj, cands = d.register(frame, dets[i], cands)
		created = append(created, obj)
	}
	return created
}

// Observe combines GetMatches and Add for the common sampler loop. d0 holds
// the detections that created new objects; d1 holds one entry per object
// that received its second sighting (reported as that object's discovering
// detection — callers of Observe only use the set sizes, per Algorithm 1
// line 11; use ObserveObjects for the full objects).
func (d *Discriminator) Observe(frame int64, dets []track.Detection) (d0, d1 []track.Detection) {
	newObjs, secondObjs := d.ObserveObjects(frame, dets)
	for _, o := range newObjs {
		d0 = append(d0, o.FirstDetection)
	}
	for _, o := range secondObjs {
		d1 = append(d1, o.FirstDetection)
	}
	return d0, d1
}

// ObserveObjects is Observe returning the affected objects instead of the
// raw detections: newObjs are the objects created by this frame (the d0
// set), secondObjs are the objects that received their second sighting (the
// d1 set). A query run builds its results from each new object's first
// detection without Observe's copies. Both slices are the discriminator's
// own buffers: they are valid only until the next ObserveObjects call, and
// a frame that creates no object allocates nothing.
func (d *Discriminator) ObserveObjects(frame int64, dets []track.Detection) (newObjs, secondObjs []*Object) {
	d.newObjs, d.secondObjs = d.newObjs[:0], d.secondObjs[:0]
	// A frame without detections needs no candidates, nor the buffer's
	// zeroing.
	if len(dets) == 0 {
		return d.newObjs, d.secondObjs
	}
	// A sparse frame's candidates stay in this buffer on the stack; a denser
	// one's move to d.spill (see grow).
	var buf [inlineCands]cand
	cands := d.load(frame, buf[:0])
	// Classify and register one detection at a time so that two detections
	// of the same new object within one frame are not both counted as new.
	for i := range dets {
		obj := d.match(cands, &dets[i])
		switch {
		case obj == nil:
			obj, cands = d.register(frame, dets[i], cands)
			d.newObjs = append(d.newObjs, obj)
		case obj.Sightings == 1:
			d.secondObjs = append(d.secondObjs, obj)
			obj.Sightings++
		default:
			obj.Sightings++
		}
	}
	return d.newObjs, d.secondObjs
}

// newObject registers an object for a detection that matched nothing: it is
// carved from the slab, extended by the tracker and indexed by bucket.
func (d *Discriminator) newObject(det track.Detection) *Object {
	if len(d.slab) == cap(d.slab) {
		d.slab = make([]Object, 0, min(max(2*cap(d.slab), minSlab), maxSlab))
	}
	d.slab = append(d.slab, Object{
		ID:             len(d.objects),
		Class:          det.Class,
		Track:          d.extender.Extend(det),
		Sightings:      1,
		FirstDetection: det,
	})
	obj := &d.slab[len(d.slab)-1]
	d.objects = append(d.objects, obj)
	d.indexObject(obj)
	return obj
}

// load appends the frame's candidates to cands and returns them: every
// known object whose track covers the frame, with its box there, in its
// bucket's order, which is discovery order. It is the frame's one bucket
// walk and one interpolation per covering track; match then scans the
// candidates once per detection.
func (d *Discriminator) load(frame int64, cands []cand) []cand {
	bk, ok := d.buckets[frame/d.bucketSize]
	if !ok {
		return cands
	}
	for e := bk.head; e >= 0; e = d.links[e].next {
		if obj := d.links[e].obj; obj.Track.Covers(frame) {
			if len(cands) == cap(cands) {
				cands = d.grow(cands)
			}
			d.interpolated++
			cands = append(cands, cand{obj: obj, box: obj.Track.BoxAt(frame)})
		}
	}
	return cands
}

// register creates the object of a detection that matched nothing. If its
// track covers the frame, it joins the frame's candidates for the later
// detections; indexObject put it at the tail of the frame's bucket, so the
// candidates stay in bucket order.
func (d *Discriminator) register(frame int64, det track.Detection, cands []cand) (*Object, []cand) {
	obj := d.newObject(det)
	if obj.Track.Covers(frame) {
		if len(cands) == cap(cands) {
			cands = d.grow(cands)
		}
		d.interpolated++
		cands = append(cands, cand{obj: obj, box: obj.Track.BoxAt(frame)})
	}
	return obj, cands
}

// grow moves full candidates to d.spill, which the discriminator keeps and
// doubles as needed, so a query allocates only when its densest frame so
// far outgrows it. grow never stores the buffer it is given, so
// ObserveObjects' stack buffer stays on the stack.
func (d *Discriminator) grow(cands []cand) []cand {
	if cap(d.spill) <= len(cands) {
		d.spill = make([]cand, 0, max(2*len(cands), inlineCands))
	}
	return append(d.spill[:0], cands...)
}

// match returns the candidate whose box best matches the detection (same
// class, IoU >= threshold), or nil; of equal IoUs the first discovered wins.
//
// It computes IoU only for candidates that can match, rejecting in order of
// cost: geom.Overlap of the boxes, then the class (the one test that
// follows a pointer to a string). The rejection is exact: New keeps the
// threshold in (0, 1], so an IoU of 0 never matches, and Overlap is false
// only where IoU is 0 (its contract), NaN coordinates included.
func (d *Discriminator) match(cands []cand, det *track.Detection) *Object {
	var best *Object
	bestIoU := 0.0
	for i := range cands {
		c := &cands[i]
		if !geom.Overlap(&c.box, &det.Box) || c.obj.Class != det.Class {
			continue
		}
		iou := geom.IoU(c.box, det.Box)
		if iou >= d.iouThresh && iou > bestIoU {
			best = c.obj
			bestIoU = iou
		}
	}
	return best
}

// indexObject appends the object to the list of every bucket its track
// overlaps.
func (d *Discriminator) indexObject(obj *Object) {
	for b := obj.Track.Start / d.bucketSize; b <= obj.Track.End/d.bucketSize; b++ {
		e := int32(len(d.links))
		d.links = append(d.links, link{obj: obj, next: -1})
		bk, ok := d.buckets[b]
		if ok {
			d.links[bk.tail].next = e
		} else {
			bk.head = e
		}
		bk.tail = e
		d.buckets[b] = bk
	}
}

// Objects returns all discovered objects in discovery order (shared slice;
// do not mutate).
func (d *Discriminator) Objects() []*Object { return d.objects }

// NumResults returns the number of distinct objects discovered so far.
func (d *Discriminator) NumResults() int { return len(d.objects) }
