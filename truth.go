package exsample

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/exsample/exsample/internal/datasets"
	"github.com/exsample/exsample/internal/geom"
	"github.com/exsample/exsample/internal/track"
	"github.com/exsample/exsample/internal/video"
)

// GroundTruthFile is the JSON interchange format for dataset ground truth,
// the one SaveGroundTruth and cmd/exgen write. It carries only what the evaluation
// needs — instance identities, classes and visibility intervals; bounding
// boxes are reassigned deterministically on load (spatially disjoint lanes),
// which preserves distinct-object semantics without bloating the file.
type GroundTruthFile struct {
	Dataset   string                `json:"dataset"`
	Scale     float64               `json:"scale,omitempty"`
	NumFrames int64                 `json:"num_frames"`
	NumChunks int                   `json:"num_chunks"`
	FPS       float64               `json:"fps,omitempty"`
	Instances []GroundTruthInstance `json:"instances"`
}

// GroundTruthInstance is one distinct object in the interchange format.
type GroundTruthInstance struct {
	ID    int    `json:"id"`
	Class string `json:"class"`
	Start int64  `json:"start_frame"`
	End   int64  `json:"end_frame"`
}

// SaveGroundTruth writes the dataset's ground truth as JSON.
func (d *Dataset) SaveGroundTruth(w io.Writer) error {
	doc := GroundTruthFile{
		Dataset:   d.Name(),
		Scale:     d.inner.Scale,
		NumFrames: d.NumFrames(),
		NumChunks: d.NumChunks(),
		FPS:       d.inner.Profile.FPS,
	}
	for _, in := range d.inner.Instances {
		doc.Instances = append(doc.Instances, GroundTruthInstance{
			ID: in.ID, Class: in.Class, Start: in.Start, End: in.End,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// LoadGroundTruth builds a searchable dataset from a ground-truth JSON
// document (e.g. one produced by SaveGroundTruth or cmd/exgen, or
// hand-written from real annotations). The repository is chunked evenly into
// NumChunks pieces.
func LoadGroundTruth(r io.Reader, opts ...DatasetOption) (*Dataset, error) {
	var doc GroundTruthFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("exsample: parsing ground truth: %w", err)
	}
	if doc.NumFrames <= 0 {
		return nil, fmt.Errorf("exsample: ground truth has %d frames", doc.NumFrames)
	}
	if len(doc.Instances) == 0 {
		return nil, fmt.Errorf("exsample: ground truth has no instances")
	}
	if doc.NumChunks <= 0 {
		doc.NumChunks = 64
	}
	if doc.FPS <= 0 {
		doc.FPS = 30
	}
	if doc.Dataset == "" {
		doc.Dataset = "imported"
	}

	instances := make([]track.Instance, 0, len(doc.Instances))
	seen := make(map[int]bool, len(doc.Instances))
	classes := make(map[string]int)
	meanDur := make(map[string]float64)
	for i, gi := range doc.Instances {
		if seen[gi.ID] {
			return nil, fmt.Errorf("exsample: duplicate instance id %d", gi.ID)
		}
		seen[gi.ID] = true
		in := track.Instance{
			ID:       gi.ID,
			Class:    gi.Class,
			Start:    gi.Start,
			End:      gi.End,
			StartBox: loadLaneBox(i, 0),
			EndBox:   loadLaneBox(i, 1),
		}
		if err := in.Validate(); err != nil {
			return nil, fmt.Errorf("exsample: instance %d: %w", gi.ID, err)
		}
		if in.Start >= doc.NumFrames {
			return nil, fmt.Errorf("exsample: instance %d starts at %d beyond %d frames",
				gi.ID, in.Start, doc.NumFrames)
		}
		instances = append(instances, in)
		classes[gi.Class]++
		meanDur[gi.Class] += float64(in.Duration())
	}
	idx, err := track.NewIndex(instances, doc.NumFrames, 0)
	if err != nil {
		return nil, err
	}
	repo, err := video.NewRepository(doc.FPS, doc.NumFrames)
	if err != nil {
		return nil, err
	}
	chunks, err := repo.ChunkEvenly(doc.NumChunks)
	if err != nil {
		return nil, err
	}

	// Synthesize a profile so introspection (Classes, query specs) works.
	var queries []datasets.QuerySpec
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		queries = append(queries, datasets.QuerySpec{
			Class:        c,
			NumInstances: classes[c],
			MeanDuration: meanDur[c] / float64(classes[c]),
		})
	}
	scale := doc.Scale
	if scale <= 0 {
		scale = 1
	}
	inner := &datasets.Dataset{
		Profile: datasets.Profile{
			Name:      doc.Dataset,
			NumFrames: doc.NumFrames,
			FPS:       doc.FPS,
			Queries:   queries,
		},
		Scale:        scale,
		Repo:         repo,
		Chunks:       chunks,
		Instances:    instances,
		Index:        idx,
		CountByClass: classes,
	}
	return newDataset(inner, 1, opts...), nil
}

// loadLaneBox mirrors the synthetic generator's disjoint-lane placement so
// imported instances never collide spatially.
func loadLaneBox(ord int, phase int) geom.Box {
	const (
		lanes      = 997
		laneHeight = 130
		baseSize   = 60
	)
	lane := ord % lanes
	x := 100 + float64((ord*7919)%1200)
	y := float64(lane) * laneHeight
	size := baseSize + float64(ord%5)*10
	drift := 40.0 * float64(phase)
	return geom.Rect(x+drift, y, size, size*1.2)
}
