// Package baseline implements the comparison methods from §II-B and §V:
// sequential scanning, uniform random sampling, global random+, and the
// proxy-score approach representative of BlazeIt.
//
// The proxy approach trains a cheap model per query, scores every frame of
// the dataset in an upfront sequential scan (at io+decode throughput), and
// then runs the expensive detector on frames in descending score order. The
// paper's central observation (Table I) is that the scan alone often costs
// more than an entire ExSample query; the proxy model here is therefore a
// perfect one, ranking every frame that shows the class above every frame
// that does not: the strongest possible version of the baseline, whose scan
// cost dominates regardless.
package baseline

import (
	"fmt"
	"sort"

	"github.com/exsample/exsample/internal/track"
)

// ProxyScorer assigns each frame a score approximating "contains a relevant
// object". It is a perfect proxy: every frame showing the class scores above
// every frame that does not, and a seeded hash orders frames within each
// group.
type ProxyScorer struct {
	idx   *track.Index
	class string
	seed  uint64
}

// NewProxyScorer builds a scorer for one query class over ground truth.
func NewProxyScorer(idx *track.Index, class string, seed uint64) *ProxyScorer {
	return &ProxyScorer{idx: idx, class: class, seed: seed}
}

// Score returns the proxy score for a frame, in [0, 1+1e-6).
func (p *ProxyScorer) Score(frame int64) float64 {
	var truth float64
	var buf [4]*track.Instance
	var visible []*track.Instance
	if p.class == "" {
		visible = p.idx.At(frame, buf[:0])
	} else {
		visible = p.idx.AtClass(frame, p.class, buf[:0])
	}
	if len(visible) > 0 {
		truth = 1
	}
	return truth + hash01(p.seed, uint64(frame))*1e-6
}

func hash01(seed, a uint64) float64 {
	x := seed ^ (a * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// ProxyOrder emits frames in descending proxy score, after a full-dataset
// scoring pass. It implements video.FrameOrder. The scan cost is not part of
// the order itself — callers charge it via costmodel.ScanSeconds — but
// ScannedFrames records how much work the scan did.
type ProxyOrder struct {
	frames []int64
	pos    int
	// ScannedFrames is the number of frames the scoring pass touched
	// (always the full range).
	ScannedFrames int64
}

// NewProxyOrder scores every frame in [start, end) and prepares the
// descending-score order. score is any per-frame scoring function: a
// ProxyScorer's Score, or a sharded source's router to the owning shard's
// scorer.
func NewProxyOrder(score func(frame int64) float64, start, end int64) (*ProxyOrder, error) {
	if score == nil {
		return nil, fmt.Errorf("baseline: nil scorer")
	}
	if end <= start {
		return nil, fmt.Errorf("baseline: empty range [%d, %d)", start, end)
	}
	n := end - start
	type scored struct {
		frame int64
		score float64
	}
	all := make([]scored, n)
	for i := int64(0); i < n; i++ {
		f := start + i
		all[i] = scored{frame: f, score: score(f)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].frame < all[j].frame
	})
	frames := make([]int64, n)
	for i, s := range all {
		frames[i] = s.frame
	}
	return &ProxyOrder{frames: frames, ScannedFrames: n}, nil
}

// Next returns the next frame in proxy order.
func (p *ProxyOrder) Next() (int64, bool) {
	if p.pos >= len(p.frames) {
		return 0, false
	}
	f := p.frames[p.pos]
	p.pos++
	return f, true
}

// Remaining returns how many frames have not been emitted yet.
func (p *ProxyOrder) Remaining() int64 {
	return int64(len(p.frames) - p.pos)
}
