// Package core implements the paper's primary contribution: the ExSample
// chunk-based adaptive sampler (Algorithm 1).
//
// The repository is partitioned into M chunks. For each chunk j the sampler
// tracks n[j], the number of frames sampled from the chunk, and N1[j], the
// (signed) count of result objects currently seen exactly once whose
// sightings bookkeeping is charged to the chunk. The estimate of the number
// of new results the next sample from chunk j will produce is
//
//	R̂_j = N1[j] / n[j]                            (Eq. III.1)
//
// and the belief distribution accounting for estimate uncertainty is
//
//	R_j ~ Gamma(alpha = N1[j]+α0, beta = n[j]+β0)  (Eq. III.4)
//
// Thompson sampling samples a frame from the chunk whose belief draw is
// largest (§III-C); the (α0, β0) prior keeps the belief well-defined when
// N1 = 0 and lets chunks recover from early bad luck.
//
// Arms with the same (max(N1, 0), n) hold the same belief, so they are
// exchangeable, and the sampler keeps its drawable arms in groups by that
// key. The largest of k independent Gamma(α, β) draws has CDF F(x)^k, so a
// group can draw its maximum once, at the inverse upper tail
// Q(α, βx) = 1 - U^(1/k), and hand the win to a uniform member: the
// arg-max has exactly the distribution of one draw per arm. That maximum
// exceeds a score b iff k·log P(α, βb) < log U, so Thompson compares a
// large group with the running best by one log-CDF, and inverts the tail
// only for a group that leads when a later group must be compared with its
// value. Most arms of a many-chunk query sit in a few such groups (three
// quarters still at the prior after a few hundred picks), so a decision
// costs a draw per small group member and a log-CDF per large group, not a
// draw per chunk. Which is cheaper depends on the group's size;
// thompsonCrossover records where the measured costs of the two cross.
package core

import (
	"fmt"
	"math"

	"github.com/exsample/exsample/internal/stats"
	"github.com/exsample/exsample/internal/video"
	"github.com/exsample/exsample/internal/xrand"
)

// Policy selects how chunk scores are derived from the per-chunk beliefs.
type Policy int

const (
	// Thompson draws a random sample from each chunk's Gamma belief
	// (Eq. III.4) and picks the arg max. This is the paper's method.
	Thompson Policy = iota
	// BayesUCB scores each chunk by an upper quantile of its Gamma belief,
	// the alternative the paper reports behaves indistinguishably (§III-C).
	BayesUCB
	// Greedy uses the raw point estimate N1/n with random tie-breaking. The
	// paper warns this gets stuck on early lucky chunks (§III-B); it exists
	// for the ablation benchmarks.
	Greedy
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Thompson:
		return "thompson"
	case BayesUCB:
		return "bayes-ucb"
	case Greedy:
		return "greedy"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// WithinChunk selects the without-replacement frame order inside a chunk.
type WithinChunk int

const (
	// WithinRandomPlus stratifies samples inside the chunk (random+,
	// §III-F), the paper's default for ExSample.
	WithinRandomPlus WithinChunk = iota
	// WithinUniform samples uniformly without replacement.
	WithinUniform
)

// String returns the order name.
func (w WithinChunk) String() string {
	switch w {
	case WithinRandomPlus:
		return "random+"
	case WithinUniform:
		return "uniform"
	default:
		return fmt.Sprintf("within(%d)", int(w))
	}
}

// Config parameterizes a Sampler.
type Config struct {
	// Alpha0 and Beta0 are the belief prior (Eq. III.4). The paper uses
	// α0 = 0.1 and β0 = 1 and reports weak sensitivity to the choice.
	// Zero values select those defaults.
	Alpha0 float64
	Beta0  float64
	// Policy is the chunk-selection policy (default Thompson).
	Policy Policy
	// Within is the frame order inside a chunk (default random+).
	Within WithinChunk
	// Seed drives all sampler randomness; runs with the same seed, chunks
	// and update sequence are identical.
	Seed uint64
}

// DefaultAlpha0 and DefaultBeta0 are the paper's prior (§III-C).
const (
	DefaultAlpha0 = 0.1
	DefaultBeta0  = 1.0
)

func (c Config) withDefaults() Config {
	if c.Alpha0 == 0 {
		c.Alpha0 = DefaultAlpha0
	}
	if c.Beta0 == 0 {
		c.Beta0 = DefaultBeta0
	}
	return c
}

// Validate reports an error for out-of-range parameters.
func (c Config) Validate() error {
	// The Gamma sampler's rejection loop never accepts a NaN or infinite
	// shape, so a non-finite prior would hang the first draw.
	if !(c.Alpha0 >= 0 && c.Beta0 >= 0) || math.IsInf(c.Alpha0, 1) || math.IsInf(c.Beta0, 1) {
		return fmt.Errorf("core: negative prior (alpha0=%v beta0=%v)", c.Alpha0, c.Beta0)
	}
	switch c.Policy {
	case Thompson, BayesUCB, Greedy:
	default:
		return fmt.Errorf("core: unknown policy %d", int(c.Policy))
	}
	switch c.Within {
	case WithinRandomPlus, WithinUniform:
	default:
		return fmt.Errorf("core: unknown within-chunk order %d", int(c.Within))
	}
	return nil
}

// Pick is one sampling decision: the frame to process and the chunk it was
// drawn from. Updates must be reported against the same chunk.
type Pick struct {
	Frame int64
	Chunk int
}

// Sampler is the ExSample decision loop state. It owns which frame to look
// at next; the caller owns running the detector and discriminator and must
// feed the resulting (d0, d1) sizes back via Update.
type Sampler struct {
	cfg    Config
	chunks []video.Chunk
	orders []video.FrameOrder
	arms   []arm
	total  int64 // total frames sampled across chunks
	rng    *xrand.RNG
	// rpSlab backs lazily opened random+ orders in blocks, so the cold
	// chunk opens of a many-armed sampler amortize to ~1 allocation per
	// slab instead of several per chunk.
	rpSlab []video.RandomPlusOrder

	// The drawable arms (enabled, frames left) grouped by belief key.
	// groups holds the slots in the order Next visits them; a free slot has
	// size 0 and its head links the next free slot after free. index maps
	// a key to its slot.
	groups []group
	free   int32
	index  []int32

	// inversions counts the group maxima Thompson has inverted
	// (stats.GammaQInv), the work its probability-space comparison saves.
	inversions int64
}

// arm is one chunk's statistics and its place among the exchangeable arms.
type arm struct {
	n1, n int64 // N1 (signed) and the frames sampled
	// disabled marks arms fenced by an elastic topology change (a draining
	// shard's chunks): Next never scores or draws from them — crucially,
	// a disabled arm belongs to no group, so it consumes no randomness and
	// the remaining arms' pick sequence is exactly what it would be if the
	// arm had never existed. Update still accepts disabled arms, so
	// in-flight picks apply cleanly.
	disabled   bool
	group      int32 // slot of the arm's group, -1 while not drawable
	prev, next int32 // neighbouring members, -1 at the ends
}

// group is a set of exchangeable arms: every member has belief key
// (max(N1, 0), n), the only inputs of alphaBeta.
type group struct {
	n1, n       int64   // the key
	alpha, beta float64 // its belief, as alphaBeta computes it
	head, tail  int32   // member list ends, -1 if none
	size        int32   // member count
	// logU is the log of the uniform a Thompson scan draws this group's
	// maximum at, kept from the scan's draws to its comparisons.
	logU float64
}

// rpSlabSize is the random+ order slab block size; 64 keeps a block around
// 16 KiB while amortizing the cold-open allocation well below one per
// decision.
const rpSlabSize = 64

// thompsonCrossover is the group size from which Thompson scores a group
// once, by a uniform for its maximum, instead of one Gamma per member. A
// scan then pays one log-CDF per large group (a uniform, a log and
// stats.LogGammaP), and an upper-tail inversion (stats.GammaQInv) only for
// a leading group that a later group must be compared with: 0.05–0.5 per
// pick at 64–1000 chunks, against one per large group before. On a 2-core
// Xeon the log-CDF costs 85–115 ns at the prior shape α0 = 0.1, where a
// draw takes the boost branch and costs about 68 ns, and 125–185 ns at
// shapes above 1, where a draw costs 16–19 ns; an inversion costs 1.2 µs
// and 0.55–0.8 µs. So the two now break even near 2–4 members below shape
// 1 and near 9 above it, below the 20 set when every large group was
// inverted. The constant stays: a different one changes which draws a scan
// makes, and with them every report.
const thompsonCrossover = 20

// New creates a sampler over the given chunks. Chunks must be non-empty and
// non-overlapping; they are the sampler's arms.
func New(chunks []video.Chunk, cfg Config) (*Sampler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if len(chunks) == 0 {
		return nil, fmt.Errorf("core: no chunks")
	}
	for i, c := range chunks {
		if c.Len() <= 0 {
			return nil, fmt.Errorf("core: chunk %d is empty", i)
		}
	}
	s := &Sampler{cfg: cfg, rng: xrand.New(cfg.Seed), free: -1}
	s.grow(chunks)
	return s, nil
}

// Append adds new arms for chunks that joined the repository after the
// sampler was built (an elastic shard attach). New arms start at the belief
// prior, exactly as if they had been present from the start with no
// samples; existing arms' statistics, frame orders and — because each
// chunk's within-chunk order derives from (Seed, chunk id), not the shared
// policy RNG — their future frame draws are unaffected. Chunk ids continue
// the existing numbering: the i-th appended chunk becomes arm
// NumChunks()+i, so callers indexing arms by global chunk id stay aligned.
func (s *Sampler) Append(chunks []video.Chunk) error {
	for i, c := range chunks {
		if c.Len() <= 0 {
			return fmt.Errorf("core: appended chunk %d is empty", i)
		}
	}
	s.grow(chunks)
	return nil
}

// grow adds arms at the prior and puts them in their group, last first so
// the group's member list reads in chunk order.
func (s *Sampler) grow(chunks []video.Chunk) {
	old := len(s.chunks)
	s.chunks = append(s.chunks, chunks...)
	s.orders = append(s.orders, make([]video.FrameOrder, len(chunks))...)
	s.arms = append(s.arms, make([]arm, len(chunks))...)
	// The table stays at most half full: there are never more groups than
	// drawable arms.
	if size := len(s.index); size < 2*len(s.chunks) {
		for size < 2*len(s.chunks) {
			size = max(2*size, 16)
		}
		s.index = make([]int32, size)
		for g := range s.groups {
			if s.groups[g].size > 0 {
				s.index[s.probe(s.groups[g].n1, s.groups[g].n)] = int32(g) + 1
			}
		}
	}
	if s.groups == nil {
		// Growing from nil would reallocate four times on the way to 16.
		s.groups = make([]group, 0, 16)
	}
	for j := len(s.chunks) - 1; j >= old; j-- {
		s.join(j)
	}
}

// SetEnabled fences or re-admits an arm. A disabled arm is invisible to
// Next — not scored (so it consumes no policy randomness) and never drawn
// from — but keeps its statistics and continues to accept Update for
// picks already in flight. This is the sampler half of draining a shard:
// the shard's chunks are fenced while the belief state of every other
// chunk carries on untouched. Setting an arm to the state it is already
// in does nothing.
func (s *Sampler) SetEnabled(chunk int, enabled bool) error {
	if chunk < 0 || chunk >= len(s.chunks) {
		return fmt.Errorf("core: chunk %d out of range [0, %d)", chunk, len(s.chunks))
	}
	if s.arms[chunk].disabled == !enabled {
		return nil
	}
	s.arms[chunk].disabled = !enabled
	if !enabled {
		s.leave(chunk)
	} else if o := s.orders[chunk]; o == nil || o.Remaining() > 0 {
		s.join(chunk)
	}
	return nil
}

// order lazily builds the within-chunk frame order for chunk j.
func (s *Sampler) order(j int) (video.FrameOrder, error) {
	if s.orders[j] != nil {
		return s.orders[j], nil
	}
	c := s.chunks[j]
	var (
		o   video.FrameOrder
		err error
	)
	switch s.cfg.Within {
	case WithinUniform:
		o, err = video.NewUniformOrder(c.Start, c.End, xrand.NewFrom(s.cfg.Seed, uint64(j)+1))
	default:
		// Random+ (the default) opens in place into the order slab: the
		// (Seed, chunk id) stream derivation is identical to handing
		// NewRandomPlusOrder a fresh xrand.NewFrom generator, but the open
		// itself is amortized allocation-free.
		if len(s.rpSlab) == 0 {
			s.rpSlab = make([]video.RandomPlusOrder, rpSlabSize)
		}
		rp := &s.rpSlab[0]
		s.rpSlab = s.rpSlab[1:]
		err = rp.Init(c.Start, c.End, 0, s.cfg.Seed, uint64(j)+1)
		o = rp
	}
	if err != nil {
		return nil, err
	}
	s.orders[j] = o
	return o, nil
}

// alphaBeta returns the belief parameters for chunk j. Per-chunk N1 can go
// negative when an object discovered in one chunk is re-sighted from
// another (the -1 of the update lands on the re-sighting chunk), so alpha is
// floored at the prior to keep the Gamma well-defined; the technical report
// describes the same adjustment for instances spanning chunks. The floor
// makes max(N1, 0) and n the only inputs, the key arms are grouped by.
func (s *Sampler) alphaBeta(j int) (alpha, beta float64) {
	return s.belief(max(s.arms[j].n1, 0), s.arms[j].n)
}

// belief is alphaBeta for the key (n1, n), n1 >= 0.
func (s *Sampler) belief(n1, n int64) (alpha, beta float64) {
	alpha = float64(n1) + s.cfg.Alpha0
	if alpha <= 0 {
		alpha = 1e-9 // alpha0 = 0 with no positive results yet
	}
	beta = float64(n) + s.cfg.Beta0
	if beta <= 0 {
		beta = 1e-9
	}
	return alpha, beta
}

// Next returns the next frame to process: the Thompson (or alternative
// policy) choice of chunk, and a frame drawn from that chunk's
// without-replacement order. Disabled arms are skipped without being
// scored. ok is false when every enabled chunk is exhausted.
//
// Next scores groups of exchangeable arms (see the package doc), visiting
// them in slot order:
//   - Thompson draws one Gamma per member of a group smaller than
//     thompsonCrossover, and for a larger group draws the group's maximum
//     once and, if it wins, a uniform member — the same arg-max
//     distribution as one draw per arm.
//   - BayesUCB computes one upper quantile per group and takes the
//     lowest-index member of the best group; equal scores go to the lowest
//     index, so the pick is the per-arm rule's first strict maximum.
//   - Greedy picks uniformly among the arms tied at the best point
//     estimate.
func (s *Sampler) Next() (Pick, bool) {
	for {
		best := s.choose()
		if best < 0 {
			return Pick{}, false
		}
		o, err := s.order(best)
		if err != nil {
			return Pick{}, false
		}
		frame, ok := o.Next()
		if !ok || o.Remaining() == 0 {
			s.leave(best)
		}
		if ok {
			return Pick{Frame: frame, Chunk: best}, true
		}
	}
}

// choose runs the policy over the groups and returns the chosen arm, or -1
// when no arm is drawable.
func (s *Sampler) choose() int {
	if s.cfg.Policy == Thompson {
		return s.thompson()
	}
	best, score := -1, 0.0
	level := 1 - 1/float64(s.total+2) // BayesUCB
	for gi := range s.groups {
		g := &s.groups[gi]
		if g.size == 0 {
			continue
		}
		if sc := s.groupScore(g, level); best < 0 || s.beats(gi, sc, best, score) {
			best, score = gi, sc
		}
	}
	switch {
	case best < 0:
		return -1
	case s.cfg.Policy == BayesUCB:
		return s.lowest(best)
	default:
		return s.tiedMember(score)
	}
}

// thompson is choose under Thompson sampling. Its result and its use of
// the RNG are those of one scan in slot order that scores each member of a
// small group by a Gamma draw and each large group by its maximum, and
// keeps the first strict maximum. It runs in two phases:
//   - the draws: one Gamma per small-group member, keeping the best, and
//     one uniform per large group, kept as its logU;
//   - the comparisons: each large group in slot order against the lead, in
//     probability space (above). A group that takes the lead is not
//     inverted; the score it beat bounds its maximum from below, and a
//     later group that does not pass that bound loses. Only one that does
//     needs the leader's exact maximum, so a lone large group, such as a
//     fresh query's prior group, is never inverted.
func (s *Sampler) thompson() int {
	best, b := -1, 0.0
	for gi := range s.groups {
		g := &s.groups[gi]
		if g.size == 0 {
			continue
		}
		if g.size < thompsonCrossover {
			for j := g.head; j >= 0; j = s.arms[j].next {
				if x := s.rng.Gamma(g.alpha, g.beta); best < 0 || x > b {
					best, b = int(j), x
				}
			}
			continue
		}
		u := s.rng.Float64()
		for u == 0 {
			u = s.rng.Float64()
		}
		g.logU = math.Log(u)
	}
	// lead is the leading large group, or -1 while arm best (or nothing)
	// leads; b is the lead's score, exact or, while bound, a lower bound on
	// the leading group's maximum.
	lead, bound := -1, false
	for gi := range s.groups {
		g := &s.groups[gi]
		if g.size < thompsonCrossover || !above(g, b) {
			continue
		}
		if bound {
			if b = s.groupMax(&s.groups[lead]); !above(g, b) {
				bound = false
				continue
			}
		}
		lead, bound = gi, true
	}
	if lead < 0 {
		return best
	}
	return s.member(lead, s.rng.IntN(int(s.groups[lead].size)))
}

// above reports whether large group g's maximum exceeds score b >= 0. The
// maximum of size draws has CDF P(α, βx)^size and is drawn at the uniform
// e^logU, so it exceeds b exactly when P(α, βb)^size < e^logU.
func above(g *group, b float64) bool {
	return float64(g.size)*stats.LogGammaP(g.alpha, g.beta*b) < g.logU
}

// groupMax returns large group g's maximum: the point where the upper
// tail Q(α, βx) = 1 - U^(1/size).
func (s *Sampler) groupMax(g *group) float64 {
	s.inversions++
	// GammaQInv rejects only a tail outside (0, 1) or a shape that is not
	// positive, and U in (0, 1) with α > 0 gives neither.
	x, _ := stats.GammaQInv(g.alpha, -math.Expm1(g.logU/float64(g.size)))
	return x / g.beta
}

// groupScore scores a whole group once under BayesUCB or Greedy.
func (s *Sampler) groupScore(g *group, level float64) float64 {
	if s.cfg.Policy == Greedy {
		return g.alpha / g.beta
	}
	// Quantile level 1 - 1/(t+1) grows with total samples t, the schedule
	// from Kaufmann's Bayes-UCB (§III-C reference [18]).
	q, err := stats.GammaQuantile(level, g.alpha, g.beta)
	if err != nil {
		// Extremely defensive: fall back to the mean.
		return g.alpha / g.beta
	}
	return q
}

// beats reports whether group gi scoring sc displaces the leading group
// lead scoring score: a higher score wins; an equal one wins only under
// BayesUCB with a lower index, so its pick is the per-arm scan's first
// strict maximum. (Greedy spreads its ties after the scan.)
func (s *Sampler) beats(gi int, sc float64, lead int, score float64) bool {
	if sc != score || s.cfg.Policy != BayesUCB {
		return sc > score
	}
	return s.lowest(gi) < s.lowest(lead)
}

// tiedMember returns a uniform arm among the groups whose Greedy score (the
// point estimate) equals score.
func (s *Sampler) tiedMember(score float64) int {
	n := 0
	for gi := range s.groups {
		if g := &s.groups[gi]; g.size > 0 && g.alpha/g.beta == score {
			n += int(g.size)
		}
	}
	m := s.rng.IntN(n)
	for gi := range s.groups {
		if g := &s.groups[gi]; g.size > 0 && g.alpha/g.beta == score {
			if m < int(g.size) {
				return s.member(gi, m)
			}
			m -= int(g.size)
		}
	}
	return -1
}

// member returns group gi's m-th member in list order, walking from the
// nearer end.
func (s *Sampler) member(gi, m int) int {
	g := &s.groups[gi]
	if back := int(g.size) - 1 - m; back < m {
		j := g.tail
		for ; back > 0; back-- {
			j = s.arms[j].prev
		}
		return int(j)
	}
	j := g.head
	for ; m > 0; m-- {
		j = s.arms[j].next
	}
	return int(j)
}

// lowest returns group gi's lowest-index member.
func (s *Sampler) lowest(gi int) int {
	best := -1
	for j := s.groups[gi].head; j >= 0; j = s.arms[j].next {
		if best < 0 || int(j) < best {
			best = int(j)
		}
	}
	return best
}

// join adds drawable arm j to the group of its key.
func (s *Sampler) join(j int) {
	a := &s.arms[j]
	gi := s.slot(max(a.n1, 0), a.n)
	g := &s.groups[gi]
	a.group, a.prev, a.next = gi, -1, g.head
	if g.head >= 0 {
		s.arms[g.head].prev = int32(j)
	} else {
		g.tail = int32(j)
	}
	g.head = int32(j)
	g.size++
}

// leave takes arm j out of its group, if it is in one, and frees the group
// when it empties.
func (s *Sampler) leave(j int) {
	a := &s.arms[j]
	gi := a.group
	if gi < 0 {
		return
	}
	g := &s.groups[gi]
	if a.prev >= 0 {
		s.arms[a.prev].next = a.next
	} else {
		g.head = a.next
	}
	if a.next >= 0 {
		s.arms[a.next].prev = a.prev
	} else {
		g.tail = a.prev
	}
	a.group = -1
	if g.size--; g.size == 0 {
		s.unindex(g.n1, g.n)
		g.head, s.free = s.free, gi
	}
}

// rekey moves arm j to the group of its key after its statistics changed;
// an arm that is not drawable stays out of every group.
func (s *Sampler) rekey(j int) {
	if a := &s.arms[j]; a.group >= 0 {
		if g := &s.groups[a.group]; g.n1 != max(a.n1, 0) || g.n != a.n {
			s.leave(j)
			s.join(j)
		}
	}
}

// slot returns the slot of the group keyed (n1, n), opening one (a free
// slot first) when the key has no group.
func (s *Sampler) slot(n1, n int64) int32 {
	i := s.probe(n1, n)
	if s.index[i] != 0 {
		return s.index[i] - 1
	}
	gi := s.free
	if gi >= 0 {
		s.free = s.groups[gi].head
	} else {
		gi = int32(len(s.groups))
		s.groups = append(s.groups, group{})
	}
	alpha, beta := s.belief(n1, n)
	s.groups[gi] = group{n1: n1, n: n, alpha: alpha, beta: beta, head: -1, tail: -1}
	s.index[i] = gi + 1
	return gi
}

// The key index is open addressing with linear probing over slot+1 (0 is
// empty). Deletion shifts the rest of the probe run back instead of leaving
// tombstones, so churn never degrades or regrows the table.

// probe returns the table position holding key (n1, n), or the empty
// position where it belongs.
func (s *Sampler) probe(n1, n int64) int {
	mask := len(s.index) - 1
	i := keyHash(n1, n) & mask
	for ; s.index[i] != 0; i = (i + 1) & mask {
		if g := &s.groups[s.index[i]-1]; g.n1 == n1 && g.n == n {
			break
		}
	}
	return i
}

// unindex removes key (n1, n) from the table.
func (s *Sampler) unindex(n1, n int64) {
	mask := len(s.index) - 1
	i := s.probe(n1, n)
	for j := (i + 1) & mask; s.index[j] != 0; j = (j + 1) & mask {
		g := &s.groups[s.index[j]-1]
		// The entry at j may fill the hole at i unless its home position
		// lies cyclically in (i, j].
		if (j-keyHash(g.n1, g.n))&mask >= (j-i)&mask {
			s.index[i] = s.index[j]
			i = j
		}
	}
	s.index[i] = 0
}

// keyHash mixes a group key into a table position seed.
func keyHash(n1, n int64) int {
	h := uint64(n1)*0x9e3779b97f4a7c15 ^ uint64(n)*0xc2b2ae3d27d4eb4f
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	return int(h >> 1)
}

// Update feeds back the discriminator's classification of the detections
// found in a frame sampled from the given chunk: d0 = detections that
// matched no previous result (new objects), d1 = detections whose object had
// been seen exactly once before (Algorithm 1, lines 11–12).
func (s *Sampler) Update(chunk int, d0, d1 int) error {
	if chunk < 0 || chunk >= len(s.chunks) {
		return fmt.Errorf("core: chunk %d out of range [0, %d)", chunk, len(s.chunks))
	}
	if d0 < 0 || d1 < 0 {
		return fmt.Errorf("core: negative counts d0=%d d1=%d", d0, d1)
	}
	s.arms[chunk].n1 += int64(d0) - int64(d1)
	s.arms[chunk].n++
	s.total++
	s.rekey(chunk)
	return nil
}

// Stats returns chunk j's current (N1, n).
func (s *Sampler) Stats(j int) (n1, n int64) { return s.arms[j].n1, s.arms[j].n }

// PointEstimate returns the prior-smoothed point estimate
// (N1+α0)/(n+β0) for chunk j.
func (s *Sampler) PointEstimate(j int) float64 {
	alpha, beta := s.alphaBeta(j)
	return alpha / beta
}

// MaxPointEstimate returns the largest prior-smoothed point estimate
// (N1+α0)/(n+β0) across arms the sampler can still draw from — enabled
// chunks with frames remaining (an unopened chunk counts as having frames,
// matching Next). Because the next pick comes from the arg-max belief, this
// is the sampler's expected new results from its next frame: the marginal
// value a cross-query scheduler compares when dividing a global detector
// budget. A fresh or just-woken sampler reports the prior α0/β0; an
// exhausted one reports 0. It reads one estimate per group of exchangeable
// arms, not one per arm, and allocates nothing.
func (s *Sampler) MaxPointEstimate() float64 {
	best := 0.0
	for gi := range s.groups {
		if g := &s.groups[gi]; g.size > 0 && g.alpha/g.beta > best {
			best = g.alpha / g.beta
		}
	}
	return best
}

// NumChunks returns the number of arms.
func (s *Sampler) NumChunks() int { return len(s.chunks) }

// Chunks returns the chunk layout (copy-on-construction slice; do not
// mutate).
func (s *Sampler) Chunks() []video.Chunk { return s.chunks }

// Allocation returns the fraction of samples taken from each chunk, the
// de-facto weight vector the sampler has converged to (§IV-A). It
// allocates a fresh slice per call; decision-loop callers that poll it per
// round should use AllocationInto with a reused buffer instead.
func (s *Sampler) Allocation() []float64 {
	return s.AllocationInto(nil)
}

// AllocationInto is Allocation writing into dst, growing it only when its
// capacity is short — the reusable-scores-buffer shape the steady-state
// engine uses so per-round stats polling stays allocation-free.
func (s *Sampler) AllocationInto(dst []float64) []float64 {
	if cap(dst) < len(s.arms) {
		dst = make([]float64, len(s.arms))
	}
	dst = dst[:len(s.arms)]
	if s.total == 0 {
		for j := range dst {
			dst[j] = 0
		}
		return dst
	}
	for j := range s.arms {
		dst[j] = float64(s.arms[j].n) / float64(s.total)
	}
	return dst
}
