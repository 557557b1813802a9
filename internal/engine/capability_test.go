package engine

import (
	"fmt"
	"testing"
)

// capBase is the bare five-method query: it proposes consecutive frames up
// to whatever quota it is offered (recording the offer) until told it is
// dry, and records how many DetectBatch groups each round split into.
type capBase struct {
	offered  []int
	groups   int
	observed int
	dry      bool
	buf      []int64
}

func (b *capBase) Done() bool { return false }
func (b *capBase) Propose(max int) []int64 {
	b.offered = append(b.offered, max)
	b.buf = b.buf[:0]
	for i := 0; !b.dry && i < max; i++ {
		b.buf = append(b.buf, int64(i))
	}
	return b.buf
}
func (b *capBase) DetectBatch(frames []int64) ([]any, error) {
	b.groups++
	return make([]any, len(frames)), nil
}
func (b *capBase) Apply(int64, any) (bool, error) { return false, nil }
func (b *capBase) Finalize()                      {}

// The four refinements as mixins, so a fake for any subset is one struct
// embedding the base and exactly the mixins it should implement.
type (
	capSized    struct{ b *capBase }
	capValued   struct{}
	capAffine   struct{}
	capStanding struct{}
)

const (
	capSizedQuota = 7   // vs the engines' FramesPerRound of 4
	capValue      = 3.0 // vs the neutral 1 of a query that is not Valued
)

func (s capSized) RoundQuota(int) int                { return capSizedQuota }
func (s capSized) ObserveBatch(uint64, int, float64) { s.b.observed++ }
func (capValued) MarginalValue() float64             { return capValue }
func (capAffine) AffinityKey(frame int64) uint64     { return uint64(frame) % 2 }
func (capStanding) StandingQuery() bool              { return true }

const (
	hasSized = 1 << iota
	hasValued
	hasAffine
	hasStanding
)

// newCapFake builds a query whose dynamic type implements exactly the
// refinements in mask.
func newCapFake(mask int) (Query, *capBase) {
	b := &capBase{}
	s, v, a, st := capSized{b}, capValued{}, capAffine{}, capStanding{}
	var q Query
	switch mask {
	case 0:
		q = b
	case hasSized:
		q = struct {
			*capBase
			capSized
		}{b, s}
	case hasValued:
		q = struct {
			*capBase
			capValued
		}{b, v}
	case hasSized | hasValued:
		q = struct {
			*capBase
			capSized
			capValued
		}{b, s, v}
	case hasAffine:
		q = struct {
			*capBase
			capAffine
		}{b, a}
	case hasSized | hasAffine:
		q = struct {
			*capBase
			capSized
			capAffine
		}{b, s, a}
	case hasValued | hasAffine:
		q = struct {
			*capBase
			capValued
			capAffine
		}{b, v, a}
	case hasSized | hasValued | hasAffine:
		q = struct {
			*capBase
			capSized
			capValued
			capAffine
		}{b, s, v, a}
	case hasStanding:
		q = struct {
			*capBase
			capStanding
		}{b, st}
	case hasSized | hasStanding:
		q = struct {
			*capBase
			capSized
			capStanding
		}{b, s, st}
	case hasValued | hasStanding:
		q = struct {
			*capBase
			capValued
			capStanding
		}{b, v, st}
	case hasSized | hasValued | hasStanding:
		q = struct {
			*capBase
			capSized
			capValued
			capStanding
		}{b, s, v, st}
	case hasAffine | hasStanding:
		q = struct {
			*capBase
			capAffine
			capStanding
		}{b, a, st}
	case hasSized | hasAffine | hasStanding:
		q = struct {
			*capBase
			capSized
			capAffine
			capStanding
		}{b, s, a, st}
	case hasValued | hasAffine | hasStanding:
		q = struct {
			*capBase
			capValued
			capAffine
			capStanding
		}{b, v, a, st}
	case hasSized | hasValued | hasAffine | hasStanding:
		q = struct {
			*capBase
			capSized
			capValued
			capAffine
			capStanding
		}{b, s, v, a, st}
	}
	return q, b
}

// TestCapabilitiesResolvedAtSubmit: for every subset of the four optional
// refinements (the empty one being the bare five-method Query), Submit
// records exactly that subset on the Handle, and the scheduler honours
// exactly it: where the quota comes from, whether a round's frames are
// grouped, whether an empty proposal parks or exhausts, and how the global
// budget weighs the query.
func TestCapabilitiesResolvedAtSubmit(t *testing.T) {
	manual := func(cfg Config) *Engine {
		e := newEngine(cfg)
		t.Cleanup(func() {
			close(e.loopDone) // the loop goroutine never started
			e.Close()
		})
		return e
	}
	for mask := 0; mask < 1<<4; mask++ {
		sized, valued := mask&hasSized != 0, mask&hasValued != 0
		affine, standing := mask&hasAffine != 0, mask&hasStanding != 0
		name := fmt.Sprintf("sized=%v,valued=%v,affine=%v,standing=%v", sized, valued, affine, standing)
		t.Run(name, func(t *testing.T) {
			// Fair-share engine: quota source, grouping, park vs exhaust.
			q, b := newCapFake(mask)
			e := manual(Config{Workers: 1, FramesPerRound: 4})
			h, err := e.Submit(q)
			if err != nil {
				t.Fatal(err)
			}
			if got := [4]bool{h.sized != nil, h.valued != nil, h.affine != nil, h.standing != nil}; got != [4]bool{sized, valued, affine, standing} {
				t.Fatalf("Submit resolved {sized, valued, affine, standing} = %v", got)
			}
			e.runOneRound()
			wantQuota, wantGroups, wantObserved := 4, 1, 0
			if sized {
				wantQuota = capSizedQuota
			}
			if affine {
				wantGroups = 2
			}
			if sized {
				wantObserved = wantGroups
			}
			if b.offered[0] != wantQuota || b.groups != wantGroups || b.observed != wantObserved {
				t.Fatalf("round offered %d frames in %d groups with %d observations, want %d/%d/%d",
					b.offered[0], b.groups, b.observed, wantQuota, wantGroups, wantObserved)
			}
			b.dry = true
			e.runOneRound()
			if parked := h.Parked(); parked != standing {
				t.Fatalf("empty proposal parked = %v, want %v", parked, standing)
			}
			if wantReason := map[bool]Reason{true: ReasonNone, false: ReasonExhausted}[standing]; h.Reason() != wantReason {
				t.Fatalf("empty proposal left reason %v, want %v", h.Reason(), wantReason)
			}

			// Budgeted engine, next to a bare query (cap 4, neutral value
			// 1): floors of 1 each leave 4 of the 6 to split by value —
			// 2:2 for a neutral query, 3:1 for one valued at 3.
			q, b = newCapFake(mask)
			e = manual(Config{Workers: 1, FramesPerRound: 4, GlobalBudget: 6})
			if _, err := e.Submit(q); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Submit(&capBase{}); err != nil {
				t.Fatal(err)
			}
			e.runOneRound()
			wantGrant := 3
			if valued {
				wantGrant = 4
			}
			if b.offered[0] != wantGrant {
				t.Fatalf("budget granted %d frames, want %d", b.offered[0], wantGrant)
			}
		})
	}
}
