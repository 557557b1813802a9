package exsample

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/exsample/exsample/internal/engine"
)

// adapterSource is a small live source every submit entry point accepts:
// two elastic shards, so SubmitStanding has a topology to follow.
func adapterSource(t *testing.T) *ShardedSource {
	t.Helper()
	src, err := NewShardedSource("adapter", elasticShard(t, 2000, 31), elasticShard(t, 2000, 32))
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestSubmitAdapterMatrix: every submit entry point, with adaptive sizing
// off and on, hands the scheduler the one engineQuery — bare on the static
// path, so the scheduler's Sized probe fails and no clock is read, inside
// the one sizedQuery otherwise — and the static rows report byte-identically
// to the sequential driver of the same run.
func TestSubmitAdapterMatrix(t *testing.T) {
	const round = 4
	src := adapterSource(t)
	q := Query{Class: "car", Limit: 12}
	opts := Options{Seed: 5}
	wantReport, err := SearchSource(src, q, Options{Seed: opts.Seed, BatchSize: round})
	if err != nil {
		t.Fatal(err)
	}
	pred, topts := trackPred(), TrackOptions{Seed: 5}
	wantTracks, err := TrackSearch(src, pred, topts)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantReport.Results) == 0 || len(wantTracks.Results) == 0 {
		t.Fatalf("vacuous fixture: %d objects, %d tracks", len(wantReport.Results), len(wantTracks.Results))
	}
	query := func(submit func(*Engine, context.Context, Source, Query, Options) (*QueryHandle, error)) func(*Engine) (*handleCore, func() (any, error), error) {
		return func(e *Engine) (*handleCore, func() (any, error), error) {
			h, err := submit(e, context.Background(), src, q, opts)
			if err != nil {
				return nil, nil, err
			}
			return &h.handleCore, func() (any, error) { return h.Wait() }, nil
		}
	}
	entries := []struct {
		name     string
		standing bool
		want     any
		submit   func(*Engine) (*handleCore, func() (any, error), error)
	}{
		{"Submit", false, wantReport, query((*Engine).Submit)},
		{"SubmitStanding", true, wantReport, query((*Engine).SubmitStanding)},
		{"SubmitTrack", false, wantTracks, func(e *Engine) (*handleCore, func() (any, error), error) {
			h, err := e.SubmitTrack(context.Background(), src, pred, topts)
			if err != nil {
				return nil, nil, err
			}
			return &h.handleCore, func() (any, error) { return h.Wait() }, nil
		}},
	}
	for _, en := range entries {
		for _, adaptive := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/adaptive=%v", en.name, adaptive), func(t *testing.T) {
				e := newTestEngine(t, EngineOptions{Workers: 2, FramesPerRound: round, AdaptiveRounds: adaptive, EventBuffer: 1 << 14})
				core, wait, err := en.submit(e)
				if err != nil {
					t.Fatal(err)
				}
				got, err := wait()
				if err != nil {
					t.Fatal(err)
				}
				wantType := "*exsample.engineQuery"
				if adaptive {
					wantType = "*exsample.sizedQuery"
				}
				if gotType := fmt.Sprintf("%T", core.adapter); gotType != wantType {
					t.Fatalf("scheduler sees a %s, want %s", gotType, wantType)
				}
				if _, sized := core.adapter.(engine.Sized); sized != adaptive {
					t.Fatalf("adapter implements engine.Sized = %v with AdaptiveRounds = %v", sized, adaptive)
				}
				if st := core.adapter.(engine.Standing).StandingQuery(); st != en.standing {
					t.Fatalf("StandingQuery() = %v, want %v", st, en.standing)
				}
				if !adaptive && !reflect.DeepEqual(got, en.want) {
					t.Fatalf("static engine report diverged from the sequential driver:\nwant %+v\ngot  %+v", en.want, got)
				}
			})
		}
	}
}

// TestWaitSurfacesRunFailure: a pipeline failure the run latched on its own
// (a topology sync or sampler rebuild failing between rounds) reaches the
// scheduler only as "nothing to propose". Both handle types must still
// return it from Wait, and a standing query must be finalized rather than
// parked on it.
func TestWaitSurfacesRunFailure(t *testing.T) {
	boom := errors.New("pipeline rebuild failed")
	src := adapterSource(t)
	e := newTestEngine(t, EngineOptions{Workers: 2})
	for _, standing := range []bool{false, true} {
		t.Run(fmt.Sprintf("query/standing=%v", standing), func(t *testing.T) {
			run, err := newQueryRun(src, Query{Class: "car", Limit: 5}, Options{Seed: 1}, e.cacheCfg(), standing)
			if err != nil {
				t.Fatal(err)
			}
			run.err = boom
			h := &QueryHandle{rep: run.rep}
			run.out = &h.handleCore
			if err := e.submitRun(context.Background(), src, run, &h.handleCore, standing); err != nil {
				t.Fatal(err)
			}
			if _, err := h.Wait(); !errors.Is(err, boom) {
				t.Fatalf("Wait returned %v, want the run's failure", err)
			}
			if h.adapter.(engine.Standing).StandingQuery() {
				t.Fatal("a failed run still asks to be parked on an empty proposal")
			}
		})
	}
	t.Run("track", func(t *testing.T) {
		run, err := newTrackRun(src, trackPred(), TrackOptions{Seed: 1}, e.cacheCfg())
		if err != nil {
			t.Fatal(err)
		}
		run.err = boom
		h := &TrackHandle{rep: run.rep}
		run.out = &h.handleCore
		if err := e.submitRun(context.Background(), src, run, &h.handleCore, false); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(); !errors.Is(err, boom) {
			t.Fatalf("Wait returned %v, want the run's failure", err)
		}
	})
}
