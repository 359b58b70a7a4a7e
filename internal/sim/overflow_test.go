package sim

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/mech"
	"repro/internal/stats"
	"repro/internal/trace"
)

// stallStub completes every request a fixed stall after it issues. It
// splits into pod views that do the same, so one stub drives both the
// serial and the pod-parallel replay.
type stallStub struct {
	stall clock.Duration
	pods  int
}

func (s *stallStub) Name() string { return "stall-stub" }
func (s *stallStub) Access(_ *trace.Decoded, _, at clock.Time, _ bool) clock.Time {
	return at + s.stall
}
func (s *stallStub) Stats() mech.MigStats { return mech.MigStats{} }
func (s *stallStub) Pods() int            { return s.pods }
func (s *stallStub) SplitPods(owner []int) []mech.PodView {
	views := make([]mech.PodView, slices.Max(owner)+1)
	for i := range views {
		views[i] = stubView{s}
	}
	return views
}
func (s *stallStub) JoinPods([]mech.PodView) {}
func (s *stallStub) ResetPods()              {}

type stubView struct{ *stallStub }

func (stubView) Finish(clock.Time) {}

// TestRunRejectsStallOverflow: a run whose stall sum leaves the int64
// femtosecond range fails with an error, serial and pod-parallel alike,
// instead of reporting a wrapped (negative) AMMAT. The partial Result
// holds the whole batches whose sum still fits.
func TestRunRejectsStallOverflow(t *testing.T) {
	// Every request stalls 1/400 of the range, so request 401 — in the
	// second batch — overflows.
	const stall = clock.Duration(math.MaxInt64 / 400)
	const n = 600
	b := newBackend()
	reqs := make([]trace.Request, n)
	for i := range reqs {
		// Alternate pods 0 and 1 (fast pages p live in pod p%8%4).
		reqs[i] = trace.Request{Addr: uint64(i%2) * 2048, Time: clock.Time(i)}
	}
	snap := trace.Record(trace.NewSliceStream(reqs), n)
	defer snap.Release()
	wantPartial := stats.Result{Workload: "w", Mechanism: "stall-stub",
		Requests: BatchSize, TotalStall: BatchSize * stall, Span: clock.Time(BatchSize-1) + stall}

	for _, c := range []struct {
		name   string
		shards int
		stream func() trace.Stream
	}{
		{"serial/SliceStream", 1, func() trace.Stream { return trace.NewSliceStream(reqs) }},
		{"serial/DecodedStream", 1, func() trace.Stream { return snap.DecodedStream(&b.Geom) }},
		// Each worker's 300 requests fit; their sum does not.
		{"pod-parallel", 2, func() trace.Stream { return snap.DecodedStream(&b.Geom) }},
	} {
		e := New(b, &stallStub{stall: stall, pods: 2})
		e.Window, e.Shards = -1, c.shards
		res, err := e.Run("w", c.stream())
		if err == nil || !strings.Contains(err.Error(), "overflow") {
			t.Errorf("%s: err = %v, want a stall-sum overflow (AMMAT %.3f ns)", c.name, err, res.AMMAT())
			continue
		}
		diffResults(t, c.name+" partial result", res, wantPartial)
	}

	// The same stub within range runs pod-parallel, so the leg above
	// reached the sum of the workers' results.
	e := New(b, &stallStub{stall: stall / 2, pods: 2})
	e.Window, e.Shards = -1, 2
	res, err := e.Run("w", snap.DecodedStream(&b.Geom))
	if err != nil || e.ParallelBlocks() != 2 || res.TotalStall != n*(stall/2) {
		t.Errorf("in range: err %v, %d workers, stall %v", err, e.ParallelBlocks(), res.TotalStall)
	}
}
