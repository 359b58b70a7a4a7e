package sim

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/cameo"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/hma"
	"repro/internal/mech"
	"repro/internal/memsys"
	"repro/internal/stats"
	"repro/internal/thm"
	"repro/internal/trace"
	"repro/internal/workload"
)

func newBackend() *mech.Backend {
	return mech.NewBackend(memsys.MustNew(addr.DefaultLayout(), dram.HBM(), dram.DDR4_1600()))
}

func TestRunStatic(t *testing.T) {
	b := newBackend()
	e := New(b, mech.NewStatic("TLM", b))
	w, _ := workload.Homogeneous("gcc")
	res, err := e.Run("gcc", w.MustStream(10000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 10000 {
		t.Fatalf("requests %d", res.Requests)
	}
	if res.AMMAT() <= 0 {
		t.Fatal("AMMAT not positive")
	}
	if res.FastAccesses+res.SlowAccesses != 10000 {
		t.Fatalf("service counts %d+%d != 10000", res.FastAccesses, res.SlowAccesses)
	}
	if res.Span <= 0 {
		t.Fatal("span not positive")
	}
}

func TestRunRejectsUnorderedTrace(t *testing.T) {
	b := newBackend()
	e := New(b, mech.NewStatic("TLM", b))
	reqs := []trace.Request{
		{Addr: 0, Time: 100 * clock.Nanosecond},
		{Addr: 64, Time: 50 * clock.Nanosecond},
	}
	if _, err := e.Run("bad", trace.NewSliceStream(reqs)); err == nil {
		t.Fatal("unordered trace accepted")
	}
}

// TestBatchedRejectsUnorderedTrace holds both batch sources to the same
// order-violation contract: a run over a plane-bound snapshot cursor and
// a run over a plain SliceStream fail with the same error text, and the
// requests before the violation are still accounted, so the partial
// Results are identical.
func TestBatchedRejectsUnorderedTrace(t *testing.T) {
	w, err := workload.Mix(5)
	if err != nil {
		t.Fatal(err)
	}
	reqs := trace.Collect(w.MustStream(1000, 11))
	// Corrupt one timestamp mid-stream so the violation lands inside a
	// batch, after two complete ones.
	reqs[700].Time = reqs[699].Time - 1
	snap := trace.Record(trace.NewSliceStream(reqs), len(reqs))
	defer snap.Release()

	runWith := func(decoded bool) (stats.Result, error) {
		b := newBackend()
		e := New(b, mustBuild(t, core.New, core.DefaultConfig(), b))
		var s trace.Stream = trace.NewSliceStream(reqs)
		if decoded {
			s = snap.DecodedStream(&b.Geom)
		}
		return e.Run(w.Name, s)
	}
	sliceRes, sliceErr := runWith(false)
	decRes, decErr := runWith(true)
	if sliceErr == nil || decErr == nil {
		t.Fatalf("unordered trace accepted (SliceStream err %v, DecodedStream err %v)", sliceErr, decErr)
	}
	if decErr.Error() != sliceErr.Error() {
		t.Errorf("error diverged:\nSliceStream:   %v\nDecodedStream: %v", sliceErr, decErr)
	}
	if sliceRes.Requests != 700 {
		t.Errorf("SliceStream run accounted %d requests before the violation, want 700", sliceRes.Requests)
	}
	diffResults(t, "partial result DecodedStream vs SliceStream", decRes, sliceRes)
}

func TestWindowGatesIssue(t *testing.T) {
	// With a window of 1, back-to-back requests serialize even when their
	// trace timestamps coincide.
	mkTrace := func() trace.Stream {
		reqs := make([]trace.Request, 64)
		for i := range reqs {
			reqs[i] = trace.Request{Addr: uint64(i) * 2048 * 8, Time: 0}
		}
		return trace.NewSliceStream(reqs)
	}
	b1 := newBackend()
	e1 := New(b1, mech.NewStatic("TLM", b1))
	e1.Window = 1
	narrow := e1.MustRun("w", mkTrace())

	b2 := newBackend()
	e2 := New(b2, mech.NewStatic("TLM", b2))
	e2.Window = -1 // unlimited
	wide := e2.MustRun("w", mkTrace())

	if narrow.TotalStall <= wide.TotalStall {
		t.Errorf("window=1 stall %v not greater than unlimited %v",
			narrow.TotalStall, wide.TotalStall)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() stats.Result {
		b := newBackend()
		e := New(b, mustBuild(t, core.New, core.DefaultConfig(), b))
		w, _ := workload.Mix(5)
		return e.MustRun("mix5", w.MustStream(30000, 7))
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("runs differ:\n%+v\n%+v", a, b)
	}
}

// The headline sanity check (Figure 8's shape): on a hot-set workload,
// HBM-only is fastest and MemPod beats no-migration; on a streaming
// workload, CAMEO's swap-per-access event trigger degrades it below the
// no-migration baseline.
func TestMechanismOrderingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("integration smoke test")
	}
	const n = 120000

	runWith := func(w workload.Workload, build func(t testing.TB, b *mech.Backend) mech.Mechanism) stats.Result {
		b := newBackend()
		e := New(b, build(t, b))
		return e.MustRun(w.Name, w.MustStream(n, 42))
	}

	hotset, _ := workload.Homogeneous("cactus")
	tlm := runWith(hotset, func(t testing.TB, b *mech.Backend) mech.Mechanism { return mech.NewStatic("TLM", b) })
	mp := runWith(hotset, func(t testing.TB, b *mech.Backend) mech.Mechanism {
		return mustBuild(t, core.New, core.DefaultConfig(), b)
	})

	hbmLayout := addr.Layout{FastBytes: 9 << 30, FastChannels: 8, NumPods: 4}
	hb := mech.NewBackend(memsys.MustNew(hbmLayout, dram.HBM(), dram.DDR4_1600()))
	hbm := New(hb, mech.NewStatic("HBM-only", hb)).MustRun("cactus", hotset.MustStream(n, 42))

	stream, _ := workload.Homogeneous("bwaves")
	tlmS := runWith(stream, func(t testing.TB, b *mech.Backend) mech.Mechanism { return mech.NewStatic("TLM", b) })
	camS := runWith(stream, func(t testing.TB, b *mech.Backend) mech.Mechanism {
		return mustBuild(t, cameo.New, cameo.DefaultConfig(), b)
	})

	t.Logf("cactus AMMAT ns: HBM %.2f, MemPod %.2f, TLM %.2f; bwaves: TLM %.2f, CAMEO %.2f",
		hbm.AMMAT(), mp.AMMAT(), tlm.AMMAT(), tlmS.AMMAT(), camS.AMMAT())

	if !(hbm.AMMAT() < tlm.AMMAT()) {
		t.Errorf("HBM-only (%.2f) not faster than TLM (%.2f)", hbm.AMMAT(), tlm.AMMAT())
	}
	if !(mp.AMMAT() < tlm.AMMAT()) {
		t.Errorf("MemPod (%.2f) not faster than no-migration TLM (%.2f)", mp.AMMAT(), tlm.AMMAT())
	}
	if !(camS.AMMAT() > tlmS.AMMAT()) {
		t.Errorf("CAMEO on streaming (%.2f) not slower than TLM (%.2f)", camS.AMMAT(), tlmS.AMMAT())
	}
}

func TestBaselineMechanismsRunCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const n = 40000
	w, _ := workload.Mix(1)

	builders := []func(t testing.TB, b *mech.Backend) mech.Mechanism{
		func(t testing.TB, b *mech.Backend) mech.Mechanism { return mech.NewStatic("TLM", b) },
		func(t testing.TB, b *mech.Backend) mech.Mechanism {
			return mustBuild(t, core.New, core.DefaultConfig(), b)
		},
		func(t testing.TB, b *mech.Backend) mech.Mechanism {
			return mustBuild(t, thm.New, thm.DefaultConfig(), b)
		},
		func(t testing.TB, b *mech.Backend) mech.Mechanism {
			return mustBuild(t, cameo.New, cameo.DefaultConfig(), b)
		},
		func(t testing.TB, b *mech.Backend) mech.Mechanism {
			cfg := hma.DefaultConfig()
			cfg.Interval = 500 * clock.Microsecond
			cfg.SortStall = 35 * clock.Microsecond
			return mustBuild(t, hma.New, cfg, b)
		},
	}
	for _, build := range builders {
		b := newBackend()
		m := build(t, b)
		res, err := New(b, m).Run("mix1", w.MustStream(n, 11))
		if err != nil {
			t.Errorf("%s: %v", m.Name(), err)
			continue
		}
		if res.Requests != n || res.AMMAT() <= 0 {
			t.Errorf("%s: bad result %+v", m.Name(), res)
		}
	}
}

// TestTwoRunsEqualOneRun replays a mix5 snapshot in two Runs on one
// engine, the first half through a plain stream and the second half from
// the snapshot cursor with Shards 2, and holds them to one whole-trace
// Run for every mechanism. The engine's touch filter must carry over
// between the Runs, as a mechanism's state does, and the second Run must
// stay serial: its mechanism and memory system are no longer untouched.
// The window is unlimited, so the ring, which each Run starts empty,
// gates nothing. The Requests, TotalStall and Span of the halves combine
// to the whole run's; the mechanism and memory counters cover the whole
// trace, so the second Result must carry the whole run's.
func TestTwoRunsEqualOneRun(t *testing.T) {
	const n = 20_000
	w, heap, _ := paritySnapshots(t, n)
	for _, mc := range mechanisms {
		t.Run(mc.name, func(t *testing.T) {
			b := newBackend()
			m := mc.build(t, b)
			defer mech.Release(m)
			e := New(b, m)
			e.Window = -1
			ss := heap.DecodedStream(&b.Geom)
			first, err := e.Run(w.Name, trace.NewLimitStream(ss, n/2))
			if err != nil {
				t.Fatal(err)
			}
			if ss.Pos() != n/2 {
				t.Fatalf("first Run left the cursor at %d, want %d", ss.Pos(), n/2)
			}
			e.Shards = 2
			second, err := e.Run(w.Name, ss)
			if err != nil {
				t.Fatal(err)
			}
			if e.ParallelBlocks() != 0 {
				t.Fatalf("second Run split a used mechanism over %d workers", e.ParallelBlocks())
			}

			wb := newBackend()
			wm := mc.build(t, wb)
			defer mech.Release(wm)
			we := New(wb, wm)
			we.Window, we.Shards = -1, 1
			whole, err := we.Run(w.Name, heap.DecodedStream(&wb.Geom))
			if err != nil {
				t.Fatal(err)
			}

			got := second
			got.Requests += first.Requests
			got.TotalStall += first.TotalStall
			got.Span = max(first.Span, second.Span)
			diffResults(t, "two Runs vs one", got, whole)
		})
	}
}
