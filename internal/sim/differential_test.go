package sim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cameo"
	"repro/internal/core"
	"repro/internal/hma"
	"repro/internal/mech"
	"repro/internal/migrant"
	"repro/internal/stats"
	"repro/internal/thm"
	"repro/internal/trace"
	"repro/internal/workload"
)

// mechCase names a mechanism and builds it fresh over a backend.
type mechCase struct {
	name  string
	build func(t testing.TB, b *mech.Backend) mech.Mechanism
}

// mustBuild constructs a mechanism through its package's New and fails
// the test on error.
func mustBuild[C any, M mech.Mechanism](t testing.TB, newMech func(C, *mech.Backend) (M, error), cfg C, b *mech.Backend) M {
	t.Helper()
	m, err := newMech(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// mechanisms is the full set under test, each built fresh over its own
// backend so runs share nothing.
var mechanisms = []mechCase{
	{"MemPod", func(t testing.TB, b *mech.Backend) mech.Mechanism {
		return mustBuild(t, core.New, core.DefaultConfig(), b)
	}},
	{"MemPod-FC", func(t testing.TB, b *mech.Backend) mech.Mechanism {
		cfg := core.DefaultConfig()
		cfg.UseFullCounters = true
		return mustBuild(t, core.New, cfg, b)
	}},
	{"HMA", func(t testing.TB, b *mech.Backend) mech.Mechanism {
		return mustBuild(t, hma.New, hma.DefaultConfig(), b)
	}},
	{"THM", func(t testing.TB, b *mech.Backend) mech.Mechanism {
		return mustBuild(t, thm.New, thm.DefaultConfig(), b)
	}},
	{"CAMEO", func(t testing.TB, b *mech.Backend) mech.Mechanism {
		return mustBuild(t, cameo.New, cameo.DefaultConfig(), b)
	}},
	{"Migrant", func(t testing.TB, b *mech.Backend) mech.Mechanism {
		return mustBuild(t, migrant.New, migrant.DefaultConfig(), b)
	}},
	{"Static", func(t testing.TB, b *mech.Backend) mech.Mechanism { return mech.NewStatic("TLM", b) }},
}

// memPodCache is MemPod with the bookkeeping cache on, which the
// paper-default config leaves off: a cache miss chains a bookkeeping read
// into the demand's issue time, the one MemPod shape whose decoded path
// does more than skip the address decomposition.
var memPodCache = mechCase{"MemPod-cache", func(t testing.TB, b *mech.Backend) mech.Mechanism {
	cfg := core.DefaultConfig()
	cfg.CacheBytes = 1 << 16
	return mustBuild(t, core.New, cfg, b)
}}

// diffResults compares two Results field-by-field via reflection so a
// divergence names the exact field, not just "structs differ".
func diffResults(t *testing.T, label string, got, want stats.Result) {
	t.Helper()
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		f := gv.Type().Field(i)
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("%s: Result.%s = %v, want %v", label, f.Name, gv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
}

// TestBatchedEngineBitIdentical drives every mechanism (plus the
// bookkeeping-cache MemPod variant) over a mixed workload four ways — a
// plain SliceStream (batches filled through Next, decoded by the engine),
// a bare snapshot cursor (Stream), a cursor with the plane bound
// (DecodedStream) and a replay of the on-disk snapshot — and requires
// field-identical Results. The engine reads each snapshot cursor's time
// column and predecode plane under its own geometry, whatever the cursor
// has bound. Each runs at the default window, at window 32 (interval
// boundaries land mid-batch with gating active) and unlimited (no
// gating). The batch sources differ only in where the decode comes from,
// never in what the mechanism sees.
func TestBatchedEngineBitIdentical(t *testing.T) {
	const n = 60_000
	w, err := workload.Mix(5)
	if err != nil {
		t.Fatal(err)
	}
	reqs := trace.Collect(w.MustStream(n, 11))
	snap := trace.Record(trace.NewSliceStream(reqs), len(reqs))
	defer snap.Release()

	// The mapped leg replays the same snapshot through the disk-store open
	// (zero-copy columns where the platform supports mmap, the copying
	// reader elsewhere), so the store path is held to the same bit-identity
	// bar as the in-memory restructurings.
	var buf bytes.Buffer
	if err := trace.WriteSnapshot(&buf, w.Name, snap); err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(t.TempDir(), "wl.mps1")
	if err := os.WriteFile(mpath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	msnap, _, err := trace.OpenMapped(mpath)
	if err != nil {
		t.Fatal(err)
	}
	defer msnap.Release()

	for _, mc := range append(mechanisms[:len(mechanisms):len(mechanisms)], memPodCache) {
		for _, window := range []int{0, 32, -1} {
			mc, window := mc, window
			t.Run(fmt.Sprintf("%s/window=%d", mc.name, window), func(t *testing.T) {
				// Each leg gets its own backend; stream binds it to the
				// leg's geometry before the run.
				runWith := func(stream func(b *mech.Backend) trace.Stream) stats.Result {
					b := newBackend()
					e := New(b, mc.build(t, b))
					e.Window = window
					res, err := e.Run(w.Name, stream(b))
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				serial := runWith(func(*mech.Backend) trace.Stream { return trace.NewSliceStream(reqs) })
				batchedNoPlane := runWith(func(*mech.Backend) trace.Stream { return snap.Stream() })
				batchedPlane := runWith(func(b *mech.Backend) trace.Stream { return snap.DecodedStream(&b.Geom) })
				mappedRes := runWith(func(b *mech.Backend) trace.Stream { return msnap.DecodedStream(&b.Geom) })

				if serial.Requests != n {
					t.Fatalf("serial replayed %d requests, want %d", serial.Requests, n)
				}
				diffResults(t, "batched(no plane) vs serial", batchedNoPlane, serial)
				diffResults(t, "batched(plane) vs serial", batchedPlane, serial)
				diffResults(t, "mapped replay vs serial", mappedRes, serial)
			})
		}
	}
}

// TestEngineRunAllocFree pins the steady-state hot path allocation-free
// for every mechanism, on both batch sources: a reset DecodedStream
// (the engine indexes the snapshot's time column and plane) and a reset
// SliceStream (batches filled through Next and decoded into the engine's
// scratch plane). Each Run replays the same trace on a
// persistent backend+mechanism pair, as sweeps and benchmarks do. A few
// warm-up runs let the mechanisms' tables reach their working size; after
// that the only allocations left are the amortized doublings of the
// pooled tables' undo journals (tab.U32), well under one per run, which
// AllocsPerRun's whole-number average absorbs. Anything per batch or per
// request (a run is 79 batches) fails.
func TestEngineRunAllocFree(t *testing.T) {
	const n = 20_000
	w, err := workload.Mix(5)
	if err != nil {
		t.Fatal(err)
	}
	reqs := trace.Collect(w.MustStream(n, 11))
	snap := trace.Record(trace.NewSliceStream(reqs), len(reqs))
	defer snap.Release()

	for _, mc := range mechanisms {
		mc := mc
		t.Run(mc.name, func(t *testing.T) {
			b := newBackend()
			m := mc.build(t, b)
			defer mech.Release(m)
			e := New(b, m)
			e.Shards = 1
			ds := snap.DecodedStream(&b.Geom)
			ls := trace.NewSliceStream(reqs)
			for _, leg := range []struct {
				name  string
				reset func()
				s     trace.Stream
			}{
				{"DecodedStream", ds.Reset, ds},
				{"SliceStream", ls.Reset, ls},
			} {
				run := func() {
					leg.reset()
					if _, err := e.Run(w.Name, leg.s); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 4; i++ {
					run()
				}
				allocs := testing.AllocsPerRun(10, run)
				if allocs != 0 {
					t.Errorf("%s: %.1f allocations per Run, want 0", leg.name, allocs)
				}
			}
		})
	}
}

// BenchmarkEngineBatched tracks the batched replay cost per mechanism.
// The trace is snapshotted once outside the timer; each iteration replays
// it through a reset cursor on a persistent backend+mechanism pair
// (TestEngineRunAllocFree pins that steady state allocation-free).
func BenchmarkEngineBatched(b *testing.B) {
	const n = 60_000
	w, err := workload.Mix(5)
	if err != nil {
		b.Fatal(err)
	}
	reqs := trace.Collect(w.MustStream(n, 11))
	snap := trace.Record(trace.NewSliceStream(reqs), len(reqs))
	defer snap.Release()

	for _, mc := range mechanisms {
		b.Run(mc.name, func(b *testing.B) {
			bk := newBackend()
			m := mc.build(b, bk)
			e := New(bk, m)
			e.Shards = 1
			ss := snap.DecodedStream(&bk.Geom)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ss.Reset()
				if _, err := e.Run(w.Name, ss); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
