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
	build func(b *mech.Backend) mech.Mechanism
}

// mechanisms is the full set under test, each built fresh over its own
// backend so runs share nothing.
var mechanisms = []mechCase{
	{"MemPod", func(b *mech.Backend) mech.Mechanism { return core.MustNew(core.DefaultConfig(), b) }},
	{"MemPod-FC", func(b *mech.Backend) mech.Mechanism {
		cfg := core.DefaultConfig()
		cfg.UseFullCounters = true
		return core.MustNew(cfg, b)
	}},
	{"HMA", func(b *mech.Backend) mech.Mechanism { return hma.MustNew(hma.DefaultConfig(), b) }},
	{"THM", func(b *mech.Backend) mech.Mechanism { return thm.MustNew(thm.DefaultConfig(), b) }},
	{"CAMEO", func(b *mech.Backend) mech.Mechanism { return cameo.MustNew(cameo.DefaultConfig(), b) }},
	{"Migrant", func(b *mech.Backend) mech.Mechanism { return migrant.MustNew(migrant.DefaultConfig(), b) }},
	{"Static", func(b *mech.Backend) mech.Mechanism { return mech.NewStatic("TLM", b) }},
}

// memPodCache is MemPod with the bookkeeping cache on, which the
// paper-default config leaves off. Its AccessColumn takes the per-request
// branch (a cache miss chains a read into the demand's issue time), so it
// is the one MemPod shape whose column path is not channel columns.
var memPodCache = mechCase{"MemPod-cache", func(b *mech.Backend) mech.Mechanism {
	cfg := core.DefaultConfig()
	cfg.CacheBytes = 1 << 16
	return core.MustNew(cfg, b)
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
// bookkeeping-cache MemPod variant) over a mixed workload five ways — the
// per-request serial path (plain SliceStream), the batched path without a
// predecode plane (snapshot cursor), the batched path with the plane bound
// through channel columns and through per-request AccessDecoded, and a
// replay of the on-disk snapshot — and requires field-identical Results.
// Each runs at the default window, at window 32 (short spans, so interval
// boundaries land mid-span) and unlimited (no gating, maximal spans).
// Batching, the shared plane, the column kernel and the mechanisms'
// decoded fast paths are pure restructurings of the per-request path.
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
				runWith := func(s trace.Stream, noColumns bool) (stats.Result, *Engine) {
					b := newBackend()
					e := New(b, mc.build(b))
					e.Window = window
					e.noColumns = noColumns
					res, err := e.Run(w.Name, s)
					if err != nil {
						t.Fatal(err)
					}
					return res, e
				}
				serial, _ := runWith(trace.NewSliceStream(reqs), false)
				batchedNoPlane, _ := runWith(snap.Stream(), false)
				geomBackend := newBackend()
				batchedPlane, planeEng := runWith(snap.DecodedStream(&geomBackend.Geom), false)
				perReqBackend := newBackend()
				batchedPerReq, perReqEng := runWith(snap.DecodedStream(&perReqBackend.Geom), true)
				mappedBackend := newBackend()
				mappedRes, _ := runWith(msnap.DecodedStream(&mappedBackend.Geom), false)

				if serial.Requests != n {
					t.Fatalf("serial replayed %d requests, want %d", serial.Requests, n)
				}
				// The planed run must have gone through the column path; the
				// noColumns run pins the per-request reference it diffs against.
				if planeEng.ColumnSpans() == 0 {
					t.Errorf("batched(plane) run never took the column path")
				}
				if perReqEng.ColumnSpans() != 0 {
					t.Errorf("noColumns run took the column path (%d spans)", perReqEng.ColumnSpans())
				}
				diffResults(t, "batched(no plane) vs serial", batchedNoPlane, serial)
				diffResults(t, "batched(plane, columns) vs serial", batchedPlane, serial)
				diffResults(t, "batched(plane, per-request) vs serial", batchedPerReq, serial)
				diffResults(t, "mapped replay vs serial", mappedRes, serial)
			})
		}
	}
}

// BenchmarkEngineBatched tracks the fused batched replay cost per
// mechanism. The trace is snapshotted once outside the timer; each
// iteration replays it through a fresh cursor on a persistent
// backend+mechanism pair, so the steady state must be allocation-free
// (the acceptance criterion the tentpole carries).
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
			m := mc.build(bk)
			e := New(bk, m)
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
