package mech

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/addr"
	"repro/internal/clock"
	"repro/internal/dram"
	"repro/internal/memsys"
	"repro/internal/trace"
)

// TestDecodeMatchesAddressMath is the reference for the per-request
// address math mechanisms once derived from r.Addr themselves. Under
// every layout and spec pair the experiments build, for random
// line-aligned requests:
//
//   - trace.Decode equals the page (addr.PageOf), home pod/frame
//     (Geom.HomeFrame) and line-in-page (LineOf % LinesPerPage)
//     decomposition, Page/Line reassemble the global line index, and
//     the entry carries the request's Core and Write;
//   - servicing the decoded home channel/row (LineAt) on one backend
//     yields the same completion times as servicing the home frame
//     (Line) on a twin backend, over one shared write/time sequence.
//     The first backend also takes Line for a random half of the
//     requests, as mechanisms do for migrated pages, so the two paths
//     must agree on row-buffer state, not only each be self-consistent.
//     Requests draw from a small page pool so rows are reused.
//   - the requests' predecode plane is the same, field by field, on the
//     heap (Snapshot.Plane of a recording) and from the store: a
//     snapshot file's first open, which builds the .plane sidecar, and
//     its second, which maps it (trace.OpenMapped).
func TestDecodeMatchesAddressMath(t *testing.T) {
	hbmOnly := addr.Layout{FastBytes: 9 << 30, FastChannels: 8, NumPods: 4}
	ddrOnly := addr.Layout{SlowBytes: 9 << 30, SlowChannels: 4, NumPods: 4}
	type system struct {
		name       string
		layout     addr.Layout
		fast, slow dram.Spec
	}
	systems := []system{
		{"default", addr.DefaultLayout(), dram.HBM(), dram.DDR4_1600()},
		{"HBM-only", hbmOnly, dram.HBM(), dram.DDR4_1600()},
		{"DDR-only", ddrOnly, dram.HBM(), dram.DDR4_1600()},
		{"fig10", addr.DefaultLayout(), dram.HBMOverclocked(), dram.DDR4_2400()},
		{"fig10/HBMoc-only", hbmOnly, dram.HBMOverclocked(), dram.DDR4_2400()},
		{"fig10/DDR-only", ddrOnly, dram.HBMOverclocked(), dram.DDR4_2400()},
		{"HBM3+CXL-DDR5", addr.DefaultLayout(), dram.MustPreset("HBM3"), dram.MustPreset("CXL-DDR5")},
		{"HBM+NVM-PCM", addr.DefaultLayout(), dram.MustPreset("HBM"), dram.MustPreset("NVM-PCM")},
	}
	for _, pods := range []int{1, 2, 4} { // the pod-count ablation
		l := addr.DefaultLayout()
		l.NumPods = pods
		systems = append(systems, system{fmt.Sprintf("%dpod", pods), l, dram.HBM(), dram.DDR4_1600()})
	}

	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			decoded := NewBackend(memsys.MustNew(sys.layout, sys.fast, sys.slow))
			twin := NewBackend(memsys.MustNew(sys.layout, sys.fast, sys.slow))
			g := &decoded.Geom
			rng := rand.New(rand.NewSource(3))
			pages := make([]uint64, 512)
			for i := range pages {
				pages[i] = uint64(rng.Int63n(int64(sys.layout.TotalBytes() / addr.PageBytes)))
			}
			var at clock.Time
			reqs := make([]trace.Request, 20_000)
			for i := range reqs {
				a := pages[rng.Intn(len(pages))]*addr.PageBytes + uint64(rng.Intn(addr.LinesPerPage))*addr.LineBytes
				at += clock.Time(rng.Int63n(int64(20 * clock.Nanosecond)))
				reqs[i] = trace.Request{Addr: a, Time: at, Write: rng.Intn(4) == 0, Core: uint8(rng.Intn(8))}
				d := trace.Decode(&reqs[i], g)
				if d.Core != reqs[i].Core || d.Write != reqs[i].Write {
					t.Fatalf("request %+v: Decode carries core %d write %v", reqs[i], d.Core, d.Write)
				}

				page := addr.PageOf(addr.Addr(a))
				pod, f := g.HomeFrame(page)
				li := int(uint64(addr.LineOf(addr.Addr(a))) % addr.LinesPerPage)
				if d.Page != uint64(page) || int(d.Pod) != pod || d.Frame != uint32(f) || int(d.Line) != li {
					t.Fatalf("addr %#x: Decode = %+v, want page %d pod %d frame %d line %d", a, d, page, pod, f, li)
				}
				if ln := d.Page*addr.LinesPerPage + uint64(d.Line); ln != uint64(addr.LineOf(addr.Addr(a))) {
					t.Fatalf("addr %#x: page/line reassemble to line %d, want %d", a, ln, addr.LineOf(addr.Addr(a)))
				}

				path, got := "LineAt", clock.Time(0)
				if rng.Intn(2) == 0 {
					got = decoded.LineAt(d.Chan, d.Row, d.Write, at)
				} else {
					path, got = "Line", decoded.Line(pod, f, li, d.Write, at)
				}
				if want := twin.Line(pod, f, li, d.Write, at); got != want {
					t.Fatalf("addr %#x (request %d): %s completes at %v, twin Line at %v", a, i, path, got, want)
				}
			}
			if fs, ts := decoded.Sys.FastStats(), twin.Sys.FastStats(); fs != ts {
				t.Errorf("fast stats diverge: %+v vs %+v", fs, ts)
			}
			if ss, ts := decoded.Sys.SlowStats(), twin.Sys.SlowStats(); ss != ts {
				t.Errorf("slow stats diverge: %+v vs %+v", ss, ts)
			}
			comparePlanes(t, reqs, g)
		})
	}
}

// comparePlanes records reqs and checks that the heap plane under g, the
// plane a snapshot file's first open builds into its sidecar, and the
// plane its second open maps from that sidecar all equal trace.Decode of
// every request, field by field.
func comparePlanes(t *testing.T, reqs []trace.Request, g *addr.Geom) {
	t.Helper()
	heap := trace.Record(trace.NewSliceStream(reqs), len(reqs))
	defer heap.Release()
	path := filepath.Join(t.TempDir(), "wl.mps")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteSnapshot(f, "wl", heap); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	planes := map[string][]trace.Decoded{"heap": heap.Plane(g)}
	for _, open := range []string{"first open", "second open"} {
		s, _, err := trace.OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Release()
		planes[open] = s.Plane(g)
	}
	if trace.MapSupported() {
		if m, err := filepath.Glob(path + ".g*.plane"); err != nil || len(m) != 1 {
			t.Fatalf("want one plane sidecar, found %v (%v)", m, err)
		}
	}
	for name, plane := range planes {
		if len(plane) != len(reqs) {
			t.Fatalf("%s plane holds %d entries, want %d", name, len(plane), len(reqs))
		}
		for i := range reqs {
			want, got := trace.Decode(&reqs[i], g), plane[i]
			if got.Page != want.Page || got.Frame != want.Frame || got.Row != want.Row || got.Chan != want.Chan ||
				got.Pod != want.Pod || got.Line != want.Line || got.Core != want.Core || got.Write != want.Write {
				t.Fatalf("%s plane entry %d = %+v, want %+v", name, i, got, want)
			}
		}
	}
}
