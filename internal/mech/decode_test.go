package mech

import (
	"fmt"
	"math/rand"
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
// line-aligned addresses:
//
//   - trace.Decode equals the page (addr.PageOf), home pod/frame
//     (Geom.HomeFrame) and line-in-page (LineOf % LinesPerPage)
//     decomposition, and Page/Line reassemble the global line index;
//   - servicing the decoded home channel/row (LineAt) on one backend
//     yields the same completion times as servicing the home frame
//     (Line) on a twin backend, over one shared write/time sequence.
//     The first backend also takes Line for a random half of the
//     requests, as mechanisms do for migrated pages, so the two paths
//     must agree on row-buffer state, not only each be self-consistent.
//     Requests draw from a small page pool so rows are reused.
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
			for i := 0; i < 20_000; i++ {
				a := pages[rng.Intn(len(pages))]*addr.PageBytes + uint64(rng.Intn(addr.LinesPerPage))*addr.LineBytes
				d := trace.Decode(a, g)

				page := addr.PageOf(addr.Addr(a))
				pod, f := g.HomeFrame(page)
				li := int(uint64(addr.LineOf(addr.Addr(a))) % addr.LinesPerPage)
				if d.Page != uint64(page) || int(d.Pod) != pod || d.Frame != uint32(f) || int(d.Line) != li {
					t.Fatalf("addr %#x: Decode = %+v, want page %d pod %d frame %d line %d", a, d, page, pod, f, li)
				}
				if ln := d.Page*addr.LinesPerPage + uint64(d.Line); ln != uint64(addr.LineOf(addr.Addr(a))) {
					t.Fatalf("addr %#x: page/line reassemble to line %d, want %d", a, ln, addr.LineOf(addr.Addr(a)))
				}

				at += clock.Time(rng.Int63n(int64(20 * clock.Nanosecond)))
				w := rng.Intn(4) == 0
				path, got := "LineAt", clock.Time(0)
				if rng.Intn(2) == 0 {
					got = decoded.LineAt(d.Chan, d.Row, w, at)
				} else {
					path, got = "Line", decoded.Line(pod, f, li, w, at)
				}
				if want := twin.Line(pod, f, li, w, at); got != want {
					t.Fatalf("addr %#x (request %d): %s completes at %v, twin Line at %v", a, i, path, got, want)
				}
			}
			if fs, ts := decoded.Sys.FastStats(), twin.Sys.FastStats(); fs != ts {
				t.Errorf("fast stats diverge: %+v vs %+v", fs, ts)
			}
			if ss, ts := decoded.Sys.SlowStats(), twin.Sys.SlowStats(); ss != ts {
				t.Errorf("slow stats diverge: %+v vs %+v", ss, ts)
			}
		})
	}
}
