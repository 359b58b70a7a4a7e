package addr

import (
	"math/rand"
	"testing"
)

// geomTestLayouts covers the paper's configurations plus deliberately
// non-power-of-two shapes that force the slow division path.
func geomTestLayouts() []Layout {
	return []Layout{
		DefaultLayout(),
		{FastBytes: 9 << 30, FastChannels: 8, NumPods: 4}, // HBM-only
		{SlowBytes: 9 << 30, SlowChannels: 4, NumPods: 4}, // DDR-only
		{FastBytes: 1 << 28, SlowBytes: 1 << 30, FastChannels: 4, SlowChannels: 2, NumPods: 2},
		{FastBytes: 3 * PageBytes * 3 * 64, SlowBytes: 9 * PageBytes * 3 * 64, FastChannels: 9, SlowChannels: 3, NumPods: 3}, // non-pow2 everything
		{FastBytes: 6 * PageBytes * 256, SlowBytes: 12 * PageBytes * 256, FastChannels: 6, SlowChannels: 6, NumPods: 6},
		// Spec-driven row-size overrides (LPDDR5's 2 KB rows, NVM's 4 KB
		// rows, a 16 KB fast part) — the geometry the preset registry feeds
		// through memsys.LayoutFor.
		{FastBytes: 1 << 30, SlowBytes: 8 << 30, FastChannels: 8, SlowChannels: 4, NumPods: 4, SlowRowBytes: 4096},
		{FastBytes: 1 << 30, SlowBytes: 8 << 30, FastChannels: 8, SlowChannels: 4, NumPods: 4, FastRowBytes: 16384, SlowRowBytes: 2048},
		{FastBytes: 3 * PageBytes * 3 * 64, SlowBytes: 9 * PageBytes * 3 * 64, FastChannels: 9, SlowChannels: 3, NumPods: 3, FastRowBytes: 2048, SlowRowBytes: 4096},
	}
}

// TestGeomMatchesLayout drives Geom and Layout over the same pages, lines
// and frames and requires bit-identical answers. This is the contract that
// lets mechanisms use Geom on the hot path without changing any simulated
// result.
func TestGeomMatchesLayout(t *testing.T) {
	for _, l := range geomTestLayouts() {
		if err := l.Validate(); err != nil {
			t.Fatalf("layout %+v invalid: %v", l, err)
		}
		g := l.Geom()
		rng := rand.New(rand.NewSource(1))
		total := uint64(l.TotalPages())

		pick := func() Page {
			// Mix uniform pages with boundary-adjacent ones.
			switch rng.Intn(4) {
			case 0:
				if f := uint64(l.FastPages()); f > 0 {
					if p := f - 1 + uint64(rng.Intn(3)); p < total {
						return Page(p)
					}
				}
			case 1:
				return 0
			case 2:
				return Page(total - 1)
			}
			return Page(rng.Int63n(int64(total)))
		}

		for i := 0; i < 20000; i++ {
			p := pick()
			if got, want := g.IsFast(p), l.IsFast(p); got != want {
				t.Fatalf("layout %+v: IsFast(%d) = %v, want %v", l, p, got, want)
			}
			if got, want := g.PodOf(p), l.PodOf(p); got != want {
				t.Fatalf("layout %+v: PodOf(%d) = %d, want %d", l, p, got, want)
			}
			gp, gf := g.HomeFrame(p)
			lp, lf := l.HomeFrame(p)
			if gp != lp || gf != lf {
				t.Fatalf("layout %+v: HomeFrame(%d) = (%d,%d), want (%d,%d)", l, p, gp, gf, lp, lf)
			}
			if got, want := g.IsFastFrame(gf), l.IsFastFrame(lf); got != want {
				t.Fatalf("layout %+v: IsFastFrame(%d) = %v, want %v", l, gf, got, want)
			}
			li := rng.Intn(LinesPerPage)
			if got, want := g.FrameLocation(gp, gf, li), l.FrameLocation(lp, lf, li); got != want {
				t.Fatalf("layout %+v: FrameLocation(%d,%d,%d) = %+v, want %+v", l, gp, gf, li, got, want)
			}
			// A frame of another pod too: copies resolve both slots.
			op := rng.Intn(l.NumPods)
			want := l.FrameLocation(op, lf, 0)
			if ch, row := g.FrameChannel(op, gf); ch != want.Channel || row != want.Row {
				t.Fatalf("layout %+v: FrameChannel(%d,%d) = (%d,%d), want %+v", l, op, gf, ch, row, want)
			}
			hp, hf, hch, hrow := g.Home(p)
			home := l.FrameLocation(lp, lf, 0)
			if hp != lp || hf != lf || hch != home.Channel || hrow != home.Row {
				t.Fatalf("layout %+v: Home(%d) = (%d,%d,%d,%d), want (%d,%d,%d,%d)",
					l, p, hp, hf, hch, hrow, lp, lf, home.Channel, home.Row)
			}
			ln := LineOfPage(p, li)
			if got, want := g.HomeLocation(ln), l.HomeLocation(ln); got != want {
				t.Fatalf("layout %+v: HomeLocation(%d) = %+v, want %+v", l, ln, got, want)
			}
		}

		if g.FastPagesN() != uint64(l.FastPages()) || g.TotalPagesN() != total ||
			g.FastLinesN() != uint64(l.FastLines()) || g.FastPerPod() != l.FastPagesPerPod() ||
			g.PagesPerPodN() != l.PagesPerPod() {
			t.Fatalf("layout %+v: cached counts disagree with Layout", l)
		}
	}
}

// TestDiv checks the divisor fast path against hardware division across
// pow2 and non-pow2 divisors.
func TestDiv(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, d := range []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 24, 32, 100, 128, 1 << 20, 3 << 20} {
		v := newDiv(d)
		for i := 0; i < 2000; i++ {
			x := rng.Uint64() >> uint(rng.Intn(64))
			if v.div(x) != x/d || v.mod(x) != x%d {
				t.Fatalf("div(%d): x=%d got (%d,%d) want (%d,%d)", d, x, v.div(x), v.mod(x), x/d, x%d)
			}
		}
	}
}
