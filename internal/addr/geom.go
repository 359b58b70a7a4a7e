package addr

// This file provides Geom, the precomputed form of Layout used on the
// simulator's per-request hot path.
//
// Layout's methods recompute derived quantities (pages per pod, channels
// per pod) and perform runtime division on every call; that is fine at
// configuration time but shows up as a double-digit fraction of a
// simulation's profile when executed millions of times per run. Geom
// computes every derived count once and replaces each division by a stored
// divisor that takes a shift-and-mask fast path when the divisor is a
// power of two (which every paper configuration is). Geom methods are
// bit-identical to their Layout counterparts — asserted exhaustively by
// TestGeomMatchesLayout, including non-power-of-two layouts.

// div is a precomputed unsigned divisor. For power-of-two divisors the
// quotient and remainder are a shift and a mask; otherwise it falls back
// to hardware division, preserving exact Layout semantics.
type div struct {
	d     uint64
	mask  uint64
	shift uint8
	pow2  bool
}

func newDiv(d uint64) div {
	v := div{d: d}
	if d != 0 && d&(d-1) == 0 {
		v.pow2 = true
		v.mask = d - 1
		for q := d; q > 1; q >>= 1 {
			v.shift++
		}
	}
	return v
}

func (v div) div(x uint64) uint64 {
	if v.pow2 {
		// The mask tells the compiler the shift is below 64, sparing
		// the oversized-shift fixup.
		return x >> (v.shift & 63)
	}
	return x / v.d
}

func (v div) mod(x uint64) uint64 {
	if v.pow2 {
		return x & v.mask
	}
	return x % v.d
}

// Divisor is a precomputed divisor for hot-path division by a
// configuration-time constant, with the same power-of-two fast path div
// uses. The zero value divides by zero (panics), like the plain operator.
type Divisor struct{ d div }

// NewDivisor precomputes division by d.
func NewDivisor(d uint64) Divisor { return Divisor{newDiv(d)} }

// Div returns x / d.
func (v Divisor) Div(x uint64) uint64 { return v.d.div(x) }

// Mod returns x % d.
func (v Divisor) Mod(x uint64) uint64 { return v.d.mod(x) }

// Geom is a Layout with every derived quantity precomputed for the
// per-request hot path. Build one with Layout.Geom after validation;
// the zero value is not meaningful.
//
// The per-level quantities live in two-entry arrays indexed by level (0
// fast, 1 slow), so a page's or frame's decomposition selects its level
// once with a compare-select and then runs one body for both levels, not
// one body per level behind a branch.
type Geom struct {
	Layout

	fastPages  uint64
	totalPages uint64
	fastLines  uint64
	fastPerPod uint32
	slowPerPod uint32

	pods div // NumPods

	pageBase  [2]uint64 // first flat page of each level: 0, FastPages
	frameBase [2]uint32 // first frame of each level: 0, FastPagesPerPod
	chanBase  [2]int    // first channel of each level: 0, FastChannels
	ch        [2]div    // channels (FastChannels, SlowChannels)
	dCPP      [2]div    // channels per pod
	dPP       [2]div    // pages per pod (FastPagesPerPod, SlowPagesPerPod)
	dRowPg    [2]div    // pages per row (FastPagesPerRow, SlowPagesPerRow)
}

// Geom precomputes the layout's derived geometry. The layout should be
// valid (see Validate); single-level layouts are supported the same way
// Layout's own methods support them.
func (l Layout) Geom() Geom {
	g := Geom{
		Layout:     l,
		fastPages:  uint64(l.FastPages()),
		totalPages: uint64(l.TotalPages()),
		fastLines:  uint64(l.FastLines()),
		fastPerPod: l.FastPagesPerPod(),
		slowPerPod: l.SlowPagesPerPod(),
		pods:       newDiv(uint64(l.NumPods)),
	}
	g.pageBase = [2]uint64{0, g.fastPages}
	g.frameBase = [2]uint32{0, g.fastPerPod}
	g.chanBase = [2]int{0, l.FastChannels}
	for lv, n := range [2]int{l.FastChannels, l.SlowChannels} {
		g.ch[lv] = newDiv(uint64(n))
		if l.NumPods > 0 {
			g.dCPP[lv] = newDiv(uint64(n / l.NumPods))
		}
	}
	g.dPP = [2]div{newDiv(uint64(g.fastPerPod)), newDiv(uint64(g.slowPerPod))}
	g.dRowPg = [2]div{newDiv(l.FastPagesPerRow()), newDiv(l.SlowPagesPerRow())}
	return g
}

// pageLevel returns the level (0 fast, 1 slow) page p's flat address lies
// in: a compare and a select, no branch.
func (g *Geom) pageLevel(p Page) int {
	lv := 0
	if uint64(p) >= g.fastPages {
		lv = 1
	}
	return lv
}

// frameLevel returns the level (0 fast, 1 slow) of frame f within a pod.
func (g *Geom) frameLevel(f Frame) int {
	lv := 0
	if uint32(f) >= g.fastPerPod {
		lv = 1
	}
	return lv
}

// FastPagesPerRowN returns FastPagesPerRow without recomputing it.
func (g *Geom) FastPagesPerRowN() uint64 { return g.dRowPg[0].d }

// SlowPagesPerRowN returns SlowPagesPerRow without recomputing it.
func (g *Geom) SlowPagesPerRowN() uint64 { return g.dRowPg[1].d }

// IsFast mirrors Layout.IsFast.
func (g *Geom) IsFast(p Page) bool { return uint64(p) < g.fastPages }

// IsFastFrame mirrors Layout.IsFastFrame.
func (g *Geom) IsFastFrame(f Frame) bool { return uint32(f) < g.fastPerPod }

// FastPagesN returns the fast page count as a plain uint64.
func (g *Geom) FastPagesN() uint64 { return g.fastPages }

// TotalPagesN returns the flat page count as a plain uint64.
func (g *Geom) TotalPagesN() uint64 { return g.totalPages }

// FastLinesN returns the fast line count as a plain uint64.
func (g *Geom) FastLinesN() uint64 { return g.fastLines }

// FastPerPod returns FastPagesPerPod without recomputing it.
func (g *Geom) FastPerPod() uint32 { return g.fastPerPod }

// PagesPerPodN returns PagesPerPod without recomputing it.
func (g *Geom) PagesPerPodN() uint32 { return g.fastPerPod + g.slowPerPod }

// PodOf mirrors Layout.PodOf.
func (g *Geom) PodOf(p Page) int {
	lv := g.pageLevel(p)
	return int(g.pods.mod(g.ch[lv].mod(uint64(p) - g.pageBase[lv])))
}

// HomeFrame mirrors Layout.HomeFrame.
func (g *Geom) HomeFrame(p Page) (pod int, f Frame) {
	lv := g.pageLevel(p)
	s := uint64(p) - g.pageBase[lv]
	pod = int(g.pods.mod(g.ch[lv].mod(s)))
	return pod, Frame(uint64(g.frameBase[lv]) + g.dPP[lv].mod(g.pods.div(s)))
}

// Home resolves page p's home placement in one call: its pod and home
// frame (HomeFrame) and the channel and row holding that frame
// (FrameLocation's Channel and Row). The level is selected once, so the
// whole decomposition is one straight-line body.
func (g *Geom) Home(p Page) (pod int, f Frame, ch int, row uint64) {
	lv := g.pageLevel(p)
	s := uint64(p) - g.pageBase[lv]
	pod = int(g.pods.mod(g.ch[lv].mod(s)))
	lf := g.dPP[lv].mod(g.pods.div(s)) // frame within the level
	dc := g.dCPP[lv]
	ch = g.chanBase[lv] + pod*int(dc.d) + int(dc.mod(lf))
	return pod, Frame(uint64(g.frameBase[lv]) + lf), ch, g.dRowPg[lv].div(dc.div(lf))
}

// FrameChannel returns the channel and row holding frame f of pod `pod`
// (FrameLocation's Channel and Row): every line of a page shares them, so
// a caller that issues many lines of one frame resolves it once.
func (g *Geom) FrameChannel(pod int, f Frame) (ch int, row uint64) {
	lv := g.frameLevel(f)
	lf := uint64(uint32(f) - g.frameBase[lv])
	dc := g.dCPP[lv]
	return g.chanBase[lv] + pod*int(dc.d) + int(dc.mod(lf)), g.dRowPg[lv].div(dc.div(lf))
}

// FrameLocation mirrors Layout.FrameLocation.
func (g *Geom) FrameLocation(pod int, f Frame, li int) Location {
	ch, row := g.FrameChannel(pod, f)
	lv := g.frameLevel(f)
	slot := g.dCPP[lv].div(uint64(uint32(f) - g.frameBase[lv]))
	return Location{
		Channel: ch,
		Fast:    lv == 0,
		Row:     row,
		Col:     uint32(g.dRowPg[lv].mod(slot))*LinesPerPage + uint32(li),
	}
}

// HomeLocation mirrors Layout.HomeLocation.
func (g *Geom) HomeLocation(ln Line) Location {
	p := PageOfLine(ln)
	pod, f := g.HomeFrame(p)
	return g.FrameLocation(pod, f, int(uint64(ln)%LinesPerPage))
}
