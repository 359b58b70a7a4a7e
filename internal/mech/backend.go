package mech

import (
	"repro/internal/addr"
	"repro/internal/clock"
	"repro/internal/memsys"
)

// Backend issues physical line requests into the memory system on behalf of
// a mechanism. It owns the address layout and exposes the two access paths
// mechanisms need: demand/migration lines at explicit frames, and
// bookkeeping reads against a backing-store partition in fast memory.
//
// Geom is the layout's precomputed form; the backend and the mechanisms
// use it on the per-request path instead of recomputing derived geometry
// through Layout's methods (see addr.Geom).
type Backend struct {
	Sys    *memsys.System
	Layout addr.Layout
	Geom   addr.Geom

	// Per-pod first channel of each level, precomputed so Line resolves a
	// frame to its channel with one table lookup plus a remainder instead
	// of re-deriving pod*channelsPerPod on every request.
	fastBase []int32
	slowBase []int32
	// Channels-per-pod divisors and the fast-frame boundary, hoisted out
	// of Geom for the same reason.
	dFastCPP   addr.Divisor
	dSlowCPP   addr.Divisor
	fastPerPod uint32
	// Per-level pages-per-row divisors: how many consecutive page slots
	// share a DRAM row on each level (spec-dependent via the layout's
	// FastRowBytes/SlowRowBytes).
	dFastRowPg addr.Divisor
	dSlowRowPg addr.Divisor
}

// NewBackend wraps a memory system.
func NewBackend(sys *memsys.System) *Backend {
	l := sys.Layout()
	b := &Backend{Sys: sys, Layout: l, Geom: l.Geom()}
	b.fastPerPod = b.Geom.FastPerPod()
	fastCPP, slowCPP := 0, 0
	if l.NumPods > 0 {
		fastCPP = l.FastChannels / l.NumPods
		slowCPP = l.SlowChannels / l.NumPods
	}
	b.dFastCPP = addr.NewDivisor(uint64(fastCPP))
	b.dSlowCPP = addr.NewDivisor(uint64(slowCPP))
	b.dFastRowPg = addr.NewDivisor(l.FastPagesPerRow())
	b.dSlowRowPg = addr.NewDivisor(l.SlowPagesPerRow())
	b.fastBase = make([]int32, l.NumPods)
	b.slowBase = make([]int32, l.NumPods)
	for pod := 0; pod < l.NumPods; pod++ {
		b.fastBase[pod] = int32(pod * fastCPP)
		b.slowBase[pod] = int32(l.FastChannels + pod*slowCPP)
	}
	return b
}

// Line services line `li` (0..31) of frame f in pod `pod` and returns the
// completion time. It resolves the frame's channel and row directly (the
// channel model keys timing on rows; lines within a page share one row),
// bit-identical to Sys.Access(Geom.FrameLocation(pod, f, li), ...).
func (b *Backend) Line(pod int, f addr.Frame, li int, write bool, at clock.Time) clock.Time {
	if uint32(f) < b.fastPerPod {
		fv := uint64(uint32(f))
		ch := int(b.fastBase[pod]) + int(b.dFastCPP.Mod(fv))
		return b.Sys.AccessChannel(ch, b.dFastRowPg.Div(b.dFastCPP.Div(fv)), write, at)
	}
	sf := uint64(uint32(f) - b.fastPerPod)
	ch := int(b.slowBase[pod]) + int(b.dSlowCPP.Mod(sf))
	return b.Sys.AccessChannel(ch, b.dSlowRowPg.Div(b.dSlowCPP.Div(sf)), write, at)
}

// lineLoc resolves frame f of pod `pod` to its channel and row without
// issuing the access — the routing half of Line, for swap copies that
// resolve both slots before issuing any traffic.
func (b *Backend) lineLoc(pod int, f addr.Frame) (ch int, row uint64) {
	if uint32(f) < b.fastPerPod {
		fv := uint64(uint32(f))
		return int(b.fastBase[pod]) + int(b.dFastCPP.Mod(fv)), b.dFastRowPg.Div(b.dFastCPP.Div(fv))
	}
	sf := uint64(uint32(f) - b.fastPerPod)
	return int(b.slowBase[pod]) + int(b.dSlowCPP.Mod(sf)), b.dSlowRowPg.Div(b.dSlowCPP.Div(sf))
}

// LineAt services one line access at an already-resolved channel/row —
// the path for a request's decoded home location (trace.Decoded carries
// FrameLocation's channel and row, which Line would re-derive).
// The coordinates must come from this backend's own layout.
func (b *Backend) LineAt(ch uint16, row uint32, write bool, at clock.Time) clock.Time {
	return b.Sys.AccessChannel(int(ch), uint64(row), write, at)
}

// SwapPagesChunk performs the lines [lo, hi) of a page swap between frames
// fa and fb of one pod, as the paper models the datapath: reads of both
// frames' lines into migration buffers, then the cross write-backs, 32 of
// each per page in all. Migration drivers issue swaps in chunks paced
// across their epoch so the copy traffic interleaves with demand at the
// memory controllers instead of monopolizing a channel in one burst; the
// returned time is when the chunk's last write-back completes.
func (b *Backend) SwapPagesChunk(pod int, fa, fb addr.Frame, lo, hi int, at clock.Time) clock.Time {
	chA, rowA := b.lineLoc(pod, fa)
	chB, rowB := b.lineLoc(pod, fb)
	return b.swapChunk(chA, rowA, chB, rowB, hi-lo, at)
}

// SwapGlobalChunk performs the lines [lo, hi) of a swap between two
// arbitrary page slots of the flat address space (identified by their
// home pages), for mechanisms without pod clustering (HMA, THM): the same
// datapath as SwapPagesChunk, but the traffic crosses the global
// interconnect between the two slots' channels.
func (b *Backend) SwapGlobalChunk(slotA, slotB addr.Page, lo, hi int, at clock.Time) clock.Time {
	podA, fA := b.Geom.HomeFrame(slotA)
	podB, fB := b.Geom.HomeFrame(slotB)
	chA, rowA := b.lineLoc(podA, fA)
	chB, rowB := b.lineLoc(podB, fB)
	return b.swapChunk(chA, rowA, chB, rowB, hi-lo, at)
}

// swapChunk issues the copy traffic of an n-line swap chunk between two
// resolved page slots: n reads of each slot, interleaved A/B and issued
// at `at`, then n write-backs of each issued when the last read
// completes. All lines of a page share its slot's row.
func (b *Backend) swapChunk(chA int, rowA uint64, chB int, rowB uint64, n int, at clock.Time) clock.Time {
	end := at
	for i := 0; i < n; i++ {
		if t := b.Sys.AccessChannel(chA, rowA, false, at); t > end {
			end = t
		}
		if t := b.Sys.AccessChannel(chB, rowB, false, at); t > end {
			end = t
		}
	}
	readsDone := end
	for i := 0; i < n; i++ {
		if t := b.Sys.AccessChannel(chA, rowA, true, readsDone); t > end {
			end = t
		}
		if t := b.Sys.AccessChannel(chB, rowB, true, readsDone); t > end {
			end = t
		}
	}
	return end
}

// SwapLines performs CAMEO's line-granularity swap between two locations:
// two reads then two writes. Returns the completion of the last write.
func (b *Backend) SwapLines(la, lb addr.Location, at clock.Time) clock.Time {
	r1 := b.Sys.Access(la, false, at)
	r2 := b.Sys.Access(lb, false, at)
	readsDone := clock.Max(r1, r2)
	w1 := b.Sys.Access(la, true, readsDone)
	w2 := b.Sys.Access(lb, true, readsDone)
	return clock.Max(w1, w2)
}

// BookkeepingRead injects the 64 B read that a bookkeeping-cache miss
// costs. The backing store lives in a partition of fast memory (as in the
// paper); the row is derived from the entry key so distinct entries spread
// over banks. For single-level slow-only systems it falls back to slow
// memory.
func (b *Backend) BookkeepingRead(pod int, key uint64, at clock.Time) clock.Time {
	var loc addr.Location
	if b.Layout.FastChannels > 0 {
		cpp := b.Layout.FastChannelsPerPod()
		loc = addr.Location{
			Channel: pod%b.Layout.NumPods*cpp + int(key%uint64(cpp)),
			Fast:    true,
			// Keep bookkeeping rows clear of the hottest data rows by
			// hashing into a high row band.
			Row: 1<<20 + key%4096,
		}
	} else {
		loc = addr.Location{
			Channel: b.Layout.FastChannels + int(key%uint64(b.Layout.SlowChannels)),
			Row:     1<<20 + key%4096,
		}
	}
	return b.Sys.Access(loc, false, at)
}
