package mech

import (
	"repro/internal/addr"
	"repro/internal/clock"
	"repro/internal/memsys"
)

// Backend issues physical line requests into the memory system on behalf of
// a mechanism. It owns the address layout and exposes the access paths
// mechanisms need: demand lines at explicit frames (Line) or decoded
// locations (LineAt), and bookkeeping reads against a backing-store
// partition in fast memory. Copy traffic goes through a CopyQueue.
//
// Geom is the layout's precomputed form; the backend and the mechanisms
// use it on the per-request path instead of recomputing derived geometry
// through Layout's methods (see addr.Geom).
type Backend struct {
	Sys    *memsys.System
	Layout addr.Layout
	Geom   addr.Geom
}

// NewBackend wraps a memory system.
func NewBackend(sys *memsys.System) *Backend {
	l := sys.Layout()
	return &Backend{Sys: sys, Layout: l, Geom: l.Geom()}
}

// Line services line `li` (0..31) of frame f in pod `pod` and returns the
// completion time. The channel model keys timing on rows and lines within
// a page share one row, so only the frame's channel and row are resolved:
// bit-identical to Sys.Access(Geom.FrameLocation(pod, f, li), ...).
func (b *Backend) Line(pod int, f addr.Frame, li int, write bool, at clock.Time) clock.Time {
	ch, row := b.Geom.FrameChannel(pod, f)
	return b.Sys.AccessChannel(ch, row, write, at)
}

// LineAt services one line access at an already-resolved channel/row —
// the path for a request's decoded home location (trace.Decoded carries
// FrameLocation's channel and row, which Line would re-derive).
// The coordinates must come from this backend's own layout.
func (b *Backend) LineAt(ch uint16, row uint32, write bool, at clock.Time) clock.Time {
	return b.Sys.AccessChannel(int(ch), uint64(row), write, at)
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
