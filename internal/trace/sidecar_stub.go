//go:build (!linux && !darwin) || nomap

package trace

import (
	"repro/internal/addr"
	"repro/internal/clock"
)

// Without mmap support there is no zero-copy way to serve a sidecar, and
// the raw-memory-image format is pointless through a copying read — the
// derived columns are just computed on the heap (the nomap differential
// tests exercise exactly this path).

func mapPlane(s *Snapshot, g *addr.Geom) ([]Decoded, []byte, bool) {
	return nil, nil, false
}

func buildTimesSidecar(base string, parent parentStamp, times []byte, n int) ([]clock.Time, []byte, bool) {
	return nil, nil, false
}

func openTimesSidecar(base string, parent parentStamp, times []byte, n int) ([]clock.Time, []byte, bool) {
	return nil, nil, false
}
