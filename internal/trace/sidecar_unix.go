//go:build (linux || darwin) && !nomap

package trace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"unsafe"

	"repro/internal/addr"
	"repro/internal/clock"
)

// Decode sidecars extend zero-copy replay to the derived columns a
// store-backed snapshot would otherwise recompute on every open: the
// predecode plane ([]Decoded, per address layout) and the absolute time
// column ([]clock.Time) persist next to the MPS1 file and map straight
// back in, so a steady-state matrix run decodes each column exactly once
// per store lifetime instead of once per batch.
//
// The format is a raw memory image, which is what makes the open free —
// and what the header guards against. A sidecar is only served when its
// header's architecture marker (endianness via a native-order stamp),
// element size, count, content key, and the parent snapshot file's exact
// size and mtime all match; anything else — a different architecture, a
// regenerated parent, a different geometry — fails closed and the column
// is recomputed (and the sidecar rewritten). Beyond the header, each open
// cross-checks a sample of entries against fresh decodes of the mapped
// snapshot, so drift that happens to preserve the header regenerates
// instead of silently replaying wrong data, and range-checks every plane
// entry against the geometry, so no corrupt entry can index past a table.
// A missing column is streamed into its sidecar chunk by chunk and mapped
// (buildSidecar): the whole column is never on the heap.
//
//	header (56 bytes): magic (8), arch marker (native-order uint64
//	                   0x0102030405060708), element size, element count,
//	                   content key (geometry fingerprint; 0 for times),
//	                   parent file size, parent mtime (ns)
//	body:              count * element-size bytes, the raw column
const (
	planeMagic      = "MPDP2\x00\x00\x00"
	timesMagic      = "MPTM1\x00\x00\x00"
	sidecarHdrSize  = 56
	sidecarArchMark = uint64(0x0102030405060708)
)

// geomFingerprint condenses the layout that defines a plane's decode into
// a comparable token. Layout is a plain value struct, so its printed form
// pins every field; FNV-1a keeps the token stable across runs.
func geomFingerprint(g *addr.Geom) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", g.Layout)
	return h.Sum64()
}

// openSidecar maps the sidecar at path and validates its header against
// the expected identity, returning the whole mapping and the body bytes.
func openSidecar(path, magic string, elem, n int, key uint64, parent parentStamp) (mapping, body []byte, ok bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, false
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, false
	}
	want := int64(sidecarHdrSize) + int64(elem)*int64(n)
	if fi.Size() != want {
		return nil, nil, false
	}
	m, err := mmapFile(f, int(want))
	if err != nil {
		return nil, nil, false
	}
	hdr := m[:sidecarHdrSize]
	valid := string(hdr[:8]) == magic &&
		*(*uint64)(unsafe.Pointer(&hdr[8])) == sidecarArchMark &&
		binary.LittleEndian.Uint64(hdr[16:]) == uint64(elem) &&
		binary.LittleEndian.Uint64(hdr[24:]) == uint64(n) &&
		binary.LittleEndian.Uint64(hdr[32:]) == key &&
		binary.LittleEndian.Uint64(hdr[40:]) == uint64(parent.size) &&
		binary.LittleEndian.Uint64(hdr[48:]) == uint64(parent.mtime)
	if !valid {
		munmapBytes(m)
		return nil, nil, false
	}
	return m, m[sidecarHdrSize:], true
}

// sidecarChunk is the entry count a streamed sidecar build computes and
// writes at a time: the only part of a derived column it ever holds on
// the heap.
const sidecarChunk = 1 << 14

// buildSidecar streams a derived column of n entries into a new sidecar
// at path and maps the result, so the column is never held on the heap:
// fill(dst) computes the next len(dst) entries, in order, one chunk at a
// time. The file is written under a temporary name and renamed into place,
// so concurrent opens see a complete sidecar or none. ok is false when the
// file cannot be written or mapped; the caller then computes the column on
// the heap. Sidecars are caches: a failed build leaves no file and no
// error.
func buildSidecar[T any](path, magic string, n int, key uint64, parent parentStamp, fill func(dst []T)) (col []T, mapping []byte, ok bool) {
	elem := int(unsafe.Sizeof(*new(T)))
	tmp, err := os.CreateTemp(filepath.Dir(path), ".sidecar-*")
	if err != nil {
		return nil, nil, false
	}
	defer os.Remove(tmp.Name())
	defer tmp.Close()
	var hdr [sidecarHdrSize]byte
	copy(hdr[:8], magic)
	*(*uint64)(unsafe.Pointer(&hdr[8])) = sidecarArchMark
	binary.LittleEndian.PutUint64(hdr[16:], uint64(elem))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(n))
	binary.LittleEndian.PutUint64(hdr[32:], key)
	binary.LittleEndian.PutUint64(hdr[40:], uint64(parent.size))
	binary.LittleEndian.PutUint64(hdr[48:], uint64(parent.mtime))
	if _, err := tmp.Write(hdr[:]); err != nil {
		return nil, nil, false
	}
	chunk := make([]T, min(n, sidecarChunk))
	for left := n; left > 0; left -= len(chunk) {
		chunk = chunk[:min(left, len(chunk))]
		fill(chunk)
		if _, err := tmp.Write(unsafe.Slice((*byte)(unsafe.Pointer(&chunk[0])), len(chunk)*elem)); err != nil {
			return nil, nil, false
		}
	}
	m, err := mmapFile(tmp, sidecarHdrSize+elem*n)
	if err != nil {
		return nil, nil, false
	}
	// The mapping outlives the file's name, so a failed rename still
	// leaves a correct column for this open; only later opens miss it.
	os.Rename(tmp.Name(), path)
	return unsafe.Slice((*T)(unsafe.Pointer(&m[sidecarHdrSize])), n), m, true
}

// planeSidecarPath names the plane sidecar for a snapshot file and
// geometry; timesSidecarPath the (layout-independent) time column's.
func planeSidecarPath(base string, g *addr.Geom) string {
	return fmt.Sprintf("%s.g%016x.plane", base, geomFingerprint(g))
}

func timesSidecarPath(base string) string { return base + ".times" }

// mapPlane serves the plane for the mapped snapshot s under g from its
// sidecar: a valid one maps in as is, and a missing or invalid one is
// streamed from the address, write and core columns into a fresh sidecar
// and mapped. It returns the plane, its mapping (for Release to unmap)
// and whether either step succeeded.
func mapPlane(s *Snapshot, g *addr.Geom) ([]Decoded, []byte, bool) {
	if s.n == 0 {
		return nil, nil, false
	}
	if dec, m, ok := openPlaneSidecar(s, g); ok {
		return dec, m, true
	}
	lo := 0
	return buildSidecar(planeSidecarPath(s.path, g), planeMagic, s.n, geomFingerprint(g), s.stamp, func(dst []Decoded) {
		s.decodeSpan(dst, lo, g)
		lo += len(dst)
	})
}

// openPlaneSidecar maps the plane sidecar for s under g if a valid one
// exists. The first and last 32 entries must match fresh decodes of the
// snapshot's columns, and every entry must index inside g's geometry and
// hold a valid write flag (planeInRange), so a corrupt entry can never
// send a mechanism or a channel past its tables.
func openPlaneSidecar(s *Snapshot, g *addr.Geom) ([]Decoded, []byte, bool) {
	n := s.n
	m, body, ok := openSidecar(planeSidecarPath(s.path, g), planeMagic, int(unsafe.Sizeof(Decoded{})), n, geomFingerprint(g), s.stamp)
	if !ok {
		return nil, nil, false
	}
	dec := unsafe.Slice((*Decoded)(unsafe.Pointer(&body[0])), n)
	// The range check runs first: it is what makes comparing the sampled
	// entries (whose Write bytes it vets) well defined.
	if !planeInRange(dec, g) {
		munmapBytes(m)
		return nil, nil, false
	}
	var want [1]Decoded
	for i := 0; i < n; i++ {
		if i == 32 && n > 64 {
			i = n - 32 // the first and the last 32 entries
		}
		if s.decodeSpan(want[:], i, g); dec[i] != want[0] {
			munmapBytes(m)
			return nil, nil, false
		}
	}
	return dec, m, true
}

// planeInRange reports whether every plane entry lies inside g's
// geometry — page, pod, home frame, channel, row and line each below its
// count — and holds a write flag byte of 0 or 1. Any core byte is valid
// (mech.TouchFilter keeps a register for each). The check reads the whole
// column, split over the cores like a heap plane's decode (splitSpan);
// the plane is in range when every part is.
func planeInRange(dec []Decoded, g *addr.Geom) bool {
	pages, frames := g.TotalPagesN(), uint64(g.PagesPerPodN())
	pods, chans := uint64(g.NumPods), uint64(g.Channels())
	// Rows grow with the frame index within each level, so each level's
	// last frame holds its highest row.
	var rows uint64
	if fast := g.FastPerPod(); fast > 0 {
		rows = g.FrameLocation(0, addr.Frame(fast-1), 0).Row + 1
	}
	if frames > uint64(g.FastPerPod()) {
		rows = max(rows, g.FrameLocation(0, addr.Frame(frames-1), 0).Row+1)
	}
	// Branch-free, as the check reads every entry of a multi-MB column:
	// for x, bound < 2^63, x < bound exactly when x-bound wraps to a value
	// with the top bit set; masking with ^x also rejects a Page at or
	// above 2^63. The other fields are narrower than 32 bits. The write
	// flag is read as its raw byte: mapped memory may hold any value
	// there, and only 0 and 1 are bools.
	var mu sync.Mutex
	ok := ^uint64(0)
	splitSpan(len(dec), func(lo, hi int) {
		part := ^uint64(0)
		for i := lo; i < hi; i++ {
			d := &dec[i]
			w := *(*uint8)(unsafe.Pointer(&d.Write))
			part &= (d.Page - pages) &^ d.Page
			part &= (uint64(d.Pod) - pods) & (uint64(d.Frame) - frames) & (uint64(d.Chan) - chans) &
				(uint64(d.Row) - rows) & (uint64(d.Line) - addr.LinesPerPage) & (uint64(w) - 2)
		}
		mu.Lock()
		ok &= part
		mu.Unlock()
	})
	return ok>>63 == 1
}

// buildTimesSidecar streams the decoded time column for the snapshot at
// base from times, its validated varint column, into a fresh sidecar and
// maps it. OpenMapped has already adopted a valid existing sidecar, so
// TimeColumn only calls this when there is none.
func buildTimesSidecar(base string, parent parentStamp, times []byte, n int) ([]clock.Time, []byte, bool) {
	if n == 0 {
		return nil, nil, false
	}
	var d timeDecoder
	return buildSidecar(timesSidecarPath(base), timesMagic, n, 0, parent, func(dst []clock.Time) {
		d.decode(times, dst)
	})
}

// openTimesSidecar maps the decoded time column sidecar for base if a
// valid one exists. times is the snapshot's packed varint column; the
// sample check re-decodes the first entries from it.
func openTimesSidecar(base string, parent parentStamp, times []byte, n int) ([]clock.Time, []byte, bool) {
	if n == 0 {
		return nil, nil, false
	}
	m, body, ok := openSidecar(timesSidecarPath(base), timesMagic, 8, n, 0, parent)
	if !ok {
		return nil, nil, false
	}
	col := unsafe.Slice((*clock.Time)(unsafe.Pointer(&body[0])), n)
	sample := 32
	if sample > n {
		sample = n
	}
	off := 0
	var now clock.Time
	for i := 0; i < sample; i++ {
		delta, vn := binary.Uvarint(times[off:])
		if vn <= 0 {
			munmapBytes(m)
			return nil, nil, false
		}
		off += vn
		now += clock.Time(delta)
		if col[i] != now {
			munmapBytes(m)
			return nil, nil, false
		}
	}
	return col, m, true
}
