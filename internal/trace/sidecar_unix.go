//go:build (linux || darwin) && !nomap

package trace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
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
// instead of silently replaying wrong data.
//
//	header (56 bytes): magic (8), arch marker (native-order uint64
//	                   0x0102030405060708), element size, element count,
//	                   content key (geometry fingerprint; 0 for times),
//	                   parent file size, parent mtime (ns)
//	body:              count * element-size bytes, the raw column
const (
	planeMagic      = "MPDP1\x00\x00\x00"
	timesMagic      = "MPTM1\x00\x00\x00"
	sidecarHdrSize  = 56
	sidecarArchMark = uint64(0x0102030405060708)
)

// parentStamp identifies the exact on-disk parent snapshot a sidecar was
// derived from: its byte size and modification time. tracecache persists
// snapshots by rename, so a regenerated parent always changes the stamp
// and orphans the old sidecars.
type parentStamp struct {
	size  int64
	mtime int64
}

func stampOf(path string) (parentStamp, bool) {
	fi, err := os.Stat(path)
	if err != nil {
		return parentStamp{}, false
	}
	return parentStamp{size: fi.Size(), mtime: fi.ModTime().UnixNano()}, true
}

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

// writeSidecar persists a derived column next to its snapshot file,
// atomically (temp + rename) so concurrent opens see a complete file or
// none. Best-effort: failures leave no sidecar and no error — sidecars
// are caches, and the computed column in hand is always correct.
func writeSidecar(path, magic string, elem, n int, key uint64, parent parentStamp, body []byte) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".sidecar-*")
	if err != nil {
		return
	}
	defer os.Remove(tmp.Name())
	var hdr [sidecarHdrSize]byte
	copy(hdr[:8], magic)
	*(*uint64)(unsafe.Pointer(&hdr[8])) = sidecarArchMark
	binary.LittleEndian.PutUint64(hdr[16:], uint64(elem))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(n))
	binary.LittleEndian.PutUint64(hdr[32:], key)
	binary.LittleEndian.PutUint64(hdr[40:], uint64(parent.size))
	binary.LittleEndian.PutUint64(hdr[48:], uint64(parent.mtime))
	if _, err := tmp.Write(hdr[:]); err != nil {
		tmp.Close()
		return
	}
	if _, err := tmp.Write(body); err != nil {
		tmp.Close()
		return
	}
	if tmp.Close() != nil {
		return
	}
	os.Rename(tmp.Name(), path)
}

// planeSidecarPath names the plane sidecar for a snapshot file and
// geometry; timesSidecarPath the (layout-independent) time column's.
func planeSidecarPath(base string, g *addr.Geom) string {
	return fmt.Sprintf("%s.g%016x.plane", base, geomFingerprint(g))
}

func timesSidecarPath(base string) string { return base + ".times" }

// openPlaneSidecar maps the plane sidecar for (base, g) if a valid one
// exists, returning the plane, its backing mapping (for Release to unmap)
// and whether it was usable. addrs is the snapshot's address column, used
// to cross-check a sample of entries against fresh decodes.
func openPlaneSidecar(base string, g *addr.Geom, addrs []byte, n int) ([]Decoded, []byte, bool) {
	if n == 0 {
		return nil, nil, false
	}
	parent, ok := stampOf(base)
	if !ok {
		return nil, nil, false
	}
	elem := int(unsafe.Sizeof(Decoded{}))
	m, body, ok := openSidecar(planeSidecarPath(base, g), planeMagic, elem, n, geomFingerprint(g), parent)
	if !ok {
		return nil, nil, false
	}
	dec := unsafe.Slice((*Decoded)(unsafe.Pointer(&body[0])), n)
	check := func(i int) bool {
		a := binary.LittleEndian.Uint64(addrs[8*i:])
		return dec[i] == Decode(a, g)
	}
	lo := 32
	if lo > n {
		lo = n
	}
	for i := 0; i < lo; i++ {
		if !check(i) {
			munmapBytes(m)
			return nil, nil, false
		}
	}
	for i := n - 32; i < n; i++ {
		if i < lo {
			continue
		}
		if !check(i) {
			munmapBytes(m)
			return nil, nil, false
		}
	}
	return dec, m, true
}

// writePlaneSidecar persists a computed plane for the snapshot at base.
func writePlaneSidecar(base string, g *addr.Geom, dec []Decoded) {
	if len(dec) == 0 {
		return
	}
	parent, ok := stampOf(base)
	if !ok {
		return
	}
	elem := int(unsafe.Sizeof(Decoded{}))
	body := unsafe.Slice((*byte)(unsafe.Pointer(&dec[0])), len(dec)*elem)
	writeSidecar(planeSidecarPath(base, g), planeMagic, elem, len(dec), geomFingerprint(g), parent, body)
}

// openTimesSidecar maps the decoded time column sidecar for base if a
// valid one exists. times is the snapshot's packed varint column; the
// sample check re-decodes the first entries from it.
func openTimesSidecar(base string, times []byte, n int) ([]clock.Time, []byte, bool) {
	if n == 0 {
		return nil, nil, false
	}
	parent, ok := stampOf(base)
	if !ok {
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

// writeTimesSidecar persists a decoded time column for the snapshot at
// base.
func writeTimesSidecar(base string, col []clock.Time) {
	if len(col) == 0 {
		return
	}
	parent, ok := stampOf(base)
	if !ok {
		return
	}
	body := unsafe.Slice((*byte)(unsafe.Pointer(&col[0])), len(col)*8)
	writeSidecar(timesSidecarPath(base), timesMagic, 8, len(col), 0, parent, body)
}
