package trace

import (
	"encoding/binary"
	"fmt"
	"os"
)

// MapSupported reports whether OpenMapped can memory-map snapshot files
// on this platform/build. When false (unsupported OS, or the `nomap`
// build tag), OpenMapped still works but falls back to the copying
// ReadSnapshot path.
func MapSupported() bool { return mapSupported }

// OpenMapped opens an MPS1 snapshot file with its columns aliasing a
// read-only memory mapping of the file: replay touches the address,
// timestamp, write and core columns without ever copying them onto the
// heap. The returned snapshot owns the mapping — Release unmaps it — and
// must not be used after Release. The derived columns of a mapped
// snapshot are store-backed too: Plane and TimeColumn serve the predecode
// planes and the decoded time column from sidecar files next to the
// snapshot, streaming a missing sidecar into place and mapping it, so
// neither column lives on the heap.
//
// On platforms or builds without mmap (see MapSupported) the file is
// read through ReadSnapshot instead, yielding an identical heap-backed
// snapshot.
func OpenMapped(path string) (*Snapshot, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	if !mapSupported {
		return ReadSnapshot(f)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, "", err
	}
	size := fi.Size()
	if size == 0 {
		return nil, "", fmt.Errorf("%w: empty snapshot file %s", ErrBadTrace, path)
	}
	if size != int64(int(size)) {
		return nil, "", fmt.Errorf("%w: snapshot file %s too large to map", ErrBadTrace, path)
	}
	data, err := mmapFile(f, int(size))
	if err != nil {
		// Mapping can fail on exotic filesystems; the copying reader is
		// always available.
		return ReadSnapshot(f)
	}
	s, name, err := parseSnapshotBytes(data)
	if err != nil {
		munmapBytes(data)
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	// A valid times sidecar attests a prior complete decode of this exact
	// file's varint column (its header pins the parent's size and mtime),
	// so adopt it as the decoded time column and skip the O(n) varint
	// re-validation this open would otherwise pay. Without one, validate
	// up front exactly as the copying reader does.
	stamp := parentStamp{size: size, mtime: fi.ModTime().UnixNano()}
	if col, m, ok := openTimesSidecar(path, stamp, s.times, s.n); ok {
		s.timeCol, s.timeValid, s.timeMapped = col, true, m
	} else if err := validateTimes(s.times, uint64(s.n)); err != nil {
		munmapBytes(data)
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	s.mapped, s.path, s.stamp = data, path, stamp
	return s, name, nil
}

// parentStamp identifies the exact on-disk snapshot a sidecar derives
// from: its byte size and modification time when it was opened.
// Rewriting or replacing the snapshot file changes the stamp and orphans
// the old sidecars.
type parentStamp struct {
	size  int64
	mtime int64
}

// parseSnapshotBytes decodes the MPS1 layout in place: the returned
// snapshot's columns are subslices of data, no copies. Errors name the
// byte offset where decoding failed so a truncated or corrupt file is
// diagnosable without a hex dump. Structural only — the caller decides
// how to establish the times column's varint integrity (validateTimes,
// or a sidecar attesting a prior full decode).
func parseSnapshotBytes(data []byte) (*Snapshot, string, error) {
	off := 0
	take := func(n int, what string) ([]byte, error) {
		if len(data)-off < n {
			return nil, fmt.Errorf("%w: truncated %s at offset %d (need %d bytes, have %d)",
				ErrBadTrace, what, off, n, len(data)-off)
		}
		b := data[off : off+n]
		off += n
		return b, nil
	}
	magic, err := take(4, "snapshot magic")
	if err != nil {
		return nil, "", err
	}
	if string(magic) != snapMagic {
		return nil, "", fmt.Errorf("%w: bad snapshot magic %q", ErrBadTrace, magic)
	}
	nl, err := take(2, "name length")
	if err != nil {
		return nil, "", err
	}
	name, err := take(int(binary.LittleEndian.Uint16(nl)), "snapshot name")
	if err != nil {
		return nil, "", err
	}
	counts, err := take(16, "snapshot counts")
	if err != nil {
		return nil, "", err
	}
	n := binary.LittleEndian.Uint64(counts[:8])
	timesLen := binary.LittleEndian.Uint64(counts[8:])
	const maxReasonable = 1 << 32
	if n > maxReasonable || timesLen > 10*n+16 {
		return nil, "", fmt.Errorf("%w: implausible snapshot sizes (n=%d, times=%d)", ErrBadTrace, n, timesLen)
	}
	if timesLen < n {
		// Every request costs at least one varint byte.
		return nil, "", fmt.Errorf("%w: times column shorter than request count", ErrBadTrace)
	}
	s := &Snapshot{n: int(n), shared: true}
	words := int(n+63) / 64
	if s.times, err = take(int(timesLen), "times column"); err != nil {
		return nil, "", err
	}
	if s.addrs, err = take(8*int(n), "address column"); err != nil {
		return nil, "", err
	}
	if s.writes, err = take(8*words, "writes column"); err != nil {
		return nil, "", err
	}
	if s.cores, err = take(int(n), "cores column"); err != nil {
		return nil, "", err
	}
	if off != len(data) {
		return nil, "", fmt.Errorf("%w: %d trailing bytes at offset %d", ErrBadTrace, len(data)-off, off)
	}
	return s, string(name), nil
}
