package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/addr"
	"repro/internal/clock"
)

// Snapshot is a packed, immutable recording of a trace: the generate-once
// form that every experiment cell replays instead of re-running the
// workload generators. The encoding is columnar so each field packs to its
// entropy rather than its struct size:
//
//   - times: unsigned-varint deltas between consecutive timestamps (the
//     stream is time-ordered, so deltas are small — a few bytes each
//     instead of 8). Deltas are computed with wrapping uint64 arithmetic,
//     so decoding reproduces any int64 sequence exactly, ordered or not.
//   - addrs: raw 64-bit addresses (high-entropy, left uncompressed).
//   - writes: one bit per request.
//   - cores: one byte per request.
//
// At the generators' timestamp distribution this is ~12 B/request versus
// the 24 B in-memory Request, and replaying it costs a few ns/request
// with zero allocations — an order of magnitude cheaper than regenerating
// the trace.
//
// A Snapshot is read-only after Record: any number of Stream cursors may
// replay it concurrently. Release returns its buffers to a pool for the
// next Record; the caller must guarantee no cursor is still in use
// (internal/tracecache's refcounting does exactly that).
type Snapshot struct {
	n int
	// All four columns are byte slices in exactly the MPS1 file layout
	// (addrs as little-endian uint64s, writes as little-endian uint64
	// bitset words), so a snapshot can be backed either by buffers Record
	// owns or — zero-copy — by an OpenMapped file mapping. In the LE word
	// layout, request i's write bit is bit i&7 of byte i>>3.
	times  []byte // uvarint deltas, first entry delta from time 0
	addrs  []byte // 8 bytes per request
	writes []byte // bitset, 8*ceil(n/64) bytes
	cores  []byte // one per request

	// mapped is the whole file mapping when the snapshot came from
	// OpenMapped; the columns alias it, Release unmaps it, and the
	// snapshot never enters the recording pool. path is the mapped file's
	// location, the anchor for its sidecars ("" for heap snapshots), and
	// stamp the file's identity when it was opened.
	mapped []byte
	path   string
	stamp  parentStamp

	// shared marks columns that alias one shared backing buffer
	// (ReadSnapshot slices all of them out of a single read buffer;
	// parseSnapshotBytes out of the caller's byte slice). Such a snapshot
	// must never enter the recording pool: Record reuses pooled column
	// slices in place, and overlapping columns would overwrite each
	// other. Release lets the GC reclaim these instead.
	shared bool

	// Predecode planes, one per address layout that asked (see Plane).
	// Guarded by planeMu; the plane buffers recycle with the snapshot.
	planeMu sync.Mutex
	planes  []plane

	// Decoded absolute timestamps (see TimeColumn), built lazily like the
	// planes and likewise recycled — or served from a mapped sidecar
	// (timeMapped non-nil), in which case the buffer aliases read-only
	// file memory and Release unmaps it. Guarded by timeMu.
	timeMu     sync.Mutex
	timeCol    []clock.Time
	timeValid  bool
	timeMapped []byte
}

// Decoded is the page/pod/home-frame/line decomposition of a request's
// address under one addr.Layout (see Decode) — including the home frame's
// channel/row placement, so an unmigrated access needs no address math at
// all. A snapshot's predecode plane holds one per recorded request,
// computed once per snapshot and layout instead of once per simulation
// cell; the engine decodes the batches of plain streams and plane-less
// cursors itself, into a scratch plane. 24 bytes, so a 256-entry batch
// (6 KB) stays L1-resident.
type Decoded struct {
	Page  uint64 // global page index (addr.PageOf)
	Frame uint32 // home frame within the owning pod (addr.Layout.HomeFrame)
	Row   uint32 // row within Chan holding the home frame (FrameLocation)
	Chan  uint16 // channel servicing the home frame (FrameLocation)
	Pod   uint16 // owning pod
	Line  uint8  // line index within the page, [0, addr.LinesPerPage)
}

// plane is one cached predecode plane and the layout it was decoded under.
// Record invalidates planes but keeps their buffers, so a pooled snapshot's
// next recording reuses the capacity. A plane served from a mapped sidecar
// (mapped non-nil) aliases read-only file memory: its buffer is never
// reused for computation, and Release unmaps it with the snapshot.
type plane struct {
	layout addr.Layout
	valid  bool
	dec    []Decoded
	mapped []byte
}

// maxFreeSnapshots bounds the recording free list. A matrix run holds at
// most a few snapshots at once (one per worker, plus one), so a handful
// of entries recycles every buffer it needs.
const maxFreeSnapshots = 4

// snapFree recycles snapshot buffers across recordings, the same idiom as
// internal/tab's pools: a matrix run records one snapshot per workload,
// and the next workload's Record appends into the previous one's released
// capacity instead of growing fresh multi-MB slices. A mutex-guarded list
// rather than a sync.Pool, because a sync.Pool entry sits in the
// releasing P's private slot, which a Record running on another P cannot
// take: it would allocate a fresh snapshot while the old one awaits GC.
var snapFree struct {
	mu   sync.Mutex
	list []*Snapshot
}

// getSnapshot takes the most recently released snapshot from the free
// list, or returns a new one when the list is empty.
func getSnapshot() *Snapshot {
	snapFree.mu.Lock()
	defer snapFree.mu.Unlock()
	l := snapFree.list
	if len(l) == 0 {
		return new(Snapshot)
	}
	snapFree.list = l[:len(l)-1]
	return l[len(l)-1]
}

// putSnapshot returns a snapshot to the free list, or drops it for the GC
// when the list is full.
func putSnapshot(s *Snapshot) {
	snapFree.mu.Lock()
	defer snapFree.mu.Unlock()
	if len(snapFree.list) < maxFreeSnapshots {
		snapFree.list = append(snapFree.list, s)
	}
}

// Record drains up to n requests from s into a packed Snapshot. It is the
// capture half of the record/replay pair; Snapshot.Stream is the replay
// half, and replaying yields the recorded requests bit-for-bit.
func Record(s Stream, n int) *Snapshot {
	snap := getSnapshot()
	if cap(snap.addrs) < 8*n {
		snap.addrs = make([]byte, 0, 8*n)
		snap.writes = make([]byte, 0, 8*((n+63)/64))
		snap.cores = make([]byte, 0, n)
	}
	snap.times = snap.times[:0]
	snap.addrs = snap.addrs[:0]
	snap.writes = snap.writes[:0]
	snap.cores = snap.cores[:0]
	snap.n = 0
	for i := range snap.planes {
		snap.planes[i].valid = false
	}
	snap.timeValid = false

	var r Request
	var prev clock.Time
	var wword uint64
	for snap.n < n && s.Next(&r) {
		snap.times = binary.AppendUvarint(snap.times, uint64(r.Time)-uint64(prev))
		prev = r.Time
		snap.addrs = binary.LittleEndian.AppendUint64(snap.addrs, r.Addr)
		snap.cores = append(snap.cores, r.Core)
		if r.Write {
			wword |= 1 << (uint(snap.n) & 63)
		}
		snap.n++
		if snap.n&63 == 0 {
			snap.writes = binary.LittleEndian.AppendUint64(snap.writes, wword)
			wword = 0
		}
	}
	if snap.n&63 != 0 {
		snap.writes = binary.LittleEndian.AppendUint64(snap.writes, wword)
	}
	return snap
}

// Len returns the number of recorded requests.
func (s *Snapshot) Len() int { return s.n }

// Size returns the packed size in bytes, the resident cost of keeping the
// snapshot cached.
func (s *Snapshot) Size() int {
	return len(s.times) + len(s.addrs) + len(s.writes) + len(s.cores)
}

// Mapped reports whether the snapshot's columns alias a file mapping
// (OpenMapped) rather than heap buffers.
func (s *Snapshot) Mapped() bool { return s.mapped != nil }

// Release returns the snapshot's buffers to the recording pool — or, for
// a mapped snapshot, unmaps the file and discards the struct (mapped
// column memory belongs to the kernel, never to the pool). The caller
// must not use the snapshot — or any Stream cursor over it — afterwards.
func (s *Snapshot) Release() {
	for i := range s.planes {
		if m := s.planes[i].mapped; m != nil {
			s.planes[i] = plane{}
			munmapBytes(m)
		}
	}
	if m := s.timeMapped; m != nil {
		s.timeMapped, s.timeCol, s.timeValid = nil, nil, false
		munmapBytes(m)
	}
	if s.mapped != nil {
		m := s.mapped
		s.mapped, s.path, s.stamp, s.times, s.addrs, s.writes, s.cores, s.n = nil, "", parentStamp{}, nil, nil, nil, nil, 0
		munmapBytes(m)
		return
	}
	if s.shared {
		// Aliased columns (ReadSnapshot's single read buffer) would
		// corrupt the next Record if pooled; drop them to the GC.
		return
	}
	putSnapshot(s)
}

// Stream returns a fresh replay cursor over the snapshot. Cursors are
// independent: concurrent cells replaying one snapshot each take their own.
func (s *Snapshot) Stream() *SnapshotStream {
	return &SnapshotStream{snap: s}
}

// Decode is the per-address decomposition every mechanism access starts
// from: the address's page, home pod/frame, line-in-page and the home
// frame's channel/row under g's layout. Plane entries, the sidecar open's
// sample validation and the engine's per-batch decode of plain streams
// all call it, so the decomposition has one definition.
func Decode(a uint64, g *addr.Geom) Decoded {
	p := addr.PageOf(addr.Addr(a))
	pod, f := g.HomeFrame(p)
	loc := g.FrameLocation(pod, f, 0)
	return Decoded{
		Page:  uint64(p),
		Frame: uint32(f),
		Row:   uint32(loc.Row),
		Chan:  uint16(loc.Channel),
		Pod:   uint16(pod),
		Line:  uint8(uint64(addr.LineOf(addr.Addr(a))) % addr.LinesPerPage),
	}
}

// Plane returns the snapshot's predecode plane for g's layout, computing
// it on first request: one Decoded entry per recorded request. Planes are
// cached per layout (the experiment matrix mixes the standard two-level
// layout with single-level reference layouts), so all cells sharing a
// layout share one decode pass; computation is single-flight under the
// snapshot's lock. The returned slice is read-only and lives exactly as
// long as the snapshot: Release recycles the plane buffers with it.
//
// For a snapshot mapped from a store file (OpenMapped), the plane itself
// is store-backed: a valid sidecar next to the file maps in zero-copy,
// and a missing one is streamed into place and mapped — so steady-state
// replay decodes each (workload, layout) pair once per store lifetime,
// not once per batch, and never holds the plane on the heap. The heap
// path remains for heap snapshots and for a sidecar that cannot be
// written.
func (s *Snapshot) Plane(g *addr.Geom) []Decoded {
	s.planeMu.Lock()
	defer s.planeMu.Unlock()
	slot := -1
	for i := range s.planes {
		if s.planes[i].valid {
			if s.planes[i].layout == g.Layout {
				return s.planes[i].dec
			}
		} else if slot < 0 {
			slot = i
		}
	}
	if slot < 0 {
		s.planes = append(s.planes, plane{})
		slot = len(s.planes) - 1
	}
	pl := &s.planes[slot]
	if s.path != "" {
		if dec, m, ok := mapPlane(s.path, s.stamp, g, s.addrs, s.n); ok {
			*pl = plane{layout: g.Layout, valid: true, dec: dec, mapped: m}
			return dec
		}
	}
	dec := pl.dec
	if cap(dec) < s.n || pl.mapped != nil {
		dec = make([]Decoded, s.n)
	} else {
		dec = dec[:s.n]
	}
	for i := 0; i < s.n; i++ {
		a := binary.LittleEndian.Uint64(s.addrs[8*i:])
		dec[i] = Decode(a, g)
	}
	*pl = plane{layout: g.Layout, valid: true, dec: dec}
	return dec
}

// TimeColumn returns the snapshot's absolute timestamps as a dense column,
// decoding the varint deltas once on first request. Like Plane, the column
// is shared by every cursor over the snapshot (single-flight under a lock)
// and its buffer recycles with the snapshot, so the six mechanism cells
// replaying one workload pay one decode pass instead of six — and for a
// store-mapped snapshot the column is itself store-backed via a mapped
// sidecar, so steady-state opens pay none at all.
func (s *Snapshot) TimeColumn() []clock.Time {
	s.timeMu.Lock()
	defer s.timeMu.Unlock()
	if s.timeValid {
		return s.timeCol
	}
	if s.path != "" {
		if col, m, ok := buildTimesSidecar(s.path, s.stamp, s.times, s.n); ok {
			s.timeCol, s.timeValid, s.timeMapped = col, true, m
			return col
		}
	}
	col := s.timeCol
	if cap(col) < s.n || s.timeMapped != nil {
		col = make([]clock.Time, s.n)
	} else {
		col = col[:s.n]
	}
	var d timeDecoder
	d.decode(s.times, col)
	s.timeCol, s.timeValid = col, true
	return col
}

// timeDecoder decodes a varint times column into absolute timestamps, in
// consecutive pieces: off is the next varint's byte offset and now the
// last decoded timestamp.
type timeDecoder struct {
	off int
	now clock.Time
}

// decode fills dst with the next len(dst) timestamps. The column must hold
// that many complete varints (validateTimes, or Record's own encoding).
func (d *timeDecoder) decode(times []byte, dst []clock.Time) {
	off, now := d.off, d.now
	for i := range dst {
		var delta uint64
		delta, off = uvarint(times, off)
		now += clock.Time(delta)
		dst[i] = now
	}
	d.off, d.now = off, now
}

// uvarint decodes the varint at times[off] and returns it with the offset
// just past it: the one varint step of the times column, which inlines
// into both of its callers (timeDecoder.decode and SnapshotStream.Next).
// The varint must be complete; Record and validateTimes guarantee it.
func uvarint(times []byte, off int) (v uint64, next int) {
	var shift uint
	for {
		b := times[off]
		off++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, off
		}
		shift += 7
	}
}

// DecodedStream returns a replay cursor with the plane for g's layout and
// the decoded time column bound, so batch replay is pure column reads with
// no per-cell varint or address decoding.
func (s *Snapshot) DecodedStream(g *addr.Geom) *SnapshotStream {
	return &SnapshotStream{snap: s, dec: s.Plane(g), times: s.TimeColumn()}
}

// SnapshotStream replays a Snapshot as a trace.Stream. Next performs no
// allocation: it decodes one varint delta and indexes the columnar arrays.
// NextBatch amortizes the cursor bookkeeping over whole batches and, when a
// predecode plane is bound (DecodedStream), delivers each
// request's Decoded entry alongside it. A copy of a SnapshotStream value
// is an independent cursor at the same position.
type SnapshotStream struct {
	snap  *Snapshot
	dec   []Decoded    // bound predecode plane, nil if none
	times []clock.Time // bound decoded time column, nil if none
	pos   int          // next request index
	off   int          // byte offset into snap.times (varint path only)
	now   clock.Time   // running timestamp (varint path only)
}

// Next implements Stream.
func (ss *SnapshotStream) Next(r *Request) bool {
	s := ss.snap
	if ss.pos >= s.n {
		return false
	}
	if ss.times != nil {
		r.Time = ss.times[ss.pos]
	} else {
		var delta uint64
		delta, ss.off = uvarint(s.times, ss.off)
		ss.now += clock.Time(delta)
		r.Time = ss.now
	}
	r.Addr = binary.LittleEndian.Uint64(s.addrs[8*ss.pos:])
	r.Core = s.cores[ss.pos]
	r.Write = s.writes[ss.pos>>3]>>(uint(ss.pos)&7)&1 != 0
	ss.pos++
	return true
}

// Reset rewinds the cursor to the beginning of the snapshot.
func (ss *SnapshotStream) Reset() {
	ss.pos, ss.off, ss.now = 0, 0, 0
}

// Snapshot returns the snapshot the cursor replays.
func (ss *SnapshotStream) Snapshot() *Snapshot { return ss.snap }

// Columns is the column-by-column form of a decoded cursor's snapshot,
// for readers that index requests directly instead of batch-copying them:
// the pod-parallel engine's workers read every request's time, core and
// plane entry but reassemble only the requests of their own pods. Times,
// Plane and Cores have one read-only entry per request of the snapshot,
// aliasing its shared columns; Pos is the first request the cursor had
// not delivered.
type Columns struct {
	Times []clock.Time
	Plane []Decoded
	Cores []byte
	Pos   int
	snap  *Snapshot
}

// Columns returns the cursor's columns and advances the cursor to the end
// of the snapshot: the caller takes over reading the remaining requests.
// ok is false, and the cursor untouched, unless both the plane and the
// time column are bound (DecodedStream).
func (ss *SnapshotStream) Columns() (c Columns, ok bool) {
	if ss.dec == nil || ss.times == nil {
		return Columns{}, false
	}
	s := ss.snap
	c = Columns{Times: ss.times[:s.n], Plane: ss.dec[:s.n], Cores: s.cores[:s.n], Pos: ss.pos, snap: s}
	ss.pos = s.n
	return c, true
}

// Request reassembles request i of the snapshot into r.
func (c *Columns) Request(i int, r *Request) {
	s := c.snap
	*r = Request{
		Addr:  binary.LittleEndian.Uint64(s.addrs[8*i:]),
		Time:  c.Times[i],
		Write: s.writes[i>>3]>>(uint(i)&7)&1 != 0,
		Core:  c.Cores[i],
	}
}

// NextBatch fills dst with up to len(dst) requests and returns how many
// were produced (0 at end of stream). When a plane is bound and `plane` is
// non-nil, plane[i] receives the predecoded form of dst[i]; plane must
// then be at least len(dst) long. The request sequence is identical to
// repeated Next calls, and the two may be mixed on one cursor.
func (ss *SnapshotStream) NextBatch(dst []Request, plane []Decoded) int {
	base := ss.pos
	n := ss.fillBatch(dst)
	if n > 0 && ss.dec != nil && plane != nil {
		copy(plane[:n], ss.dec[base:base+n])
	}
	return n
}

// NextBatchShared is NextBatch without the plane copy, the simulation
// engine's batch source for snapshot cursors. The batch's decoded entries
// come back as a read-only subslice of the bound plane, valid until the
// next cursor advance (nil when no plane is bound).
func (ss *SnapshotStream) NextBatchShared(dst []Request) (int, []Decoded) {
	base := ss.pos
	n := ss.fillBatch(dst)
	if n == 0 || ss.dec == nil {
		return n, nil
	}
	return n, ss.dec[base : base+n]
}

// fillBatch advances the cursor by up to len(dst) requests, writing them
// into dst, and returns the count. A cursor without a decoded time column
// fills its batch through Next.
func (ss *SnapshotStream) fillBatch(dst []Request) int {
	if ss.times == nil {
		n := 0
		for n < len(dst) && ss.Next(&dst[n]) {
			n++
		}
		return n
	}
	s := ss.snap
	n := s.n - ss.pos
	if n <= 0 {
		return 0
	}
	if n > len(dst) {
		n = len(dst)
	}
	base := ss.pos
	// Hoist the column slices so the per-request body indexes with
	// compiler-visible bounds. Addr reads go through the little-endian
	// byte column: byte-aligned loads, safe on mapped memory under the
	// race detector's checkptr.
	addrs := s.addrs[8*base : 8*(base+n)]
	cores := s.cores[base : base+n]
	writes := s.writes
	ts := ss.times[base : base+n]
	for i := 0; i < n; i++ {
		p := base + i
		dst[i] = Request{
			Addr:  binary.LittleEndian.Uint64(addrs[8*i:]),
			Time:  ts[i],
			Write: writes[p>>3]>>(uint(p)&7)&1 != 0,
			Core:  cores[i],
		}
	}
	ss.pos = base + n
	return n
}

// Snapshot file format (the -trace-in/-trace-out persistence of
// cmd/mempodsim):
//
//	header:  magic "MPS1" (4 bytes), name length (uint16 LE), name bytes,
//	         request count (uint64 LE), times length (uint64 LE)
//	columns: times (raw varint bytes), addrs (uint64 LE each),
//	         writes bitset (uint64 LE words), cores (raw bytes)
const snapMagic = "MPS1"

// ErrBadTrace reports a malformed snapshot file. Every decoder error for
// corrupt input (ReadSnapshot, OpenMapped) wraps it.
var ErrBadTrace = errors.New("trace: malformed trace file")

// WriteSnapshot persists a snapshot, labelled with the workload name that
// produced it, in the packed columnar format.
func WriteSnapshot(w io.Writer, name string, s *Snapshot) error {
	if len(name) > 1<<16-1 {
		return fmt.Errorf("trace: snapshot name %q too long", name)
	}
	hdr := make([]byte, 0, 4+2+len(name)+8+8)
	hdr = append(hdr, snapMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(name)))
	hdr = append(hdr, name...)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(s.n))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(s.times)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	// The columns are already in file layout; write them through directly.
	for _, col := range [][]byte{s.times, s.addrs, s.writes, s.cores} {
		if _, err := w.Write(col); err != nil {
			return err
		}
	}
	return nil
}

// ReadSnapshot loads a snapshot written by WriteSnapshot and returns it
// with its recorded workload name.
func ReadSnapshot(r io.Reader) (*Snapshot, string, error) {
	var fixed [4 + 2]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, "", fmt.Errorf("trace: reading snapshot header: %w", err)
	}
	if string(fixed[:4]) != snapMagic {
		return nil, "", fmt.Errorf("%w: bad snapshot magic %q", ErrBadTrace, fixed[:4])
	}
	nameBuf := make([]byte, binary.LittleEndian.Uint16(fixed[4:]))
	if _, err := io.ReadFull(r, nameBuf); err != nil {
		return nil, "", fmt.Errorf("%w: truncated snapshot name: %v", ErrBadTrace, err)
	}
	var counts [16]byte
	if _, err := io.ReadFull(r, counts[:]); err != nil {
		return nil, "", fmt.Errorf("%w: truncated snapshot header: %v", ErrBadTrace, err)
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
	// Column bytes are buffered incrementally (bytes.Buffer grows as data
	// arrives), so a corrupt header cannot demand an enormous up-front
	// allocation.
	var err error
	if s.times, err = readColumn(r, int64(timesLen)); err != nil {
		return nil, "", fmt.Errorf("%w: truncated times column: %v", ErrBadTrace, err)
	}
	words := int(n+63) / 64
	buf, err := readColumn(r, 8*int64(n)+8*int64(words)+int64(n))
	if err != nil {
		return nil, "", fmt.Errorf("%w: truncated snapshot columns: %v", ErrBadTrace, err)
	}
	// The columns are stored in file layout, so they slice straight out of
	// the read buffer with no re-encoding.
	s.addrs = buf[:8*int(n)]
	s.writes = buf[8*int(n) : 8*int(n)+8*words]
	s.cores = buf[8*int(n)+8*words:]
	if err := validateTimes(s.times, n); err != nil {
		return nil, "", err
	}
	return s, string(nameBuf), nil
}

// validateTimes checks that a times column holds exactly n complete
// varints with no trailing bytes, so a replay cursor can never index past
// the slice.
func validateTimes(times []byte, n uint64) error {
	off := 0
	for i := uint64(0); i < n; i++ {
		_, vn := binary.Uvarint(times[off:])
		if vn <= 0 {
			return fmt.Errorf("%w: corrupt times column at request %d", ErrBadTrace, i)
		}
		off += vn
	}
	if off != len(times) {
		return fmt.Errorf("%w: %d trailing bytes in times column", ErrBadTrace, len(times)-off)
	}
	return nil
}

// readColumn reads exactly n bytes, growing the buffer only as bytes
// actually arrive.
func readColumn(r io.Reader, n int64) ([]byte, error) {
	var b bytes.Buffer
	if _, err := io.CopyN(&b, r, n); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
