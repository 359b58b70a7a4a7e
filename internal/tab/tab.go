// Package tab provides the dense, reusable table structures behind the
// simulator's allocation-free per-request hot path.
//
// Mechanisms burn a surprising share of a short simulation constructing
// and destructing their bookkeeping state: a remap table over 4.5 M pages
// is 18 MB that must be allocated, zeroed by the runtime, and then
// overwritten with the identity mapping — per simulation cell. The types
// here make that cost amortize away:
//
//   - U32 is an identity-initialized uint32 table (remap/inverted tables)
//     that journals every write, so restoring it to the identity costs
//     O(writes), not O(size). Hot-path reads go through Get, which a
//     one-bit-per-entry written set answers without loading the table for
//     entries that were never written.
//   - U16Zero is a zero-initialized uint16 table (activity counters) with
//     the same journaling idea; clearing between intervals walks the
//     touched entries instead of memsetting megabytes.
//   - EpochSet is a dense membership set cleared by bumping an epoch
//     stamp, so per-interval reset costs nothing at all.
//
// All three recycle through size-keyed pools: a returned table is
// journal-reset (or epoch-bumped) and handed to the next simulation cell
// without any zeroing. Pool hits and misses are indistinguishable to the
// user — a fresh table and a recycled one have identical contents — so
// results never depend on pooling, only construction time does. Pools are
// safe for concurrent use by parallel simulation cells.
package tab

import "sync"

// maxPooled bounds how many tables of one size a pool retains; beyond
// that, released tables are dropped for the GC. Matrix runs need at most
// a few per size (one per concurrent cell).
const maxPooled = 16

type pool[T any] struct {
	mu   sync.Mutex
	free map[int][]*T
}

func (p *pool[T]) get(n int) *T {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free == nil {
		return nil
	}
	l := p.free[n]
	if len(l) == 0 {
		return nil
	}
	t := l[len(l)-1]
	p.free[n] = l[:len(l)-1]
	return t
}

func (p *pool[T]) put(n int, t *T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free == nil {
		p.free = make(map[int][]*T)
	}
	if len(p.free[n]) < maxPooled {
		p.free[n] = append(p.free[n], t)
	}
}

// U32 is a dense uint32 table whose resting state is the identity mapping
// A[i] == i. Every write must go through Set so the table can be restored
// cheaply. Hot-path reads go through Get: a remap table is mostly identity
// (only migrated pages were ever written), and the written set — one bit
// per entry, 1/32 of A's size — stays cache-resident where A does not.
// Cold paths may index A directly.
type U32 struct {
	// A is the table. Read it through Get (or directly off the hot path);
	// write only through Set.
	A       []uint32
	written []uint64 // bit i set once A[i] has been written
	touched []uint32
}

var u32Pool pool[U32]

// NewU32 returns an identity table of n entries, recycled from the pool
// when one of this size is available.
func NewU32(n int) *U32 {
	if t := u32Pool.get(n); t != nil {
		return t
	}
	t := &U32{A: make([]uint32, n), written: make([]uint64, (n+63)/64)}
	for i := range t.A {
		t.A[i] = uint32(i)
	}
	return t
}

// Get returns A[i]. An entry that was never written is the identity, so
// Get answers it from the written set without loading A[i].
func (t *U32) Get(i uint32) uint32 {
	if t.written[i>>6]&(1<<(i&63)) == 0 {
		return i
	}
	return t.A[i]
}

// Set writes A[i] = v, marks i written and journals the write for Release.
func (t *U32) Set(i, v uint32) {
	t.A[i] = v
	t.written[i>>6] |= 1 << (i & 63)
	t.touched = append(t.touched, i)
}

// Release restores the identity mapping, clears the written set and
// returns the table to the pool. The caller must not use the table
// afterwards.
func (t *U32) Release() {
	for _, i := range t.touched {
		t.A[i] = i
		// Every written bit belongs to a journaled entry, so clearing
		// the whole word is exact.
		t.written[i>>6] = 0
	}
	t.touched = t.touched[:0]
	u32Pool.put(len(t.A), t)
}

// U16Zero is a dense uint16 table whose resting state is all zeros, with
// a journal of the entries that left zero. It is the counter-array shape:
// saturating counters that an interval boundary clears.
type U16Zero struct {
	// A is the table. Read it directly; write through Touch/Set.
	A       []uint16
	touched []uint32
}

var u16Pool pool[U16Zero]

// NewU16Zero returns an all-zero table of n entries.
func NewU16Zero(n int) *U16Zero {
	if t := u16Pool.get(n); t != nil {
		return t
	}
	return &U16Zero{A: make([]uint16, n)}
}

// Set writes A[i] = v, journaling i on its first departure from zero.
// The caller must pass the current value c == A[i] (every call site has
// just read it).
func (t *U16Zero) Set(i uint32, c, v uint16) {
	if c == 0 && v != 0 {
		t.touched = append(t.touched, i)
	}
	t.A[i] = v
}

// Touched returns the journal: the indices written since the last Clear,
// each exactly once, in first-touch order. The slice aliases internal
// state and is valid until the next Set/Clear.
func (t *U16Zero) Touched() []uint32 { return t.touched }

// Clear zeroes the touched entries — O(touched), not O(len(A)).
func (t *U16Zero) Clear() {
	for _, i := range t.touched {
		t.A[i] = 0
	}
	t.touched = t.touched[:0]
}

// Release clears the table and returns it to the pool.
func (t *U16Zero) Release() {
	t.Clear()
	u16Pool.put(len(t.A), t)
}

// U64Zero is U16Zero's shape at uint64 width: a zero-resting table whose
// journal records each entry's first departure from zero. It carries
// CAMEO's congruence-group permutations — over a hundred megabytes at the
// paper's geometry, of which a run touches only the accessed groups.
type U64Zero struct {
	// A is the table. Read it directly; write through Set.
	A       []uint64
	touched []uint32
}

var u64Pool pool[U64Zero]

// NewU64Zero returns an all-zero table of n entries.
func NewU64Zero(n int) *U64Zero {
	if t := u64Pool.get(n); t != nil {
		return t
	}
	return &U64Zero{A: make([]uint64, n)}
}

// Set writes A[i] = v, journaling i on its first departure from zero.
// The caller must pass the current value c == A[i].
func (t *U64Zero) Set(i uint32, c, v uint64) {
	if c == 0 && v != 0 {
		t.touched = append(t.touched, i)
	}
	t.A[i] = v
}

// Clear zeroes the touched entries — O(touched), not O(len(A)).
func (t *U64Zero) Clear() {
	for _, i := range t.touched {
		t.A[i] = 0
	}
	t.touched = t.touched[:0]
}

// Release clears the table and returns it to the pool.
func (t *U64Zero) Release() {
	t.Clear()
	u64Pool.put(len(t.A), t)
}

// EpochSet is a dense membership set over [0, n) cleared in O(1) by
// bumping an epoch stamp. Recycled sets keep their stale stamps; the
// embedded epoch counter is monotonic per backing array, so stale stamps
// can never read as current.
type EpochSet struct {
	stamp []uint32
	cur   uint32
}

var epochPool pool[EpochSet]

// NewEpochSet returns an empty set over [0, n).
func NewEpochSet(n int) *EpochSet {
	if s := epochPool.get(n); s != nil {
		s.BeginEpoch()
		return s
	}
	return &EpochSet{stamp: make([]uint32, n), cur: 1}
}

// BeginEpoch empties the set. On uint32 wraparound (once per 4 G epochs)
// the stamps are rewound explicitly to keep the invariant cur > stamp[i].
func (s *EpochSet) BeginEpoch() {
	s.cur++
	if s.cur == 0 {
		clear(s.stamp)
		s.cur = 1
	}
}

// Add inserts i into the set.
func (s *EpochSet) Add(i uint32) { s.stamp[i] = s.cur }

// Has reports whether i is in the set.
func (s *EpochSet) Has(i uint32) bool { return s.stamp[i] == s.cur }

// Release empties the set and returns it to the pool.
func (s *EpochSet) Release() {
	s.BeginEpoch()
	epochPool.put(len(s.stamp), s)
}
