// Package thm models the Transparent Hardware Management baseline (Sim et
// al., MICRO 2014) as the MemPod paper evaluates it (§2, §4, §6).
//
// Memory is divided into segments of one fast page plus R slow pages
// (R = 8 at the paper's 1:8 capacity ratio). Migration is allowed only
// within a segment: any slow member may be swapped into the segment's
// single fast slot. One 8-bit competing counter per segment arbitrates: a
// challenger slow page gains the counter on its own accesses and loses it
// to accesses of other pages; when the counter crosses the threshold the
// challenger swaps into the fast slot. Swaps are threshold-triggered
// events, not interval work.
package thm

import (
	"fmt"
	"sync"

	"repro/internal/addr"
	"repro/internal/clock"
	"repro/internal/mech"
	"repro/internal/trace"
)

// Config holds THM's parameters.
type Config struct {
	// Threshold is the competing-counter value that triggers a swap.
	Threshold uint8
	// CounterBits bounds the competing counter (paper: 8 bits/segment).
	CounterBits int
	// CacheBytes/CacheWays model the on-chip SRT cache holding segment
	// state (counters + remap); 0 disables the cache model.
	CacheBytes int
	CacheWays  int
}

// DefaultConfig returns the THM parameters used in the comparison.
func DefaultConfig() Config {
	return Config{Threshold: 4, CounterBits: 8}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.CounterBits <= 0 || c.CounterBits > 8:
		return fmt.Errorf("thm: counter width %d", c.CounterBits)
	case c.Threshold == 0 || uint64(c.Threshold) > (1<<c.CounterBits)-1:
		return fmt.Errorf("thm: threshold %d does not fit %d-bit counter", c.Threshold, c.CounterBits)
	case c.CacheBytes < 0:
		return fmt.Errorf("thm: cache %d bytes", c.CacheBytes)
	}
	return nil
}

// segment packs one segment's state: a 9-slot permutation (4 bits per
// slot: which member occupies it), the challenger member, and the
// competing counter.
//
// Members: 0 is the segment's fast page; 1..R are its slow pages. Slots
// use the same numbering for positions. Two encodings keep a freshly
// acquired segment array free of any initialization pass: a slots word of
// 0 denotes the identity permutation (an all-zero word is never a valid
// permutation for >= 2 members), and a segment whose gen differs from the
// mechanism's is in its zero state regardless of the array's old contents
// (see segArena).
type segment struct {
	slots      uint64 // 4 bits per slot, slot 0 = fast slot; 0 = identity
	gen        uint32 // matches THM.gen once the segment is live this run
	counter    uint8
	challenger uint8 // member index; 0 = none
}

const noChallenger = 0

func identitySlots(members int) uint64 {
	var s uint64
	for i := 0; i < members; i++ {
		s |= uint64(i) << (4 * i)
	}
	return s
}

func memberAt(slots uint64, slot int) int {
	return int(slots >> (4 * slot) & 0xF)
}

func slotOfMember(slots uint64, member, members int) int {
	for slot := 0; slot < members; slot++ {
		if memberAt(slots, slot) == member {
			return slot
		}
	}
	panic("thm: corrupt segment permutation")
}

func swapSlotsVal(slots uint64, a, b int) uint64 {
	ma, mb := uint64(memberAt(slots, a)), uint64(memberAt(slots, b))
	slots &^= 0xF<<(4*a) | 0xF<<(4*b)
	return slots | mb<<(4*a) | ma<<(4*b)
}

// segArena is a pooled segment array. Rather than zeroing megabytes per
// simulation cell, each acquisition bumps the arena's generation; segments
// stamped with an older generation read as zero and are lazily
// materialized on first touch. Pool reuse is indistinguishable from a
// fresh allocation.
type segArena struct {
	segs []segment
	gen  uint32
}

var segPool struct {
	mu   sync.Mutex
	free map[int][]*segArena
}

const maxPooledArenas = 16

func acquireSegs(n int) *segArena {
	segPool.mu.Lock()
	var a *segArena
	if l := segPool.free[n]; len(l) > 0 {
		a = l[len(l)-1]
		segPool.free[n] = l[:len(l)-1]
	}
	segPool.mu.Unlock()
	if a == nil {
		a = &segArena{segs: make([]segment, n)}
	}
	a.gen++
	if a.gen == 0 { // uint32 wraparound: stale stamps could read current
		clear(a.segs)
		a.gen = 1
	}
	return a
}

func releaseSegs(a *segArena) {
	n := len(a.segs)
	segPool.mu.Lock()
	if segPool.free == nil {
		segPool.free = make(map[int][]*segArena)
	}
	if len(segPool.free[n]) < maxPooledArenas {
		segPool.free[n] = append(segPool.free[n], a)
	}
	segPool.mu.Unlock()
}

// segmentStateBytes models the SRT entry size for the cache: 8-bit
// counter + 4-bit challenger + 36-bit permutation ≈ 6 bytes, so ten
// segments share one 64 B block.
const segmentsPerBlock = 10

// chunkGap paces a swap's mech.SwapChunks copy chunks so they
// interleave with demand traffic at the memory controllers.
const chunkGap = 100 * clock.Nanosecond

// THM implements mech.Mechanism.
type THM struct {
	cfg      Config
	backend  *mech.Backend
	layout   addr.Layout
	geom     *addr.Geom
	arena    *segArena
	segments []segment
	gen      uint32
	members  int // 1 + slow:fast ratio
	idSlots  uint64
	fast     uint64 // fast page count
	dFast    addr.Divisor
	copier   mech.CopyQueue // per-segment swaps; locks keyed by flat page
	cache    *mech.Cache
	maxCount uint8
}

// New builds a THM over the backend's two-level memory. The slow capacity
// must be a multiple of the fast capacity (the paper's ratio is 8).
func New(cfg Config, b *mech.Backend) (*THM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := b.Layout
	if !l.TwoLevel() {
		return nil, fmt.Errorf("thm: layout is not two-level")
	}
	if l.SlowBytes%l.FastBytes != 0 {
		return nil, fmt.Errorf("thm: slow capacity not a multiple of fast capacity")
	}
	ratio := int(l.SlowBytes / l.FastBytes)
	if ratio+1 > 16 {
		return nil, fmt.Errorf("thm: ratio %d exceeds 4-bit member encoding", ratio)
	}
	arena := acquireSegs(int(l.FastPages()))
	t := &THM{
		cfg:      cfg,
		backend:  b,
		layout:   l,
		geom:     &b.Geom,
		arena:    arena,
		segments: arena.segs,
		gen:      arena.gen,
		members:  ratio + 1,
		idSlots:  identitySlots(ratio + 1),
		fast:     uint64(l.FastPages()),
		dFast:    addr.NewDivisor(uint64(l.FastPages())),
		maxCount: uint8(1)<<cfg.CounterBits - 1,
	}
	if cfg.CacheBytes > 0 {
		if cfg.CacheWays <= 0 {
			cfg.CacheWays = 8
		}
		t.cache = mech.NewCache(cfg.CacheBytes, cfg.CacheWays)
	}
	t.copier.Init(b, mech.GlobalPod)
	t.copier.ByStart = true // segments copy concurrently, no central engine
	return t, nil
}

// Name implements mech.Mechanism.
func (t *THM) Name() string { return "THM" }

// Stats implements mech.Mechanism.
func (t *THM) Stats() mech.MigStats { return t.copier.Stats }

// Release implements mech.Releaser; the mechanism must not be used after.
func (t *THM) Release() {
	releaseSegs(t.arena)
	t.arena, t.segments = nil, nil
}

// effSlots returns the segment's permutation word, decoding the zero
// sentinel. The segment must already be materialized (gen checked).
func (t *THM) effSlots(s *segment) uint64 {
	if s.slots == 0 {
		return t.idSlots
	}
	return s.slots
}

// segmentOf decomposes a flat page into (segment, member).
func (t *THM) segmentOf(p addr.Page) (seg uint64, member int) {
	if uint64(p) < t.fast {
		return uint64(p), 0
	}
	s := uint64(p) - t.fast
	return t.dFast.Mod(s), 1 + int(t.dFast.Div(s))
}

// pageOf is the inverse of segmentOf.
func (t *THM) pageOf(seg uint64, member int) addr.Page {
	if member == 0 {
		return addr.Page(seg)
	}
	return addr.Page(t.fast + seg + uint64(member-1)*t.fast)
}

// Access implements mech.Mechanism. THM segments the flat page space its
// own way, so the segment decomposition and the serviced slot stay on the
// access path; but when the member still holds its home slot (most of the
// trace), the decoded home channel/row services the access without
// re-deriving HomeFrame.
func (t *THM) Access(d *trace.Decoded, arrival, at clock.Time, touched bool) clock.Time {
	page := addr.Page(d.Page)
	if t.copier.Due(at) {
		t.copier.Drain(at, t)
	}
	// Locks only shed entries when their page is re-accessed; compact the
	// table occasionally using the trace clock as the expiry floor (no
	// future request can query a lock before its own, later, trace time).
	t.copier.Locks.MaybeCompact(arrival)
	seg, member := t.segmentOf(page)
	s := &t.segments[seg]
	if s.gen != t.gen {
		*s = segment{gen: t.gen} // lazily materialize the zero state
	}

	start := at
	if t.cache != nil {
		block := seg / segmentsPerBlock
		if t.cache.Access(block) {
			t.copier.Stats.CacheHits++
		} else {
			t.copier.Stats.CacheMisses++
			start = t.backend.BookkeepingRead(int(seg%uint64(t.layout.NumPods)), block, start)
		}
	}
	lockEnd := t.copier.Stall(uint64(page), start)

	slot := slotOfMember(t.effSlots(s), member, t.members)
	// Competing-counter update, once per page touch; may trigger a swap
	// *after* this access.
	trigger := false
	if touched {
		trigger = t.updateCounter(s, member, slot)
	}

	// Service the request at the member's current slot.
	slotPage := t.pageOf(seg, slot)
	var done clock.Time
	if slotPage == page {
		// The member sits in its home slot: the decode already resolved
		// the home location.
		done = clock.Max(t.backend.LineAt(d.Chan, d.Row, d.Write, start), lockEnd)
	} else {
		pod, f := t.geom.HomeFrame(slotPage)
		done = clock.Max(t.backend.Line(pod, f, int(d.Line), d.Write, start), lockEnd)
	}

	if trigger {
		// The winner swaps into the fast slot: its copy is queued as
		// paced chunks, and chunk 0, due now, installs it (Install).
		t.copier.Schedule(start, mech.SwapChunks*chunkGap, uint32(seg), uint32(slot))
		t.copier.Drain(start, t)
	}
	return done
}

// updateCounter applies THM's competing-counter policy for an access by
// `member` currently residing in `slot`, and reports whether the member
// just won the fast slot.
func (t *THM) updateCounter(s *segment, member, slot int) bool {
	if slot == 0 {
		// The fast resident defends: its accesses wear the challenger down.
		if s.counter > 0 {
			s.counter--
			if s.counter == 0 {
				s.challenger = noChallenger
			}
		}
		return false
	}
	switch {
	case int(s.challenger) == member:
		if s.counter < t.maxCount {
			s.counter++
		}
		if s.counter >= t.cfg.Threshold {
			s.counter = 0
			s.challenger = noChallenger
			return true
		}
	case s.counter == 0:
		s.challenger = uint8(member)
		s.counter = 1
	default:
		s.counter--
		if s.counter == 0 {
			s.challenger = noChallenger
		}
	}
	return false
}

// Install implements mech.Installer: chunk 0 of the swap of segment
// segID's fast slot with winnerSlot updates the permutation, and both
// data pages stay locked until the last chunk completes.
func (t *THM) Install(_ int, segID, winnerSlot uint32, _ clock.Time) (mech.Swap, bool) {
	seg, win := uint64(segID), int(winnerSlot)
	s := &t.segments[seg]
	// The data pages being moved are the members occupying those slots.
	slots := t.effSlots(s)
	evicted := t.pageOf(seg, memberAt(slots, 0))
	winner := t.pageOf(seg, memberAt(slots, win))
	s.slots = swapSlotsVal(slots, 0, win)
	sw := mech.Swap{From: uint32(t.pageOf(seg, 0)), To: uint32(t.pageOf(seg, win)), LockA: uint32(evicted), LockB: uint32(winner)}
	return sw, true
}

// CheckInvariants verifies that every segment's slot assignment is a
// permutation of its members. O(memory); intended for tests.
func (t *THM) CheckInvariants() error {
	for i := range t.segments {
		slots := t.idSlots
		if s := &t.segments[i]; s.gen == t.gen && s.slots != 0 {
			slots = s.slots
		}
		var seen uint16
		for slot := 0; slot < t.members; slot++ {
			m := memberAt(slots, slot)
			if m >= t.members {
				return fmt.Errorf("thm: segment %d slot %d holds invalid member %d", i, slot, m)
			}
			if seen&(1<<m) != 0 {
				return fmt.Errorf("thm: segment %d member %d appears twice", i, m)
			}
			seen |= 1 << m
		}
	}
	return nil
}

// SlotOfPage reports which slot (0 = fast) a flat page currently occupies
// within its segment, for tests.
func (t *THM) SlotOfPage(p addr.Page) int {
	seg, member := t.segmentOf(p)
	slots := t.idSlots
	if s := &t.segments[seg]; s.gen == t.gen && s.slots != 0 {
		slots = s.slots
	}
	return slotOfMember(slots, member, t.members)
}

var (
	_ mech.Mechanism = (*THM)(nil)
	_ mech.Releaser  = (*THM)(nil)
	_ mech.Installer = (*THM)(nil)
)
