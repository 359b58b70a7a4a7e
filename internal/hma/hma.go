// Package hma models the Heterogeneous Memory Architectures baseline
// (Meswani et al., HPCA 2015) as the MemPod paper evaluates it (§4, §6).
//
// HMA keeps one full activity counter per page. At coarse intervals the OS
// sorts the counters, stalls execution for the duration of the sort (the
// paper generously models 7 ms instead of the measured ~1.2 s), and
// migrates hot pages into fast memory with full any-to-any flexibility.
// Because the OS rewrites page tables, no remap table is consulted on the
// access path; the counter array, however, is large (16 bits per page,
// 9 MB for the paper's configuration) and is the state cached in the
// Figure 9 experiment.
package hma

import (
	"fmt"
	"sort"

	"repro/internal/addr"
	"repro/internal/clock"
	"repro/internal/mech"
	"repro/internal/tab"
	"repro/internal/trace"
)

// Config holds HMA's parameters.
type Config struct {
	// Interval is the migration epoch (paper: 100 ms; see EXPERIMENTS.md
	// for the scaling applied when traces are shorter than one epoch).
	Interval clock.Duration
	// SortStall is the time the OS spends sorting the counters at each
	// boundary (paper: 7 ms baseline, 4.2 ms in the future-scaling study).
	// Migrations cannot begin until the sort finishes, so decisions land
	// stale; the stalled CPUs themselves issue no memory requests during
	// the sort, so the penalty does not appear directly in AMMAT.
	SortStall clock.Duration
	// CounterBits bounds each activity counter (paper: 16).
	CounterBits int
	// HotThreshold is the minimum interval count for a page to be a
	// migration candidate. Thresholding is what makes HMA's migration
	// volume sensitive to how many requests were serviced per interval —
	// the Figure 9 effect.
	HotThreshold uint64
	// MaxMigrations caps pages moved into fast memory per interval.
	MaxMigrations int
	// CacheBytes/CacheWays model the on-chip counter cache (0 = counters
	// accessible for free, as in the cache-disabled experiments).
	CacheBytes int
	CacheWays  int
}

// DefaultConfig returns the paper's baseline HMA parameters.
func DefaultConfig() Config {
	return Config{
		Interval:      100 * clock.Millisecond,
		SortStall:     7 * clock.Millisecond,
		CounterBits:   16,
		HotThreshold:  4,
		MaxMigrations: 8192,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Interval <= 0:
		return fmt.Errorf("hma: interval %d", c.Interval)
	case c.SortStall < 0 || c.SortStall >= c.Interval:
		return fmt.Errorf("hma: sort stall %d outside [0, interval)", c.SortStall)
	case c.CounterBits <= 0 || c.CounterBits > 64:
		return fmt.Errorf("hma: counter width %d", c.CounterBits)
	case c.MaxMigrations <= 0:
		return fmt.Errorf("hma: max migrations %d", c.MaxMigrations)
	case c.CacheBytes < 0:
		return fmt.Errorf("hma: cache %d bytes", c.CacheBytes)
	}
	return nil
}

// counterEntryBytes is the modelled counter size (16-bit counters: 32 per
// 64 B backing block).
const counterEntryBytes = 2

const countersPerBlock = mech.BlockBytes / counterEntryBytes

// HMA implements mech.Mechanism.
//
// The counter array journals the pages touched each interval (tab.U16Zero),
// which turns the two O(total pages) boundary scans — candidate gathering
// and the counter clear — into O(touched) walks: a page with count zero can
// be neither a migration candidate (threshold >= 1) nor in need of
// clearing. The remap and inverted tables recycle through tab pools.
type HMA struct {
	cfg     Config
	backend *mech.Backend
	layout  addr.Layout
	geom    *addr.Geom

	counters   *tab.U16Zero // per flat page, this interval
	counterMax uint16
	remap      *tab.U32 // flat page -> physical slot (flat page index)
	inverted   *tab.U32 // fast slot -> resident flat page
	cache      *mech.Cache

	next clock.Time     // next boundary
	q    mech.CopyQueue // the OS copy loop; locks keyed by flat page

	// Boundary-pass scratch, reused across intervals.
	hot     []pageCount
	warm    []slotCount
	warmSet *tab.EpochSet // fast slots whose resident was counted this interval
	victims []uint32
	hSorter hotSorter
	sSorter slotSorter
}

// New builds an HMA over the backend's two-level memory.
func New(cfg Config, b *mech.Backend) (*HMA, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := b.Layout
	if !l.TwoLevel() {
		return nil, fmt.Errorf("hma: layout is not two-level")
	}
	if cfg.CacheWays <= 0 {
		cfg.CacheWays = 8
	}
	total := int(l.TotalPages())
	h := &HMA{
		cfg:      cfg,
		backend:  b,
		layout:   l,
		geom:     &b.Geom,
		counters: tab.NewU16Zero(total),
		remap:    tab.NewU32(total),
		inverted: tab.NewU32(int(l.FastPages())),
		warmSet:  tab.NewEpochSet(int(l.FastPages())),
		next:     cfg.Interval,
	}
	if cfg.CounterBits >= 16 {
		h.counterMax = ^uint16(0)
	} else {
		h.counterMax = uint16(1)<<cfg.CounterBits - 1
	}
	if cfg.CacheBytes > 0 {
		h.cache = mech.NewCache(cfg.CacheBytes, cfg.CacheWays)
	}
	h.q.Init(b, mech.GlobalPod)
	return h, nil
}

// Name implements mech.Mechanism.
func (h *HMA) Name() string { return "HMA" }

// Stats implements mech.Mechanism.
func (h *HMA) Stats() mech.MigStats { return h.q.Stats }

// Release implements mech.Releaser; the mechanism must not be used after.
func (h *HMA) Release() {
	h.counters.Release()
	h.remap.Release()
	h.inverted.Release()
	h.warmSet.Release()
	h.counters, h.remap, h.inverted, h.warmSet = nil, nil, nil, nil
}

// Access implements mech.Mechanism. For un-remapped pages (the identity
// mapping, most of the trace) the decoded home channel/row services the
// access directly; only migrated pages re-derive HomeFrame(slot).
func (h *HMA) Access(d *trace.Decoded, _, at clock.Time, touched bool) clock.Time {
	page := uint32(d.Page)
	for at >= h.next {
		h.runInterval(h.next)
		h.next += h.cfg.Interval
	}
	if h.q.Due(at) {
		h.q.Drain(at, h)
	}

	start := at
	if touched {
		if c := h.counters.A[page]; c < h.counterMax {
			h.counters.Set(page, c, c+1)
		}
	}
	if h.cache != nil {
		block := uint64(page) / countersPerBlock
		if h.cache.Access(block) {
			h.q.Stats.CacheHits++
		} else {
			h.q.Stats.CacheMisses++
			start = h.backend.BookkeepingRead(int(uint64(page)%uint64(h.layout.NumPods)), block, start)
		}
	}
	lockEnd := h.q.Stall(uint64(page), start)
	slot := addr.Page(h.remap.Get(page))
	if uint64(slot) == uint64(page) {
		// Identity remap: the decode already resolved the home location.
		return clock.Max(h.backend.LineAt(d.Chan, d.Row, d.Write, start), lockEnd)
	}
	pod, f := h.geom.HomeFrame(slot)
	return clock.Max(h.backend.Line(pod, f, int(d.Line), d.Write, start), lockEnd)
}

// pageCount pairs a page with its interval count for sorting.
type pageCount struct {
	page  uint32
	count uint16
}

// hotSorter orders candidates by count descending, page ascending — a
// strict total order, so the result is algorithm-independent.
type hotSorter struct{ s []pageCount }

func (o *hotSorter) Len() int { return len(o.s) }
func (o *hotSorter) Less(i, j int) bool {
	if o.s[i].count != o.s[j].count {
		return o.s[i].count > o.s[j].count
	}
	return o.s[i].page < o.s[j].page
}
func (o *hotSorter) Swap(i, j int) { o.s[i], o.s[j] = o.s[j], o.s[i] }

// runInterval models HMA's OS-driven epoch: flush any swaps left from the
// previous epoch, pick hot slow-resident pages above the threshold, pair
// them with the coldest fast-resident victims, and queue the swaps to
// execute once the counter sort completes (boundary + SortStall).
func (h *HMA) runInterval(boundary clock.Time) {
	h.q.Stats.Intervals++

	// Retire the previous epoch's queue: finish the partially copied
	// swap, drop the ones that never started (stale OS decisions).
	h.q.Retire(boundary)

	// Gather candidates: hot pages currently in slow memory. Only pages in
	// the interval's touch journal can clear the threshold (untouched
	// pages count zero), and the sort below imposes a total order, so
	// walking the journal instead of the whole counter array is exact.
	hot := h.hot[:0]
	fastPages := uint32(h.geom.FastPagesN())
	for _, p := range h.counters.Touched() {
		c := h.counters.A[p]
		if uint64(c) < h.cfg.HotThreshold {
			continue
		}
		if h.remap.A[p] >= fastPages { // resident in slow memory
			hot = append(hot, pageCount{p, c})
		}
	}
	h.hSorter.s = hot
	sort.Sort(&h.hSorter)
	if len(hot) > h.cfg.MaxMigrations {
		hot = hot[:h.cfg.MaxMigrations]
	}
	h.hot = hot

	if len(hot) > 0 {
		victims := h.coldestFastSlots(len(hot))
		sortDone := boundary + h.cfg.SortStall
		// Pace the OS copy loop over the remainder of the epoch so the
		// copies interleave with demand traffic instead of monopolizing
		// the channels in one burst.
		spacing := (h.cfg.Interval - h.cfg.SortStall) / clock.Duration(len(hot)+1)
		for i, hc := range hot {
			if i >= len(victims) {
				break
			}
			if uint64(h.counters.A[h.inverted.A[victims[i]]]) >= h.cfg.HotThreshold {
				continue // victim is itself hot; skip
			}
			h.q.Schedule(sortDone+clock.Duration(i)*spacing, spacing, hc.page, victims[i])
		}
	}
	h.counters.Clear()
}

// Install implements mech.Installer: chunk 0 of the swap promoting page
// into fast slot victim rewrites the page tables, unless the page was
// promoted meanwhile.
func (h *HMA) Install(_ int, page, victim uint32, _ clock.Time) (mech.Swap, bool) {
	return mech.PromoteFlat(h.remap, h.inverted, uint32(h.geom.FastPagesN()), page, victim)
}

// slotCount pairs a fast slot with its resident's interval count.
type slotCount struct {
	slot  uint32
	count uint16
}

// slotSorter orders slots by count ascending, slot ascending — again a
// strict total order.
type slotSorter struct{ s []slotCount }

func (o *slotSorter) Len() int { return len(o.s) }
func (o *slotSorter) Less(i, j int) bool {
	if o.s[i].count != o.s[j].count {
		return o.s[i].count < o.s[j].count
	}
	return o.s[i].slot < o.s[j].slot
}
func (o *slotSorter) Swap(i, j int) { o.s[i], o.s[j] = o.s[j], o.s[i] }

// coldestFastSlots returns up to n fast slots ordered by ascending
// resident count, slot ascending on ties (the OS's victim choice under
// full counters).
//
// Equivalent to sorting all fast slots by (count, slot) and taking the
// first n, but without touching the whole fast region: a slot's resident
// counts zero exactly when it is absent from the interval's touch journal,
// and all such slots precede every warm slot in the total order. So the
// prefix is: cold slots in ascending slot order (enumerated by scanning
// slot IDs and skipping the journal-derived warm set), then warm slots
// sorted.
func (h *HMA) coldestFastSlots(n int) []uint32 {
	fastPages := uint32(h.geom.FastPagesN())
	warm := h.warm[:0]
	h.warmSet.BeginEpoch()
	for _, p := range h.counters.Touched() {
		if slot := h.remap.A[p]; slot < fastPages {
			warm = append(warm, slotCount{slot, h.counters.A[p]})
			h.warmSet.Add(slot)
		}
	}
	h.warm = warm

	out := h.victims[:0]
	for slot := uint32(0); slot < fastPages && len(out) < n; slot++ {
		if !h.warmSet.Has(slot) {
			out = append(out, slot)
		}
	}
	if len(out) < n {
		h.sSorter.s = warm
		sort.Sort(&h.sSorter)
		for _, s := range warm {
			if len(out) >= n {
				break
			}
			out = append(out, s.slot)
		}
	}
	h.victims = out
	return out
}

// CheckInvariants verifies that the remap table is a permutation of the
// flat page space and that the inverted table matches it. O(memory);
// intended for tests.
func (h *HMA) CheckInvariants() error {
	seen := make([]bool, len(h.remap.A))
	for page, slot := range h.remap.A {
		if int(slot) >= len(h.remap.A) {
			return fmt.Errorf("hma: page %d maps to out-of-range slot %d", page, slot)
		}
		if seen[slot] {
			return fmt.Errorf("hma: slot %d mapped twice", slot)
		}
		seen[slot] = true
	}
	for slot, page := range h.inverted.A {
		if h.remap.A[page] != uint32(slot) {
			return fmt.Errorf("hma: inverted[%d]=%d but remap[%d]=%d",
				slot, page, page, h.remap.A[page])
		}
	}
	return nil
}

// FrameOfPage reports the current physical slot of a flat page, for tests.
func (h *HMA) FrameOfPage(p addr.Page) addr.Page { return addr.Page(h.remap.A[uint32(p)]) }

var (
	_ mech.Mechanism = (*HMA)(nil)
	_ mech.Releaser  = (*HMA)(nil)
)
