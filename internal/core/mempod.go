// Package core implements MemPod, the paper's clustered migration
// mechanism (§5).
//
// Memory controllers are clustered into pods; each pod independently
// tracks the activity of its pages with an MEA unit (internal/mea),
// maintains a remap table plus an inverted table over its fast frames, and
// at every interval migrates up to K hot pages into fast memory by
// swapping them with not-hot fast residents. Migration traffic stays
// inside the pod and contends with demand traffic on the pod's own
// channels; pods migrate in parallel.
package core

import (
	"fmt"
	"slices"

	"repro/internal/addr"
	"repro/internal/clock"
	"repro/internal/mea"
	"repro/internal/mech"
	"repro/internal/tab"
	"repro/internal/trace"
)

// Config holds MemPod's design-space parameters (§6.3.1).
type Config struct {
	// Interval is the migration epoch length. The paper's design point is
	// 50 µs.
	Interval clock.Duration
	// Counters is K, the number of MEA entries per pod (paper: 64).
	Counters int
	// CounterBits is the saturating counter width (paper: 2).
	CounterBits int
	// CacheBytes is the total on-chip remap-table cache capacity, split
	// evenly over the pods. Zero disables cache modelling (bookkeeping is
	// free), matching the paper's cache-disabled experiments.
	CacheBytes int
	// CacheWays is the cache associativity (default 8).
	CacheWays int
	// UseFullCounters replaces the MEA unit with an exact Full Counters
	// tracker (one counter per touched page). This is an ablation, not a
	// buildable design point — it is what MEA's ~12800x storage saving
	// replaces; migrations are still capped at Counters per pod per epoch
	// (the top of the exact ranking).
	UseFullCounters bool
}

// DefaultConfig returns the design point the paper converges on:
// 50 µs intervals, 64 two-bit MEA counters per pod, no cache model.
func DefaultConfig() Config {
	return Config{Interval: 50 * clock.Microsecond, Counters: 64, CounterBits: 2}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Interval <= 0:
		return fmt.Errorf("mempod: interval %d", c.Interval)
	case c.Counters <= 0:
		return fmt.Errorf("mempod: %d MEA counters", c.Counters)
	case c.CounterBits <= 0 || c.CounterBits > 64:
		return fmt.Errorf("mempod: counter width %d bits", c.CounterBits)
	case c.CacheBytes < 0:
		return fmt.Errorf("mempod: cache %d bytes", c.CacheBytes)
	}
	return nil
}

// remapEntryBytes is the modelled size of one remap-table entry: a 21-bit
// frame pointer with flags, stored as 4 bytes. Sixteen entries share one
// 64 B backing-store block.
const remapEntryBytes = 4

const entriesPerBlock = mech.BlockBytes / remapEntryBytes

// tracker abstracts the pod's activity-tracking unit: the MEA design or
// the Full Counters ablation.
type tracker interface {
	Observe(p uint64)
	Hot() []mea.Entry
	Reset()
}

// pod is the per-pod state: tracker, remap tables, victim pointer, cache,
// and the pod's copy engine: the paced migration queue of the current
// epoch and the in-flight swap locks.
//
// The remap and inverted tables recycle through internal/tab pools, and
// the hot set is kept as an epoch-stamped set over *fast frames* rather
// than a map over hot page IDs: hotFast.Has(v) holds exactly when
// inverted[v] is one of the epoch's hot pages, which is the only question
// victim selection ever asks. The invariant is established when the epoch's
// hot list is read (every hot page already resident in fast memory stamps
// its frame) and maintained at the single place residency changes
// (Install puts a hot page into the victim frame).
type pod struct {
	tracker  tracker
	mea      *mea.MEA // tracker's concrete form, nil for Full Counters
	remap    *tab.U32 // home frame (local page ID) -> current frame
	inverted *tab.U32 // fast frame -> resident local page ID
	victim   uint32   // rotating victim-identification pointer
	cache    *mech.Cache

	q       mech.CopyQueue // swaps of local pages, locks keyed by local page
	hotFast *tab.EpochSet  // fast frames holding a hot page this epoch
	cand    []uint32       // reused promotion-candidate buffer

	// Pods sit side by side in MemPod.pods and pod-parallel workers own
	// different pods: the padding keeps one pod's swap-state writes off
	// the cache line holding its neighbour's per-access fields.
	_ [64]byte
}

// MemPod is the full mechanism. It implements mech.Mechanism and
// mech.PodSplitter.
//
// A pod-parallel view (SplitPods) is a shallow copy: it shares the pods
// and the backend, keeps its own interval cursor and statistics, and runs
// interval boundaries only for the pods it owns. The mechanism itself owns
// every pod, and the engine drives a view through the same Access.
type MemPod struct {
	cfg     Config
	backend *mech.Backend
	layout  addr.Layout
	geom    *addr.Geom
	pods    []pod
	next    clock.Time // next interval boundary
	stats   mech.MigStats
	mine    []int // the pods runInterval serves, ascending
}

// New builds a MemPod over the backend's two-level memory.
func New(cfg Config, b *mech.Backend) (*MemPod, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := b.Layout
	if !l.TwoLevel() {
		return nil, fmt.Errorf("mempod: layout is not two-level")
	}
	if cfg.CacheWays <= 0 {
		cfg.CacheWays = 8
	}
	m := &MemPod{
		cfg:     cfg,
		backend: b,
		layout:  l,
		geom:    &b.Geom,
		pods:    make([]pod, l.NumPods),
		next:    cfg.Interval,
		mine:    make([]int, l.NumPods),
	}
	for i := range m.mine {
		m.mine[i] = i
	}
	m.initPods()
	return m, nil
}

// initPods gives every pod its construction state: a fresh tracker and
// cache, identity remap and inverted tables, an empty hot set and no
// queued swaps or locks.
func (m *MemPod) initPods() {
	l, cfg := m.layout, m.cfg
	perPod := int(l.PagesPerPod())
	fast := int(l.FastPagesPerPod())
	for i := range m.pods {
		p := &m.pods[i]
		*p = pod{q: p.q, cand: p.cand[:0]}
		p.q.Init(m.backend, i)
		if cfg.UseFullCounters {
			p.tracker = mea.NewFullCounters()
		} else {
			p.mea = mea.NewMEA(cfg.Counters, cfg.CounterBits)
			p.tracker = p.mea
		}
		p.remap = tab.NewU32(perPod)
		p.inverted = tab.NewU32(fast)
		p.hotFast = tab.NewEpochSet(fast)
		if cfg.CacheBytes > 0 {
			p.cache = mech.NewCache(cfg.CacheBytes/l.NumPods, cfg.CacheWays)
		}
	}
}

// Name implements mech.Mechanism.
func (m *MemPod) Name() string {
	if m.cfg.UseFullCounters {
		return "MemPod-FC"
	}
	return "MemPod"
}

// Stats implements mech.Mechanism: the mechanism's own counters plus its
// pods' copy engines'.
func (m *MemPod) Stats() mech.MigStats {
	s := m.stats
	for _, i := range m.mine {
		s.Add(m.pods[i].q.Stats)
	}
	return s
}

// Config returns the mechanism's configuration.
func (m *MemPod) Config() Config { return m.cfg }

// Release implements mech.Releaser: the remap, inverted and hot-set
// tables return to their pools for the next simulation cell. The
// mechanism must not be used afterwards.
func (m *MemPod) Release() {
	for i := range m.pods {
		p := &m.pods[i]
		p.remap.Release()
		p.inverted.Release()
		p.hotFast.Release()
		p.remap, p.inverted, p.hotFast = nil, nil, nil
	}
}

// Pods implements mech.PodSplitter.
func (m *MemPod) Pods() int { return len(m.pods) }

// SplitPods implements mech.PodSplitter. It declines once an interval
// boundary has run; an access before the first boundary leaves its trace
// in the memory system, which the engine checks is untouched.
func (m *MemPod) SplitPods(owner []int) []mech.PodView {
	if len(owner) != len(m.pods) || m.next != m.cfg.Interval {
		return nil
	}
	views := make([]*MemPod, slices.Max(owner)+1)
	for p, w := range owner {
		if views[w] == nil {
			v := *m
			v.mine = nil
			views[w] = &v
		}
		views[w].mine = append(views[w].mine, p)
	}
	out := make([]mech.PodView, len(views))
	for w, v := range views {
		if v == nil {
			return nil
		}
		out[w] = v
	}
	return out
}

// JoinPods implements mech.PodSplitter. Every view ran every interval
// boundary, so Intervals is taken once; the other counters are per pod
// and sum (the copy engines' own are the pods', which Stats adds).
func (m *MemPod) JoinPods(views []mech.PodView) {
	v0 := views[0].(*MemPod)
	m.next = v0.next
	m.stats = mech.MigStats{}
	for _, v := range views {
		m.stats.Add(v.(*MemPod).stats)
	}
	m.stats.Intervals = v0.stats.Intervals
}

// ResetPods implements mech.PodSplitter: the pods' tables go back to
// their pools and every pod is rebuilt as New builds it.
func (m *MemPod) ResetPods() {
	m.Release()
	m.initPods()
	m.next = m.cfg.Interval
	m.stats = mech.MigStats{}
}

// Finish implements mech.PodView: the view's pods run the interval
// boundaries up to t. A pod's boundary work depends only on the pod's own
// state, so a view runs it lazily — at its next own request, or here —
// with the same effect as the serial run's eager boundary at whichever
// request crossed it first.
func (m *MemPod) Finish(t clock.Time) {
	for t >= m.next {
		m.runInterval(m.next)
		m.next += m.cfg.Interval
	}
}

// Access implements mech.Mechanism and mech.PodView: observe a touched
// page in the pod's MEA unit, consult the remap table (through the cache
// model if enabled), stall behind any in-flight swap of the page, and
// forward the line to its current frame. Un-migrated pages (the identity
// remap, i.e. most of the trace) are serviced at the decoded home
// channel/row.
func (m *MemPod) Access(d *trace.Decoded, _, at clock.Time, touched bool) clock.Time {
	for at >= m.next {
		m.runInterval(m.next)
		m.next += m.cfg.Interval
	}
	podID, local := int(d.Pod), d.Frame
	p := &m.pods[podID]
	// Execute any queued swaps whose paced start time has arrived, so
	// channel traffic stays in time order. The guard is inlined here:
	// most accesses find nothing due, and the call is not free.
	if p.q.Due(at) {
		p.q.Drain(at, m)
	}

	if touched {
		// Direct dispatch for the common concrete tracker; the interface
		// call is only paid by the Full Counters ablation.
		if p.mea != nil {
			p.mea.Observe(uint64(local))
		} else {
			p.tracker.Observe(uint64(local))
		}
	}

	start := at
	if p.cache != nil {
		block := uint64(local) / entriesPerBlock
		if p.cache.Access(block) {
			m.stats.CacheHits++
		} else {
			m.stats.CacheMisses++
			start = m.backend.BookkeepingRead(podID, block, start)
		}
	}
	// If the page's swap is in flight, the request cannot complete before
	// the copy lands. The DRAM access itself still issues now (channel
	// traffic must stay in time order); the lock wait is added to the
	// completion.
	lockEnd := p.q.Stall(uint64(local), start)

	f := addr.Frame(p.remap.Get(local))
	if uint32(f) == local {
		// Identity remap: the page still lives in its home frame, whose
		// channel/row the decode already resolved.
		return clock.Max(m.backend.LineAt(d.Chan, d.Row, d.Write, start), lockEnd)
	}
	return clock.Max(m.backend.Line(podID, f, int(d.Line), d.Write, start), lockEnd)
}

// Install implements mech.Installer for the pod's copy engine: chunk 0
// of the swap promoting `local` chooses the victim through the rotating
// finder and updates the remap and inverted tables (through the cache
// model if enabled). It installs nothing when the page is already in fast
// memory or every fast frame holds a hot page.
func (m *MemPod) Install(podID int, local, _ uint32, at clock.Time) (mech.Swap, bool) {
	p := &m.pods[podID]
	cur := p.remap.A[local]
	if m.geom.IsFastFrame(addr.Frame(cur)) {
		return mech.Swap{}, false // already resident in fast memory
	}
	v, ok := p.findVictim()
	if !ok {
		return mech.Swap{}, false
	}
	victim := uint32(v)
	resident := p.inverted.A[victim]
	if p.cache != nil {
		// Remap-table updates go through the cache model too.
		for _, lp := range [2]uint32{local, resident} {
			block := uint64(lp) / entriesPerBlock
			if p.cache.Access(block) {
				m.stats.CacheHits++
			} else {
				m.stats.CacheMisses++
				p.q.Busy = max(p.q.Busy, m.backend.BookkeepingRead(podID, block, at))
			}
		}
	}
	p.remap.Set(local, victim)
	p.remap.Set(resident, cur)
	p.inverted.Set(victim, local)
	// The victim frame now holds a page from the epoch's hot set.
	p.hotFast.Add(victim)
	return mech.Swap{From: cur, To: victim, LockA: local, LockB: resident}, true
}

// runInterval performs the boundary work of one epoch: each pod flushes
// any swaps still queued from the previous epoch, reads its MEA hot set,
// schedules up to K promotions paced evenly across the new epoch, and
// resets its tracker. Pods migrate in parallel; swaps within a pod are
// serial through the pod's migration driver.
func (m *MemPod) runInterval(boundary clock.Time) {
	m.stats.Intervals++
	for _, i := range m.mine {
		p := &m.pods[i]
		// Retire the previous epoch's queue: an in-flight swap must
		// finish copying, but swaps that never started are dropped — the
		// migration driver's bandwidth is bounded, and the new epoch's
		// hot set supersedes the old one.
		p.q.Retire(boundary)

		hot := p.tracker.Hot()
		if len(hot) > m.cfg.Counters {
			// The Full Counters ablation ranks every page; migration
			// bandwidth stays capped at K per pod per epoch.
			hot = hot[:m.cfg.Counters]
		}
		// Split the hot list by residency in one pass: pages already in
		// fast memory stamp their frame hot (re-establishing the hotFast
		// invariant for the new epoch), the rest are promotion candidates.
		p.hotFast.BeginEpoch()
		cand := p.cand[:0]
		for _, e := range hot {
			local := uint32(e.Page)
			if f := p.remap.A[local]; m.geom.IsFastFrame(addr.Frame(f)) {
				p.hotFast.Add(f)
				continue // already resident in fast memory
			}
			cand = append(cand, local)
		}
		// The pod's copy engine has finite bandwidth: one page swap keeps
		// a DDR channel busy for roughly minSwapTime, and the engine may
		// still be working off the previous epoch. Schedule only as many
		// swaps as fit into the epoch's remaining copy time, paced so the
		// engine is never asked to exceed its rate; the rest of the hot
		// set is dropped (it will be re-identified if still hot). Without
		// this feedback, aggressive configurations (many counters x short
		// epochs, Figure 6's corners) would demand physically impossible
		// copy rates.
		// minSwapTime budgets one swap's channel occupancy (~64 DDR line
		// transfers) plus equal headroom for demand traffic: the copy
		// engine never claims more than about half of the pod's slow
		// channel.
		const minSwapTime = 800 * clock.Nanosecond
		slotBase := max(boundary, p.q.Busy)
		avail := boundary + m.cfg.Interval - slotBase
		if avail < 0 {
			avail = 0
		}
		maxSwaps := int(avail / minSwapTime)
		if len(cand) > maxSwaps {
			m.stats.DroppedMigrations += uint64(len(cand) - maxSwaps)
			cand = cand[:maxSwaps]
		}
		p.cand = cand

		spacing := max(avail/clock.Duration(len(cand)+1), minSwapTime)
		for idx, local := range cand {
			p.q.Schedule(slotBase+clock.Duration(idx)*spacing, spacing, local, 0)
		}
		p.tracker.Reset()
	}
}

// findVictim returns the next fast frame whose resident page is not in the
// epoch's hot set, advancing the rotating pointer; ok is false if every
// fast frame currently holds a hot page (possible only when K approaches
// the fast capacity of a pod).
func (p *pod) findVictim() (addr.Frame, bool) {
	n := uint32(len(p.inverted.A))
	for scanned := uint32(0); scanned < n; scanned++ {
		v := p.victim
		if p.victim++; p.victim == n {
			p.victim = 0
		}
		if !p.hotFast.Has(v) {
			return addr.Frame(v), true
		}
	}
	return 0, false
}

// FrameOf reports the current frame of a flat-space page, for tests and
// invariant checks.
func (m *MemPod) FrameOf(page addr.Page) (podID int, f addr.Frame) {
	podID, home := m.layout.HomeFrame(page)
	return podID, addr.Frame(m.pods[podID].remap.A[uint32(home)])
}

// CheckInvariants verifies that each pod's remap table is a permutation
// and that the inverted table matches it. It is O(memory) and intended for
// tests.
func (m *MemPod) CheckInvariants() error {
	for i := range m.pods {
		p := &m.pods[i]
		seen := make([]bool, len(p.remap.A))
		for local, f := range p.remap.A {
			if int(f) >= len(p.remap.A) {
				return fmt.Errorf("pod %d: local %d maps to out-of-range frame %d", i, local, f)
			}
			if seen[f] {
				return fmt.Errorf("pod %d: frame %d mapped twice", i, f)
			}
			seen[f] = true
		}
		for f, resident := range p.inverted.A {
			if p.remap.A[resident] != uint32(f) {
				return fmt.Errorf("pod %d: inverted[%d]=%d but remap[%d]=%d",
					i, f, resident, resident, p.remap.A[resident])
			}
		}
	}
	return nil
}

var (
	_ mech.Mechanism   = (*MemPod)(nil)
	_ mech.Releaser    = (*MemPod)(nil)
	_ mech.PodSplitter = (*MemPod)(nil)
	_ mech.PodView     = (*MemPod)(nil)
)
