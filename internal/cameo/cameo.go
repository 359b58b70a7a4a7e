// Package cameo models the CAMEO baseline (Chou et al., MICRO 2014) as the
// MemPod paper evaluates it (§2, §4, §6).
//
// CAMEO manages the flat address space at 64 B line granularity.
// Congruence groups pair one fast line with R slow lines (R = 8 at the 1:8
// capacity ratio); *every* access to a slow-resident line triggers an
// immediate swap with the group's fast slot. No activity tracking exists;
// the migration trigger is the access event itself. At a high slow:fast
// ratio this floods the system with movement — the effect behind CAMEO's
// AMMAT degradation in Figure 8.
package cameo

import (
	"fmt"
	"math"

	"repro/internal/addr"
	"repro/internal/clock"
	"repro/internal/mech"
	"repro/internal/tab"
	"repro/internal/trace"
)

// Config holds CAMEO's parameters.
type Config struct {
	// SwapOnWrite controls whether writeback accesses also trigger swaps
	// (CAMEO swaps on every slow access; kept as a knob for ablations).
	SwapOnWrite bool
	// UseLLP enables the Line Location Predictor model: a misprediction
	// costs one wasted access at the predicted-but-wrong location before
	// the replay. Disabled in the paper's Figure 8 comparison (all
	// mechanisms run with free bookkeeping there), available for
	// ablations.
	UseLLP bool
	// LLPLogEntries sizes the predictor table (default 14: 16K entries).
	LLPLogEntries int
}

// DefaultConfig returns the paper's CAMEO behaviour.
func DefaultConfig() Config { return Config{SwapOnWrite: true} }

// group state: a 9-slot permutation, 4 bits per slot, slot 0 = fast slot.
// Members: 0 is the group's fast line, 1..R its slow lines.

// CAMEO implements mech.Mechanism.
type CAMEO struct {
	cfg      Config
	backend  *mech.Backend
	layout   addr.Layout
	geom     *addr.Geom
	groups   *tab.U64Zero // permutation per congruence group; 0 = identity
	members  int
	identity uint64
	fast     uint64 // fast line count
	dFast    addr.Divisor
	swaps    mech.CopyQueue // line swaps (CopyLine); locks keyed by flat line
	pred     *llp
	mispred  uint64
}

// New builds a CAMEO over the backend's two-level memory.
func New(cfg Config, b *mech.Backend) (*CAMEO, error) {
	l := b.Layout
	if !l.TwoLevel() {
		return nil, fmt.Errorf("cameo: layout is not two-level")
	}
	if l.SlowBytes%l.FastBytes != 0 {
		return nil, fmt.Errorf("cameo: slow capacity not a multiple of fast capacity")
	}
	ratio := int(l.SlowBytes / l.FastBytes)
	if ratio+1 > 16 {
		return nil, fmt.Errorf("cameo: ratio %d exceeds 4-bit member encoding", ratio)
	}
	if l.TotalBytes()/addr.LineBytes > math.MaxUint32 {
		return nil, fmt.Errorf("cameo: %d B memory has more lines than 32-bit lock keys", l.TotalBytes())
	}
	c := &CAMEO{
		cfg:     cfg,
		backend: b,
		layout:  l,
		geom:    &b.Geom,
		groups:  tab.NewU64Zero(int(l.FastLines())),
		members: ratio + 1,
		fast:    uint64(l.FastLines()),
		dFast:   addr.NewDivisor(uint64(l.FastLines())),
	}
	c.swaps.Init(b, mech.GlobalPod)
	for i := 0; i < c.members; i++ {
		c.identity |= uint64(i) << (4 * i)
	}
	if cfg.UseLLP {
		logN := cfg.LLPLogEntries
		if logN <= 0 {
			logN = 14
		}
		c.pred = newLLP(logN)
	}
	// Groups start as the identity permutation; the table is all-zero and
	// zero reads as the identity (member 0 in every slot would be an
	// invalid permutation, so the encoding is unambiguous).
	return c, nil
}

// Name implements mech.Mechanism.
func (c *CAMEO) Name() string { return "CAMEO" }

// Stats implements mech.Mechanism.
func (c *CAMEO) Stats() mech.MigStats { return c.swaps.Stats }

// Release implements mech.Releaser; the mechanism must not be used after.
func (c *CAMEO) Release() {
	c.groups.Release()
	c.groups = nil
}

// groupOf decomposes a flat line into (group, member).
func (c *CAMEO) groupOf(ln addr.Line) (grp uint64, member int) {
	if uint64(ln) < c.fast {
		return uint64(ln), 0
	}
	s := uint64(ln) - c.fast
	return c.dFast.Mod(s), 1 + int(c.dFast.Div(s))
}

// lineOf is the inverse of groupOf.
func (c *CAMEO) lineOf(grp uint64, member int) addr.Line {
	if member == 0 {
		return addr.Line(grp)
	}
	return addr.Line(c.fast + grp + uint64(member-1)*c.fast)
}

func (c *CAMEO) perm(grp uint64) uint64 {
	if p := c.groups.A[grp]; p != 0 {
		return p
	}
	return c.identity
}

func memberAt(perm uint64, slot int) int { return int(perm >> (4 * slot) & 0xF) }

func slotOf(perm uint64, member, members int) int {
	for s := 0; s < members; s++ {
		if memberAt(perm, s) == member {
			return s
		}
	}
	panic("cameo: corrupt group permutation")
}

// Access implements mech.Mechanism: serve the line from its current slot;
// if that slot is slow, swap the line into the group's fast slot. CAMEO
// manages lines, not frames: the global line index reassembles exactly
// from the decoded page and line-in-page.
func (c *CAMEO) Access(d *trace.Decoded, arrival, at clock.Time, _ bool) clock.Time {
	ln := addr.Line(d.Page*addr.LinesPerPage + uint64(d.Line))
	// CAMEO's locks only shed entries when their line is re-accessed;
	// compact occasionally with the trace clock as the expiry floor.
	c.swaps.Locks.MaybeCompact(arrival)
	grp, member := c.groupOf(ln)
	perm := c.perm(grp)
	slot := slotOf(perm, member, c.members)

	start := at
	lockEnd := c.swaps.Stall(uint64(ln), start)

	if c.pred != nil {
		// Mispredictions pay a wasted probe at the predicted location
		// before the request replays at the correct slot.
		if predicted := c.pred.Predict(grp); predicted != slot {
			c.mispred++
			wrong := c.lineOf(grp, predicted%c.members)
			start = c.backend.Sys.Access(c.geom.HomeLocation(wrong), false, start)
		}
		c.pred.Update(grp, slot)
	}
	slotLine := c.lineOf(grp, slot)
	done := c.backend.Sys.Access(c.geom.HomeLocation(slotLine), d.Write, start)
	if lockEnd > done {
		done = lockEnd
	}

	if slot != 0 && (c.cfg.SwapOnWrite || !d.Write) {
		c.swapIntoFast(grp, perm, slot, ln, slotLine, start)
	}
	return done
}

// swapIntoFast performs CAMEO's event-triggered swap of the accessed
// line (currently in `slot` of its group) with the group's fast slot:
// the permutation update, and a one-line copy between the two lines' home
// pages that locks both moving lines until it lands.
func (c *CAMEO) swapIntoFast(grp, perm uint64, slot int, ln, slotLine addr.Line, start clock.Time) {
	fastLine := c.lineOf(grp, 0)
	evicted := c.lineOf(grp, memberAt(perm, 0))
	newPerm := perm
	ma, mb := uint64(memberAt(perm, 0)), uint64(memberAt(perm, slot))
	newPerm &^= 0xF | 0xF<<(4*slot)
	newPerm |= mb | ma<<(4*slot)
	c.groups.Set(uint32(grp), c.groups.A[grp], newPerm)
	// MC-to-MC swaps cross the switch (§4.4): the queue is GlobalPod's.
	c.swaps.CopyLine(mech.Swap{
		From:  uint32(addr.PageOfLine(fastLine)),
		To:    uint32(addr.PageOfLine(slotLine)),
		LockA: uint32(ln),
		LockB: uint32(evicted),
	}, start)
	c.swaps.Stats.PageMigrations++ // one line promoted per event
}

// CheckInvariants verifies that every touched group's slot assignment is a
// permutation of its members. O(memory); intended for tests.
func (c *CAMEO) CheckInvariants() error {
	for g, perm := range c.groups.A {
		if perm == 0 {
			continue // untouched: identity
		}
		var seen uint16
		for slot := 0; slot < c.members; slot++ {
			m := memberAt(perm, slot)
			if m >= c.members {
				return fmt.Errorf("cameo: group %d slot %d holds invalid member %d", g, slot, m)
			}
			if seen&(1<<m) != 0 {
				return fmt.Errorf("cameo: group %d member %d appears twice", g, m)
			}
			seen |= 1 << m
		}
	}
	return nil
}

// Mispredictions reports LLP misses (0 when the predictor is disabled).
func (c *CAMEO) Mispredictions() uint64 { return c.mispred }

// SlotOfLine reports which slot (0 = fast) a flat line currently occupies,
// for tests.
func (c *CAMEO) SlotOfLine(ln addr.Line) int {
	grp, member := c.groupOf(ln)
	return slotOf(c.perm(grp), member, c.members)
}

var (
	_ mech.Mechanism = (*CAMEO)(nil)
	_ mech.Releaser  = (*CAMEO)(nil)
)
