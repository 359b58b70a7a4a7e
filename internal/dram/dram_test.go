package dram

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/clock"
)

func TestSpecsValidate(t *testing.T) {
	for _, s := range []Spec{HBM(), DDR4_1600(), HBMOverclocked(), DDR4_2400()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestSpecValidateRejects(t *testing.T) {
	bad := []Spec{
		{Name: "x", BusFreq: 0, BusBits: 64, Banks: 16, RowBytes: 8192, CAS: 1, RCD: 1, RP: 1, RAS: 1},
		{Name: "x", BusFreq: clock.GHz, BusBits: 63, Banks: 16, RowBytes: 8192, CAS: 1, RCD: 1, RP: 1, RAS: 1},
		{Name: "x", BusFreq: clock.GHz, BusBits: 64, Banks: 0, RowBytes: 8192, CAS: 1, RCD: 1, RP: 1, RAS: 1},
		{Name: "x", BusFreq: clock.GHz, BusBits: 64, Banks: 16, RowBytes: 100, CAS: 1, RCD: 1, RP: 1, RAS: 1},
		{Name: "x", BusFreq: clock.GHz, BusBits: 64, Banks: 16, RowBytes: 8192, CAS: 0, RCD: 1, RP: 1, RAS: 1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestPaperTimingValues(t *testing.T) {
	hbm := HBM()
	// 1 GHz bus: 1 cycle = 1 ns. Row hit = 7 ns, conflict = 21 ns.
	if hbm.RowHitLatency() != 7*clock.Nanosecond {
		t.Errorf("HBM hit latency %v, want 7ns", hbm.RowHitLatency())
	}
	if hbm.RowConflictLatency() != 21*clock.Nanosecond {
		t.Errorf("HBM conflict latency %v, want 21ns", hbm.RowConflictLatency())
	}
	// 128-bit DDR bus: 32 B/cycle, 64 B line = 2 cycles = 2 ns.
	if hbm.BurstTime() != 2*clock.Nanosecond {
		t.Errorf("HBM burst %v, want 2ns", hbm.BurstTime())
	}
	ddr := DDR4_1600()
	// 800 MHz bus: 1 cycle = 1.25 ns. Hit = 13.75 ns.
	if ddr.RowHitLatency() != 13_750_000 {
		t.Errorf("DDR hit latency %v", ddr.RowHitLatency())
	}
	// 64-bit DDR bus: 16 B/cycle, 64 B = 4 cycles = 5 ns.
	if ddr.BurstTime() != 5*clock.Nanosecond {
		t.Errorf("DDR burst %v, want 5ns", ddr.BurstTime())
	}
	// The future HBM is strictly faster and widens the differential.
	if HBMOverclocked().RowHitLatency() >= hbm.RowHitLatency() {
		t.Error("overclocked HBM not faster than HBM")
	}
	if DDR4_2400().RowHitLatency() >= ddr.RowHitLatency() {
		t.Error("DDR4-2400 not faster than DDR4-1600")
	}
}

func TestFirstAccessIsRowClosed(t *testing.T) {
	c := NewChannel(HBM())
	done := c.Access(0, false, 0)
	want := HBM().RowClosedLatency() + HBM().BurstTime()
	if done != want {
		t.Errorf("first access done at %v, want %v", done, want)
	}
	s := c.Stats()
	if s.RowClosed != 1 || s.RowHits != 0 || s.RowConflicts != 0 {
		t.Errorf("stats %+v", s)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	mk := func() *Channel { return NewChannel(HBM()) }

	// Same row twice: second is a hit.
	c := mk()
	c.Access(0, false, 0)
	t0 := clock.Time(1 * clock.Millisecond)
	hitDone := c.Access(0, false, t0) - t0

	// Different row, same bank (row + Banks): conflict.
	c2 := mk()
	c2.Access(0, false, 0)
	confDone := c2.Access(uint64(HBM().Banks), false, t0) - t0

	// Different bank: closed-row access, independent of bank 0.
	c3 := mk()
	c3.Access(0, false, 0)
	closedDone := c3.Access(1, false, t0) - t0

	if !(hitDone < closedDone && closedDone < confDone) {
		t.Errorf("latency order violated: hit %v, closed %v, conflict %v",
			hitDone, closedDone, confDone)
	}
}

func TestBankLevelParallelism(t *testing.T) {
	// Two simultaneous requests to different banks should overlap almost
	// fully; to the same bank (different rows) they serialize.
	diff := NewChannel(HBM())
	d1 := diff.Access(0, false, 0)
	d2 := diff.Access(1, false, 0)
	same := NewChannel(HBM())
	s1 := same.Access(0, false, 0)
	s2 := same.Access(16, false, 0) // same bank, different row
	if d1 != s1 {
		t.Fatal("first accesses should match")
	}
	if d2 >= s2 {
		t.Errorf("different-bank access (%v) not faster than same-bank conflict (%v)", d2, s2)
	}
}

func TestBusSerializesBursts(t *testing.T) {
	c := NewChannel(HBM())
	burst := HBM().BurstTime()
	// Saturate with row hits to one row: completions must be spaced by at
	// least the burst time once the pipe fills.
	var prev clock.Time
	c.Access(0, false, 0)
	prev = c.Access(0, false, 0)
	for i := 0; i < 10; i++ {
		done := c.Access(0, false, 0)
		if done-prev < burst {
			t.Fatalf("bursts overlap: %v after %v", done, prev)
		}
		prev = done
	}
}

func TestCompletionNeverBeforeArrival(t *testing.T) {
	c := NewChannel(DDR4_1600())
	rng := rand.New(rand.NewSource(42))
	at := clock.Time(0)
	for i := 0; i < 5000; i++ {
		at += clock.Time(rng.Intn(20)) * clock.Nanosecond
		done := c.Access(rng.Uint64()%100000, rng.Intn(4) == 0, at)
		if done <= at {
			t.Fatalf("request %d: done %v <= arrival %v", i, done, at)
		}
	}
}

// Property: a channel under a fixed access sequence is deterministic, and
// row-hit counts match a reference recomputation of open rows.
func TestChannelDeterministicAndHitAccounting(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		runStats := func() Stats {
			c := NewChannel(HBM())
			rng := rand.New(rand.NewSource(seed))
			at := clock.Time(0)
			for i := 0; i < int(n)+10; i++ {
				at += clock.Time(rng.Intn(30)) * clock.Nanosecond
				c.Access(rng.Uint64()%256, rng.Intn(2) == 0, at)
			}
			return c.Stats()
		}
		a, b := runStats(), runStats()
		if a != b {
			return false
		}
		// Reference hit count.
		rng := rand.New(rand.NewSource(seed))
		open := map[uint64]int64{}
		var hits uint64
		for i := 0; i < int(n)+10; i++ {
			rng.Intn(30)
			row := rng.Uint64() % 256
			rng.Intn(2)
			bankID := row % 16
			bankRow := int64(row / 16)
			if r, ok := open[bankID]; ok && r == bankRow {
				hits++
			}
			open[bankID] = bankRow
		}
		return a.RowHits == hits && a.Accesses() == uint64(n)+10
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRowHitRate(t *testing.T) {
	var s Stats
	if s.RowHitRate() != 0 {
		t.Error("empty stats hit rate should be 0")
	}
	s = Stats{Reads: 8, Writes: 2, RowHits: 5}
	if s.RowHitRate() != 0.5 {
		t.Errorf("hit rate %v, want 0.5", s.RowHitRate())
	}
}

func TestIdle(t *testing.T) {
	c := NewChannel(HBM())
	if !c.Idle(0) {
		t.Error("fresh channel not idle")
	}
	done := c.Access(0, false, 0)
	if c.Idle(done - 1) {
		t.Error("channel idle before completion")
	}
	if !c.Idle(done) {
		t.Error("channel not idle after completion")
	}
}

func TestRefreshDisabledByDefault(t *testing.T) {
	c := NewChannel(HBM())
	c.Access(0, false, clock.Time(100*clock.Microsecond))
	if c.Stats().Refreshes != 0 {
		t.Error("refresh fired while disabled")
	}
}

func TestRefreshBlocksAndClosesRows(t *testing.T) {
	spec := HBM().WithRefresh()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	c := NewChannel(spec)
	c.Access(0, false, 0) // opens row 0

	// Just past the first tREFI: the access must wait out tRFC and pay a
	// row re-activation (the refresh closed the row).
	at := spec.RefreshInterval + clock.Nanosecond
	done := c.Access(0, false, at)
	minDone := spec.RefreshInterval + spec.RefreshTime + spec.RowClosedLatency()
	if done < minDone {
		t.Errorf("post-refresh access done at %v, want >= %v", done, minDone)
	}
	if c.Stats().Refreshes != 1 {
		t.Errorf("refreshes = %d", c.Stats().Refreshes)
	}
	if c.Stats().RowHits != 0 {
		t.Error("row hit across a refresh window")
	}
}

func TestRefreshCatchUp(t *testing.T) {
	spec := DDR4_1600().WithRefresh()
	c := NewChannel(spec)
	// Jump ten windows ahead: all must be accounted.
	c.Access(0, false, spec.RefreshInterval*10+clock.Nanosecond)
	if got := c.Stats().Refreshes; got != 10 {
		t.Errorf("refreshes = %d, want 10", got)
	}
}

func TestRefreshValidation(t *testing.T) {
	s := HBM()
	s.RefreshInterval = clock.Microsecond
	if err := s.Validate(); err == nil {
		t.Error("refresh without tRFC accepted")
	}
	s.RefreshTime = 2 * clock.Microsecond
	if err := s.Validate(); err == nil {
		t.Error("tRFC >= tREFI accepted")
	}
}

// refreshLoopReference replays missed refresh windows one at a time — the
// definitional per-window form the arithmetic catch-up in Access replaces.
// Running it on a channel right before an access leaves Access's own
// catch-up nothing to do, so a channel driven through it and one driven
// through Access alone must stay in lockstep if the arithmetic form is
// exact.
func refreshLoopReference(c *Channel, at clock.Time) {
	for c.nextRefresh > 0 && at >= c.nextRefresh {
		refreshEnd := c.nextRefresh + c.spec.RefreshTime
		for i := range c.banks {
			c.banks[i].openRow = -1
			if c.banks[i].nextCmd < refreshEnd {
				c.banks[i].nextCmd = refreshEnd
			}
		}
		if c.busFreeAt < refreshEnd {
			c.busFreeAt = refreshEnd
		}
		c.stats.Refreshes++
		c.nextRefresh += c.spec.RefreshInterval
	}
}

// TestRefreshCatchUpMatchesWindowLoop drives two identical channels with
// the same access sequence — including idle gaps from sub-window to
// multi-second, each spanning hundreds of thousands of tREFI windows —
// and requires completion times and every counter to match between the
// arithmetic catch-up and the per-window reference at each step.
func TestRefreshCatchUpMatchesWindowLoop(t *testing.T) {
	for _, spec := range []Spec{HBM().WithRefresh(), DDR4_1600().WithRefresh()} {
		fast := NewChannel(spec)
		ref := NewChannel(spec)
		rng := rand.New(rand.NewSource(7))
		gaps := []clock.Duration{
			0,
			clock.Microsecond,                 // sub-window
			spec.RefreshInterval,              // exactly one window
			10 * spec.RefreshInterval,         // a handful
			clock.Duration(3 * clock.Second),  // ~384k windows
			clock.Duration(11 * clock.Second), // multi-second idle stretch
		}
		var at clock.Time
		// The reference loop replays every window individually, so the
		// iteration count is modest: multi-second gaps make it walk
		// hundreds of thousands of windows per access.
		for i := 0; i < 250; i++ {
			at += gaps[rng.Intn(len(gaps))] + clock.Duration(rng.Int63n(int64(200*clock.Nanosecond)))
			row := uint64(rng.Intn(64))
			write := rng.Intn(4) == 0

			refreshLoopReference(ref, at)
			gotRef := ref.Access(row, write, at)
			got := fast.Access(row, write, at)
			if got != gotRef {
				t.Fatalf("%s access %d at %v: done %v, reference %v", spec.Name, i, at, got, gotRef)
			}
			if fast.stats != ref.stats {
				t.Fatalf("%s access %d: stats %+v, reference %+v", spec.Name, i, fast.stats, ref.stats)
			}
			if fast.nextRefresh != ref.nextRefresh || fast.busFreeAt != ref.busFreeAt {
				t.Fatalf("%s access %d: nextRefresh/busFreeAt diverged", spec.Name, i)
			}
		}
		if fast.stats.Refreshes == 0 {
			t.Fatalf("%s: sequence exercised no refresh windows", spec.Name)
		}
	}
}
