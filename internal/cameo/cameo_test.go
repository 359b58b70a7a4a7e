package cameo

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/clock"
	"repro/internal/dram"
	"repro/internal/mech"
	"repro/internal/memsys"
	"repro/internal/trace"
)

// access drives one request through c the way the engine does: with its
// address decoded under the backend's geometry. CAMEO ignores the touch
// verdict.
func access(c *CAMEO, r *trace.Request, at clock.Time) clock.Time {
	d := trace.Decode(r, &c.backend.Geom)
	return c.Access(&d, r.Time, at, true)
}

func newCAMEO(t *testing.T) *CAMEO {
	t.Helper()
	b := mech.NewBackend(memsys.MustNew(addr.DefaultLayout(), dram.HBM(), dram.DDR4_1600()))
	c, err := New(DefaultConfig(), b)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGroupDecomposition(t *testing.T) {
	c := newCAMEO(t)
	fast := uint64(c.layout.FastLines())
	seg, member := c.groupOf(addr.Line(42))
	if seg != 42 || member != 0 {
		t.Fatalf("fast line: %d/%d", seg, member)
	}
	for j := 0; j < 8; j++ {
		ln := addr.Line(fast + 42 + uint64(j)*fast)
		seg, member = c.groupOf(ln)
		if seg != 42 || member != j+1 {
			t.Fatalf("slow line %d: %d/%d", ln, seg, member)
		}
		if c.lineOf(seg, member) != ln {
			t.Fatal("lineOf not inverse")
		}
	}
}

func TestEverySlowAccessSwaps(t *testing.T) {
	c := newCAMEO(t)
	fast := uint64(c.layout.FastLines())
	slow := addr.Line(fast + 100)
	req := trace.Request{Addr: uint64(slow) * addr.LineBytes}
	access(c, &req, 0)
	if c.SlotOfLine(slow) != 0 {
		t.Fatal("slow line not promoted on first access")
	}
	if st := c.Stats(); st.PageMigrations != 1 || st.BytesMoved != 2*addr.LineBytes {
		t.Fatalf("stats %+v", st)
	}
	// Accessing the evicted fast line swaps it straight back: thrash.
	evicted := addr.Line(100)
	if c.SlotOfLine(evicted) == 0 {
		t.Fatal("fast line should have been evicted")
	}
	req2 := trace.Request{Addr: uint64(c.lineOf(100, 0)) * addr.LineBytes}
	_ = req2
	reqEv := trace.Request{Addr: uint64(evicted) * addr.LineBytes}
	access(c, &reqEv, clock.Millisecond)
	if c.SlotOfLine(evicted) != 0 {
		t.Fatal("evicted line not swapped back on access")
	}
	if c.Stats().PageMigrations != 2 {
		t.Fatal("second swap not counted")
	}
}

func TestFastAccessDoesNotSwap(t *testing.T) {
	c := newCAMEO(t)
	req := trace.Request{Addr: 64 * 7}
	access(c, &req, 0)
	if c.Stats().PageMigrations != 0 {
		t.Fatal("fast-resident access triggered a swap")
	}
}

func TestThrashingTwoLinesOneGroup(t *testing.T) {
	// Two slow lines of the same group alternating: every access causes a
	// swap — the paper's intra-segment conflict pathology.
	c := newCAMEO(t)
	fast := uint64(c.layout.FastLines())
	a := trace.Request{Addr: (fast + 5) * addr.LineBytes}
	b := trace.Request{Addr: (fast + 5 + fast) * addr.LineBytes}
	at := clock.Time(0)
	for i := 0; i < 10; i++ {
		at += 10 * clock.Microsecond
		access(c, &a, at)
		at += 10 * clock.Microsecond
		access(c, &b, at)
	}
	if got := c.Stats().PageMigrations; got != 20 {
		t.Fatalf("swaps = %d, want 20 (every access migrates)", got)
	}
}

func TestPermutationRoundTrip(t *testing.T) {
	c := newCAMEO(t)
	fast := uint64(c.layout.FastLines())
	ln := addr.Line(fast + 33)
	req := trace.Request{Addr: uint64(ln) * addr.LineBytes}
	// Swap in, then access the evicted fast line to swap back.
	access(c, &req, 0)
	evictedReq := trace.Request{Addr: 33 * addr.LineBytes}
	access(c, &evictedReq, clock.Millisecond)
	if c.SlotOfLine(addr.Line(33)) != 0 {
		t.Fatal("round trip did not restore fast line")
	}
	if c.SlotOfLine(ln) == 0 {
		t.Fatal("slow line still in fast slot after round trip")
	}
}

func TestLockStallDuringLineSwap(t *testing.T) {
	c := newCAMEO(t)
	fast := uint64(c.layout.FastLines())
	ln := addr.Line(fast + 9)
	req := trace.Request{Addr: uint64(ln) * addr.LineBytes}
	access(c, &req, 0)
	// Immediately re-access: the line is locked by its own swap.
	done := access(c, &req, clock.Nanosecond)
	if done <= clock.Time(10*clock.Nanosecond) {
		t.Fatalf("access during swap completed at %v", done)
	}
	if c.Stats().LockStalls == 0 {
		t.Fatal("no lock stall recorded")
	}
}

func TestRejectsSingleLevel(t *testing.T) {
	b := mech.NewBackend(memsys.MustNew(
		addr.Layout{SlowBytes: 9 << 30, SlowChannels: 4, NumPods: 4},
		dram.HBM(), dram.DDR4_1600()))
	if _, err := New(DefaultConfig(), b); err == nil {
		t.Fatal("CAMEO accepted single-level layout")
	}
}

func TestLLPPredictsStableGroups(t *testing.T) {
	b := mech.NewBackend(memsys.MustNew(addr.DefaultLayout(), dram.HBM(), dram.DDR4_1600()))
	cfg := DefaultConfig()
	cfg.UseLLP = true
	c, err := New(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	// Repeated access to one fast line: after the first access the LLP
	// knows the slot and mispredictions stop.
	req := trace.Request{Addr: 64 * 9}
	at := clock.Time(0)
	for i := 0; i < 20; i++ {
		at += clock.Microsecond
		access(c, &req, at)
	}
	if got := c.Mispredictions(); got > 1 {
		t.Errorf("stable line mispredicted %d times", got)
	}
}

func TestLLPMispredictsAfterSwap(t *testing.T) {
	b := mech.NewBackend(memsys.MustNew(addr.DefaultLayout(), dram.HBM(), dram.DDR4_1600()))
	cfg := DefaultConfig()
	cfg.UseLLP = true
	c, err := New(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	fast := uint64(c.layout.FastLines())
	slow := trace.Request{Addr: (fast + 77) * addr.LineBytes}
	evicted := trace.Request{Addr: 77 * addr.LineBytes}
	at := clock.Time(0)
	// Train on the fast line, swap it out via the slow member, then
	// re-access: its slot changed, so the predictor must miss once.
	at += clock.Microsecond
	access(c, &evicted, at)
	before := c.Mispredictions()
	at += clock.Microsecond
	access(c, &slow, at) // triggers swap: line 77 evicted to slow slot
	at += clock.Millisecond
	access(c, &evicted, at)
	if c.Mispredictions() <= before {
		t.Error("no misprediction after the group's permutation changed")
	}
}

func TestLLPDisabledCountsNothing(t *testing.T) {
	c := newCAMEO(t)
	req := trace.Request{Addr: 64}
	access(c, &req, 0)
	if c.Mispredictions() != 0 {
		t.Error("mispredictions counted with LLP disabled")
	}
}
