package thm

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/clock"
	"repro/internal/dram"
	"repro/internal/mech"
	"repro/internal/memsys"
	"repro/internal/trace"
)

// testTHM is a THM with the touch filter the engine would keep for it.
type testTHM struct {
	*THM
	touch mech.TouchFilter
}

// access drives one request through m the way the engine does: with its
// address decoded under the backend's geometry and its touch verdict
// from a filter that sees every request m serves.
func access(m *testTHM, r *trace.Request, at clock.Time) clock.Time {
	d := []trace.Decoded{trace.Decode(r, &m.backend.Geom)}
	var touched [1]bool
	m.touch.Scan(d, touched[:])
	return m.Access(&d[0], r.Time, at, touched[0])
}

func newTHM(t *testing.T, cfg Config) *testTHM {
	t.Helper()
	b := mech.NewBackend(memsys.MustNew(addr.DefaultLayout(), dram.HBM(), dram.DDR4_1600()))
	m, err := New(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	return &testTHM{THM: m}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Threshold: 0, CounterBits: 8},
		{Threshold: 4, CounterBits: 0},
		{Threshold: 4, CounterBits: 9},
		{Threshold: 200, CounterBits: 4},
		{Threshold: 4, CounterBits: 8, CacheBytes: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestSegmentDecomposition(t *testing.T) {
	m := newTHM(t, DefaultConfig())
	fast := uint64(m.layout.FastPages())
	// Fast page p is member 0 of segment p.
	seg, member := m.segmentOf(addr.Page(7))
	if seg != 7 || member != 0 {
		t.Fatalf("fast page: seg %d member %d", seg, member)
	}
	// Slow pages map to members 1..8 of their segment.
	for j := 0; j < 8; j++ {
		p := addr.Page(fast + 7 + uint64(j)*fast)
		seg, member = m.segmentOf(p)
		if seg != 7 || member != j+1 {
			t.Fatalf("slow page %d: seg %d member %d, want 7/%d", p, seg, member, j+1)
		}
		if m.pageOf(seg, member) != p {
			t.Fatalf("pageOf not inverse for %d", p)
		}
	}
}

func TestCompetingCounterTriggersSwap(t *testing.T) {
	m := newTHM(t, Config{Threshold: 4, CounterBits: 8})
	fast := uint64(m.layout.FastPages())
	slow := addr.Page(fast + 3) // member 1 of segment 3
	req := trace.Request{Addr: uint64(slow.Base())}
	other := trace.Request{Addr: uint64(addr.Page(fast + 40000).Base())}
	at := clock.Time(0)
	// Threshold 4: the counter advances once per page touch; alternating
	// with an unrelated segment makes each access a fresh touch.
	for i := 0; i < 3; i++ {
		at += clock.Microsecond
		access(m, &req, at)
		if m.SlotOfPage(slow) == 0 {
			t.Fatalf("swap fired early at touch %d", i+1)
		}
		at += clock.Microsecond
		access(m, &other, at)
	}
	at += clock.Microsecond
	access(m, &req, at)
	if m.SlotOfPage(slow) != 0 {
		t.Fatal("swap did not fire at threshold")
	}
	// The evicted fast page now occupies the winner's slow slot.
	if m.SlotOfPage(addr.Page(3)) != 1 {
		t.Fatalf("evicted fast page in slot %d, want 1", m.SlotOfPage(addr.Page(3)))
	}
	if st := m.Stats(); st.PageMigrations != 1 || st.BytesMoved == 0 ||
		st.BytesMoved > 2*addr.PageBytes {
		t.Fatalf("stats %+v", st)
	}
}

func TestDefenderWearsChallengerDown(t *testing.T) {
	m := newTHM(t, DefaultConfig())
	fast := uint64(m.layout.FastPages())
	slowReq := trace.Request{Addr: uint64(addr.Page(fast + 5).Base())}
	fastReq := trace.Request{Addr: uint64(addr.Page(5).Base())}
	at := clock.Time(0)
	// Alternate challenger and defender: counter oscillates below the
	// threshold, no swap (the anti-ping-pong property the paper credits
	// competing counters with).
	for i := 0; i < 50; i++ {
		at += clock.Microsecond
		access(m, &slowReq, at)
		at += clock.Microsecond
		access(m, &fastReq, at)
	}
	if m.Stats().PageMigrations != 0 {
		t.Fatal("alternating accesses triggered a swap")
	}
}

func TestCompetingChallengersBlockEachOther(t *testing.T) {
	m := newTHM(t, DefaultConfig())
	fast := uint64(m.layout.FastPages())
	// Two slow pages of the same segment alternate: each access decrements
	// the other's progress, so neither reaches the threshold.
	a := trace.Request{Addr: uint64(addr.Page(fast + 9).Base())}
	b := trace.Request{Addr: uint64(addr.Page(fast + 9 + fast).Base())}
	at := clock.Time(0)
	for i := 0; i < 100; i++ {
		at += clock.Microsecond
		access(m, &a, at)
		at += clock.Microsecond
		access(m, &b, at)
	}
	if m.Stats().PageMigrations != 0 {
		t.Fatal("competing challengers triggered a swap")
	}
}

func TestSwappedPageServedFromFast(t *testing.T) {
	m := newTHM(t, Config{Threshold: 4, CounterBits: 8})
	fast := uint64(m.layout.FastPages())
	slow := addr.Page(fast + 11)
	req := trace.Request{Addr: uint64(slow.Base())}
	other := trace.Request{Addr: uint64(addr.Page(fast + 50000).Base())}
	at := clock.Time(0)
	for i := 0; i < 4; i++ {
		at += 10 * clock.Microsecond
		access(m, &req, at)
		at += 10 * clock.Microsecond
		access(m, &other, at)
	}
	if m.SlotOfPage(slow) != 0 {
		t.Fatal("setup: page not swapped")
	}
	// Well after the swap completes, accesses must be fast-memory fast.
	// The first late access drains the remaining copy chunks; snapshot
	// after it so only the demand access is counted.
	access(m, &other, 5*clock.Millisecond)
	before := m.backend.Sys.FastStats().Accesses()
	access(m, &req, 10*clock.Millisecond)
	if m.backend.Sys.FastStats().Accesses() != before+1 {
		t.Fatal("access to swapped-in page did not hit fast memory")
	}
}

func TestLockStallsDuringSwap(t *testing.T) {
	m := newTHM(t, Config{Threshold: 4, CounterBits: 8})
	fast := uint64(m.layout.FastPages())
	slow := addr.Page(fast + 21)
	req := trace.Request{Addr: uint64(slow.Base())}
	other := trace.Request{Addr: uint64(addr.Page(fast + 60000).Base())}
	at := clock.Time(0)
	for i := 0; i < 3; i++ {
		at += clock.Microsecond
		access(m, &req, at)
		at += clock.Microsecond
		access(m, &other, at)
	}
	at += clock.Microsecond
	access(m, &req, at) // fourth touch: triggers the swap
	// Immediately after the triggering access the page is locked by the
	// in-flight copy chunks: the next access must record a lock stall and
	// complete no earlier than the executed chunks.
	done := access(m, &req, at+clock.Nanosecond)
	if done <= at+clock.Nanosecond {
		t.Fatalf("access during swap completed instantly: %v", done)
	}
	if m.Stats().LockStalls == 0 {
		t.Fatal("no lock stall recorded")
	}
}

func TestCacheModelCounts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 16 << 10
	m := newTHM(t, cfg)
	fast := uint64(m.layout.FastPages())
	at := clock.Time(0)
	for i := 0; i < 5000; i++ {
		at += 100 * clock.Nanosecond
		p := addr.Page(fast + uint64(i%3000))
		access(m, &trace.Request{Addr: uint64(p.Base())}, at)
	}
	st := m.Stats()
	if st.CacheMisses == 0 || st.CacheHits+st.CacheMisses < 5000 {
		t.Fatalf("cache stats %+v", st)
	}
}

func TestRejectsSingleLevel(t *testing.T) {
	b := mech.NewBackend(memsys.MustNew(
		addr.Layout{FastBytes: 9 << 30, FastChannels: 8, NumPods: 4},
		dram.HBM(), dram.DDR4_1600()))
	if _, err := New(DefaultConfig(), b); err == nil {
		t.Fatal("THM accepted single-level layout")
	}
}

func TestSegmentPermutationHelpers(t *testing.T) {
	slots := identitySlots(9)
	for i := 0; i < 9; i++ {
		if memberAt(slots, i) != i || slotOfMember(slots, i, 9) != i {
			t.Fatalf("identity broken at %d", i)
		}
	}
	slots = swapSlotsVal(slots, 0, 4)
	if memberAt(slots, 0) != 4 || memberAt(slots, 4) != 0 {
		t.Fatal("swapSlotsVal wrong")
	}
	slots = swapSlotsVal(slots, 0, 4)
	if slots != identitySlots(9) {
		t.Fatal("double swap is not identity")
	}
}
