package migrant

import (
	"reflect"
	"testing"

	"repro/internal/addr"
	"repro/internal/clock"
	"repro/internal/dram"
	"repro/internal/mech"
	"repro/internal/memsys"
	"repro/internal/trace"
)

// testMigrant is a Migrant with the touch filter the engine would keep for it.
type testMigrant struct {
	*Migrant
	touch mech.TouchFilter
}

// access drives one request through m the way the engine does: with its
// address decoded under the backend's geometry and its touch verdict
// from a filter that sees every request m serves.
func access(m *testMigrant, r *trace.Request, at clock.Time) clock.Time {
	d := []trace.Decoded{trace.Decode(r, &m.backend.Geom)}
	var touched [1]bool
	m.touch.Scan(d, touched[:])
	return m.Access(&d[0], r.Time, at, touched[0])
}

func newMigrant(t *testing.T, cfg Config) *testMigrant {
	t.Helper()
	b := mech.NewBackend(memsys.MustNew(addr.DefaultLayout(), dram.HBM(), dram.DDR4_1600()))
	m, err := New(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	return &testMigrant{Migrant: m}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Epoch: 0, HotThreshold: 8, FaultCost: 0, MaxPending: 1, CounterBits: 8},
		{Epoch: clock.Microsecond, HotThreshold: 0, FaultCost: 0, MaxPending: 1, CounterBits: 8},
		{Epoch: clock.Microsecond, HotThreshold: 8, FaultCost: 2 * clock.Microsecond, MaxPending: 1, CounterBits: 8},
		{Epoch: clock.Microsecond, HotThreshold: 8, FaultCost: 0, MaxPending: 0, CounterBits: 8},
		{Epoch: clock.Microsecond, HotThreshold: 8, FaultCost: 0, MaxPending: 1, CounterBits: 0},
		{Epoch: clock.Microsecond, HotThreshold: 8, FaultCost: 0, MaxPending: 1, CounterBits: 17},
		{Epoch: clock.Microsecond, HotThreshold: 300, FaultCost: 0, MaxPending: 1, CounterBits: 8},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestRequiresTwoLevels(t *testing.T) {
	b := mech.NewBackend(memsys.MustNew(
		addr.Layout{FastBytes: 1 << 30, FastChannels: 8, NumPods: 4},
		dram.HBM(), dram.DDR4_1600()))
	if _, err := New(DefaultConfig(), b); err == nil {
		t.Fatal("single-level layout accepted")
	}
}

func slowPage(l addr.Layout, i int) addr.Page { return l.FastPages() + addr.Page(i) }

// TestHotPageFaultsIn exercises the defining behaviour: the promotion
// triggers mid-epoch, the moment the threshold is crossed plus the fault
// cost — no epoch boundary needed.
func TestHotPageFaultsIn(t *testing.T) {
	m := newMigrant(t, DefaultConfig())
	hot := slowPage(m.layout, 77)
	req := trace.Request{Addr: uint64(hot.Base())}
	other := trace.Request{Addr: uint64(slowPage(m.layout, 5000).Base())}
	at := clock.Time(0)
	// Interleave two pages so the touch filter counts every access.
	for i := 0; i < DefaultConfig().HotThreshold; i++ {
		at += clock.Microsecond
		access(m, &req, at)
		at += clock.Microsecond
		access(m, &other, at)
	}
	if m.FrameOfPage(hot) != hot {
		t.Fatal("page moved before the fault cost elapsed")
	}
	// Well within the first epoch, but past the fault cost: promoted.
	access(m, &other, at+3*clock.Microsecond)
	if got := m.FrameOfPage(hot); got >= m.layout.FastPages() {
		t.Fatalf("hot page still in slow slot %d after fault+copy window", got)
	}
	st := m.Stats()
	if st.Intervals != 0 {
		t.Fatalf("promotion waited for an epoch boundary: %+v", st)
	}
	if st.PageMigrations == 0 || st.GlobalMoveLines != st.LineMigrations {
		t.Fatalf("stats %+v", st)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBelowThresholdStays verifies the threshold gates promotion and the
// epoch boundary clears the harvested counters.
func TestBelowThresholdStays(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HotThreshold = 50
	m := newMigrant(t, cfg)
	req := trace.Request{Addr: uint64(slowPage(m.layout, 5).Base())}
	other := trace.Request{Addr: uint64(slowPage(m.layout, 7000).Base())}
	at := clock.Time(0)
	for epoch := 0; epoch < 3; epoch++ {
		// 30 touches per epoch: below threshold 50, and the boundary
		// resets the count so epochs never accumulate.
		for i := 0; i < 30; i++ {
			at += clock.Microsecond
			access(m, &req, at)
			at += 200 * clock.Nanosecond
			access(m, &other, at)
		}
		at = clock.Time(cfg.Epoch) * clock.Time(epoch+1)
	}
	if st := m.Stats(); st.PageMigrations != 0 {
		t.Fatalf("below-threshold page migrated: %+v", st)
	}
}

// TestVictimHandSkipsHotResidents drives enough hot pages that promoted
// residents become eviction candidates, and verifies the clock hand never
// evicts a page that is itself hot this epoch.
func TestVictimHandSkipsHotResidents(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HotThreshold = 4
	m := newMigrant(t, cfg)
	at := clock.Time(0)
	// Promote pages 0..9; keep touching them all so they stay hot.
	for round := 0; round < 12; round++ {
		for i := 0; i < 10; i++ {
			at += 300 * clock.Nanosecond
			req := trace.Request{Addr: uint64(slowPage(m.layout, i).Base())}
			access(m, &req, at)
		}
	}
	at += 50 * clock.Microsecond
	access(m, &trace.Request{Addr: 0}, at)
	for i := 0; i < 10; i++ {
		p := slowPage(m.layout, i)
		if m.FrameOfPage(p) >= m.layout.FastPages() {
			t.Fatalf("hot page %d not promoted", i)
		}
		// A promoted page that is still hot must not have been demoted
		// again by a later victim scan within this epoch.
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDeterminism runs the same access pattern twice and requires
// identical stats and placement.
func TestDeterminism(t *testing.T) {
	run := func() (mech.MigStats, addr.Page) {
		m := newMigrant(t, DefaultConfig())
		defer m.Release()
		at := clock.Time(0)
		for i := 0; i < 5000; i++ {
			p := slowPage(m.layout, (i*7)%64)
			at += 150 * clock.Nanosecond
			access(m, &trace.Request{Addr: uint64(p.Base()), Write: i%3 == 0}, at)
		}
		return m.Stats(), m.FrameOfPage(slowPage(m.layout, 7))
	}
	s1, f1 := run()
	s2, f2 := run()
	if !reflect.DeepEqual(s1, s2) || f1 != f2 {
		t.Fatalf("nondeterministic: %+v/%v vs %+v/%v", s1, f1, s2, f2)
	}
	if s1.PageMigrations == 0 {
		t.Fatal("pattern promoted nothing; test is vacuous")
	}
}

// TestMaxPendingDrops verifies the promotion throttle: with MaxPending 1
// a burst of simultaneous faults drops all but one.
func TestMaxPendingDrops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxPending = 1
	cfg.HotThreshold = 2
	m := newMigrant(t, cfg)
	at := clock.Time(0)
	for round := 0; round < 3; round++ {
		for i := 0; i < 20; i++ {
			at += 10 * clock.Nanosecond
			access(m, &trace.Request{Addr: uint64(slowPage(m.layout, i).Base())}, at)
		}
	}
	st := m.Stats()
	if st.DroppedMigrations == 0 {
		t.Fatalf("no drops under MaxPending=1: %+v", st)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
