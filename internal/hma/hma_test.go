package hma

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/clock"
	"repro/internal/dram"
	"repro/internal/mech"
	"repro/internal/memsys"
	"repro/internal/trace"
)

// testHMA is a HMA with the touch filter the engine would keep for it.
type testHMA struct {
	*HMA
	touch mech.TouchFilter
}

// access drives one request through h the way the engine does: with its
// address decoded under the backend's geometry and its touch verdict
// from a filter that sees every request h serves.
func access(h *testHMA, r *trace.Request, at clock.Time) clock.Time {
	d := []trace.Decoded{trace.Decode(r, &h.backend.Geom)}
	var touched [1]bool
	h.touch.Scan(d, touched[:])
	return h.Access(&d[0], r.Time, at, touched[0])
}

// testConfig shrinks the interval so tests cross boundaries quickly.
func testConfig() Config {
	c := DefaultConfig()
	c.Interval = 500 * clock.Microsecond
	c.SortStall = 35 * clock.Microsecond // preserve the 7% duty cycle
	return c
}

func newHMA(t *testing.T, cfg Config) *testHMA {
	t.Helper()
	b := mech.NewBackend(memsys.MustNew(addr.DefaultLayout(), dram.HBM(), dram.DDR4_1600()))
	h, err := New(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	return &testHMA{HMA: h}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Interval: 0, SortStall: 0, CounterBits: 16, MaxMigrations: 1},
		{Interval: clock.Millisecond, SortStall: 2 * clock.Millisecond, CounterBits: 16, MaxMigrations: 1},
		{Interval: clock.Millisecond, SortStall: 0, CounterBits: 0, MaxMigrations: 1},
		{Interval: clock.Millisecond, SortStall: 0, CounterBits: 16, MaxMigrations: 0},
		{Interval: clock.Millisecond, SortStall: 0, CounterBits: 16, MaxMigrations: 1, CacheBytes: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func slowPage(l addr.Layout, i int) addr.Page { return l.FastPages() + addr.Page(i) }

func TestHotPageMigratesAtBoundary(t *testing.T) {
	h := newHMA(t, testConfig())
	hot := slowPage(h.layout, 77)
	req := trace.Request{Addr: uint64(hot.Base())}
	other := trace.Request{Addr: uint64(slowPage(h.layout, 5000).Base())}
	at := clock.Time(0)
	for i := 0; i < 100; i++ {
		at += clock.Microsecond
		access(h, &req, at)
		at += clock.Microsecond
		access(h, &other, at)
	}
	if h.FrameOfPage(hot) != hot {
		t.Fatal("page moved before boundary")
	}
	// Migrations are queued at the boundary and execute once the OS sort
	// completes (boundary + SortStall); drive time past that point.
	access(h, &req, 540*clock.Microsecond)
	if got := h.FrameOfPage(hot); got >= h.layout.FastPages() {
		t.Fatalf("hot page still in slow slot %d after sort completed", got)
	}
	st := h.Stats()
	if st.Intervals != 1 || st.PageMigrations == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMigrationsWaitForSort(t *testing.T) {
	h := newHMA(t, testConfig())
	req := trace.Request{Addr: uint64(slowPage(h.layout, 3).Base())}
	other := trace.Request{Addr: uint64(slowPage(h.layout, 6000).Base())}
	at := clock.Time(0)
	for i := 0; i < 50; i++ {
		at += clock.Microsecond
		access(h, &req, at)
		at += clock.Microsecond
		access(h, &other, at)
	}
	// Just after the boundary the sort is still running: nothing migrated.
	boundary := clock.Time(500 * clock.Microsecond)
	access(h, &req, boundary+clock.Nanosecond)
	if h.Stats().PageMigrations != 0 {
		t.Fatal("migration executed before the sort completed")
	}
	// After the sort finishes the queue drains.
	access(h, &req, boundary+36*clock.Microsecond)
	if h.Stats().PageMigrations == 0 {
		t.Fatal("migration did not execute after the sort completed")
	}
}

func TestThresholdGatesMigration(t *testing.T) {
	cfg := testConfig()
	cfg.HotThreshold = 50
	h := newHMA(t, cfg)
	// Only 10 touches: below threshold 50, no migration.
	req := trace.Request{Addr: uint64(slowPage(h.layout, 5).Base())}
	other := trace.Request{Addr: uint64(slowPage(h.layout, 7000).Base())}
	at := clock.Time(0)
	for i := 0; i < 10; i++ {
		at += clock.Microsecond
		access(h, &req, at)
		at += clock.Microsecond
		access(h, &other, at)
	}
	access(h, &req, 501*clock.Microsecond)
	if h.Stats().PageMigrations != 0 {
		t.Fatal("below-threshold page migrated")
	}
}

func TestMaxMigrationsCap(t *testing.T) {
	cfg := testConfig()
	cfg.MaxMigrations = 3
	h := newHMA(t, cfg)
	at := clock.Time(0)
	for i := 0; i < 2000; i++ {
		at += 200 * clock.Nanosecond
		p := slowPage(h.layout, i%10)
		access(h, &trace.Request{Addr: uint64(p.Base())}, at)
	}
	access(h, &trace.Request{Addr: 0}, 501*clock.Microsecond)
	if got := h.Stats().PageMigrations; got > 3 {
		t.Fatalf("migrated %d pages, cap 3", got)
	}
}

func TestCountersResetEachInterval(t *testing.T) {
	h := newHMA(t, testConfig())
	hot := slowPage(h.layout, 8)
	req := trace.Request{Addr: uint64(hot.Base())}
	other := trace.Request{Addr: uint64(slowPage(h.layout, 8000).Base())}
	at := clock.Time(0)
	for i := 0; i < 20; i++ {
		at += clock.Microsecond
		access(h, &req, at)
		at += clock.Microsecond
		access(h, &other, at)
	}
	// Let interval 1's queue drain completely (it is paced across the
	// epoch), then cross idle boundaries: they must queue nothing new.
	access(h, &trace.Request{Addr: 0}, 995*clock.Microsecond)
	first := h.Stats().PageMigrations
	if first == 0 {
		t.Fatal("setup: interval 1 queued no migrations")
	}
	access(h, &trace.Request{Addr: 0}, 1495*clock.Microsecond)
	access(h, &trace.Request{Addr: 0}, 1995*clock.Microsecond)
	if got := h.Stats().PageMigrations; got != first {
		t.Fatalf("idle intervals migrated %d more pages", got-first)
	}
}

func TestCacheModelInjectsMisses(t *testing.T) {
	cfg := testConfig()
	cfg.CacheBytes = 16 << 10
	h := newHMA(t, cfg)
	at := clock.Time(0)
	for i := 0; i < 5000; i++ {
		at += 50 * clock.Nanosecond
		access(h, &trace.Request{Addr: uint64(slowPage(h.layout, i%4000).Base())}, at)
	}
	st := h.Stats()
	if st.CacheMisses == 0 {
		t.Fatal("no cache misses over a 4000-page scan")
	}
}

func TestRejectsSingleLevel(t *testing.T) {
	b := mech.NewBackend(memsys.MustNew(
		addr.Layout{FastBytes: 9 << 30, FastChannels: 8, NumPods: 4},
		dram.HBM(), dram.DDR4_1600()))
	if _, err := New(DefaultConfig(), b); err == nil {
		t.Fatal("HMA accepted single-level layout")
	}
}
