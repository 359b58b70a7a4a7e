package core

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/clock"
	"repro/internal/dram"
	"repro/internal/mech"
	"repro/internal/memsys"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testPod is a MemPod with the touch filter the engine would keep for it.
type testPod struct {
	*MemPod
	touch mech.TouchFilter
}

// access drives one request through m the way the engine does: with its
// address decoded under the backend's geometry and its touch verdict
// from a filter that sees every request m serves.
func access(m *testPod, r *trace.Request, at clock.Time) clock.Time {
	d := []trace.Decoded{trace.Decode(r, &m.backend.Geom)}
	var touched [1]bool
	m.touch.Scan(d, touched[:])
	return m.Access(&d[0], r.Time, at, touched[0])
}

func newTestPod(t *testing.T, cfg Config) *testPod {
	t.Helper()
	b := mech.NewBackend(memsys.MustNew(addr.DefaultLayout(), dram.HBM(), dram.DDR4_1600()))
	m, err := New(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	return &testPod{MemPod: m}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Interval: 0, Counters: 64, CounterBits: 2},
		{Interval: clock.Microsecond, Counters: 0, CounterBits: 2},
		{Interval: clock.Microsecond, Counters: 64, CounterBits: 0},
		{Interval: clock.Microsecond, Counters: 64, CounterBits: 2, CacheBytes: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestNewRejectsSingleLevel(t *testing.T) {
	b := mech.NewBackend(memsys.MustNew(
		addr.Layout{FastBytes: 9 << 30, FastChannels: 8, NumPods: 4},
		dram.HBM(), dram.DDR4_1600()))
	if _, err := New(DefaultConfig(), b); err == nil {
		t.Fatal("MemPod accepted single-level layout")
	}
}

// slowPageAddr returns the byte address of the i'th slow page of pod 0.
func slowPageAddr(l addr.Layout, i int) uint64 {
	p := l.FastPages() + addr.Page(i*l.NumPods) // slow pages of pod 0
	return uint64(p.Base())
}

func TestHotSlowPageMigratesToFast(t *testing.T) {
	m := newTestPod(t, DefaultConfig())
	l := m.layout
	hot := addr.PageOf(addr.Addr(slowPageAddr(l, 5)))

	// Hammer one slow page during the first interval.
	at := clock.Time(0)
	for i := 0; i < 200; i++ {
		at += 100 * clock.Nanosecond
		access(m, &trace.Request{Addr: uint64(hot.Base())}, at)
	}
	if _, f := m.FrameOf(hot); l.IsFastFrame(f) {
		t.Fatal("page migrated before any interval boundary")
	}
	// Cross the boundary.
	access(m, &trace.Request{Addr: uint64(hot.Base())}, 51*clock.Microsecond)
	if _, f := m.FrameOf(hot); !l.IsFastFrame(f) {
		t.Fatal("hot slow page was not migrated to fast memory")
	}
	st := m.Stats()
	if st.Intervals != 1 || st.PageMigrations < 1 {
		t.Fatalf("stats %+v", st)
	}
	// Bytes are accounted per executed copy chunk, so they never exceed
	// the full-swap volume and always match the moved-line count.
	if st.BytesMoved > st.PageMigrations*2*addr.PageBytes || st.BytesMoved == 0 {
		t.Fatalf("bytes moved %d inconsistent with %d swaps", st.BytesMoved, st.PageMigrations)
	}
	if st.BytesMoved != st.LineMigrations*addr.LineBytes {
		t.Fatalf("bytes %d != %d lines x 64", st.BytesMoved, st.LineMigrations)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationEvictsColdResident(t *testing.T) {
	m := newTestPod(t, DefaultConfig())
	l := m.layout
	hot := addr.PageOf(addr.Addr(slowPageAddr(l, 9)))
	at := clock.Time(0)
	for i := 0; i < 100; i++ {
		at += 100 * clock.Nanosecond
		access(m, &trace.Request{Addr: uint64(hot.Base())}, at)
	}
	access(m, &trace.Request{Addr: uint64(hot.Base())}, 51*clock.Microsecond)

	_, f := m.FrameOf(hot)
	if !l.IsFastFrame(f) {
		t.Fatal("migration did not happen")
	}
	// The evicted fast page now lives in the hot page's old slow frame.
	pod := l.PodOf(hot)
	evicted := m.pods[pod].remap.A
	_, home := l.HomeFrame(hot)
	// Find the page that ended up in the hot page's home frame.
	found := false
	for local, frame := range evicted {
		if frame == uint32(home) && local != int(uint32(home)) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no page occupies the migrated page's old slow frame")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUpToKMigrationsPerInterval(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Counters = 8
	m := newTestPod(t, cfg)
	l := m.layout

	// Hammer 20 distinct slow pages of pod 0; only K=8 can be tracked.
	at := clock.Time(0)
	for i := 0; i < 2000; i++ {
		at += 20 * clock.Nanosecond
		pageIdx := i % 20
		access(m, &trace.Request{Addr: slowPageAddr(l, pageIdx)}, at)
	}
	access(m, &trace.Request{Addr: slowPageAddr(l, 0)}, 51*clock.Microsecond)
	if st := m.Stats(); st.PageMigrations > 8 {
		t.Fatalf("pod migrated %d pages in one interval, K=8", st.PageMigrations)
	}
}

func TestVictimSkipsHotResidents(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Counters = 4
	m := newTestPod(t, cfg)
	l := m.layout

	// Make fast page of pod 0 frame 0 hot, plus one hot slow page.
	fastHot := addr.Page(0) // home frame 0 of pod 0
	if pod, f := m.FrameOf(fastHot); pod != 0 || f != 0 {
		t.Fatalf("unexpected home of page 0: pod %d frame %d", pod, f)
	}
	slowHot := addr.PageOf(addr.Addr(slowPageAddr(l, 3)))
	at := clock.Time(0)
	for i := 0; i < 300; i++ {
		at += 50 * clock.Nanosecond
		access(m, &trace.Request{Addr: uint64(fastHot.Base())}, at)
		at += 50 * clock.Nanosecond
		access(m, &trace.Request{Addr: uint64(slowHot.Base())}, at)
	}
	// Swaps are paced across the epoch; keep accessing so the queue
	// drains (never-started swaps are dropped at the next boundary).
	for t := clock.Time(51 * clock.Microsecond); t < 100*clock.Microsecond; t += clock.Microsecond {
		access(m, &trace.Request{Addr: uint64(fastHot.Base())}, t)
	}

	// The hot fast page must not have been evicted.
	if _, f := m.FrameOf(fastHot); !l.IsFastFrame(f) {
		t.Fatal("hot fast-resident page was evicted by the victim finder")
	}
	if _, f := m.FrameOf(slowHot); !l.IsFastFrame(f) {
		t.Fatal("hot slow page was not migrated")
	}
}

func TestMigratedPageAccessStallsUntilSwapDone(t *testing.T) {
	m := newTestPod(t, DefaultConfig())
	l := m.layout
	hot := addr.PageOf(addr.Addr(slowPageAddr(l, 2)))
	at := clock.Time(0)
	for i := 0; i < 100; i++ {
		at += 100 * clock.Nanosecond
		access(m, &trace.Request{Addr: uint64(hot.Base())}, at)
	}
	// First access right after the boundary: the swap is in flight, so the
	// completion must be at least the swap's completion.
	boundary := clock.Time(50 * clock.Microsecond)
	done := access(m, &trace.Request{Addr: uint64(hot.Base())}, boundary)
	if done <= boundary+clock.Time(dram.HBM().RowHitLatency()) {
		t.Fatalf("access during swap completed too fast: %v", done)
	}
	if m.Stats().LockStalls == 0 {
		t.Fatal("no lock stall recorded")
	}
}

func TestMultipleIntervalsCatchUp(t *testing.T) {
	// A large time jump must process all intervening boundaries.
	m := newTestPod(t, DefaultConfig())
	access(m, &trace.Request{Addr: 0}, 0)
	access(m, &trace.Request{Addr: 0}, 501*clock.Microsecond)
	if got := m.Stats().Intervals; got != 10 {
		t.Fatalf("intervals processed %d, want 10", got)
	}
}

func TestCacheModelCountsMisses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 16 << 10
	m := newTestPod(t, cfg)
	l := m.layout
	at := clock.Time(0)
	for i := 0; i < 4000; i++ {
		at += 50 * clock.Nanosecond
		access(m, &trace.Request{Addr: slowPageAddr(l, i%2000)}, at)
	}
	st := m.Stats()
	if st.CacheMisses == 0 {
		t.Fatal("cache model recorded no misses over a 2000-page scan")
	}
	if st.CacheHits+st.CacheMisses < 4000 {
		t.Fatalf("cache accesses %d < requests", st.CacheHits+st.CacheMisses)
	}
	// A cached run must be slower than an uncached one on the same trace.
	m2 := newTestPod(t, DefaultConfig())
	at = 0
	var sumCached, sumFree clock.Duration
	for i := 0; i < 4000; i++ {
		at += 50 * clock.Nanosecond
		sumFree += access(m2, &trace.Request{Addr: slowPageAddr(l, i%2000)}, at) - at
	}
	m3 := newTestPod(t, cfg)
	at = 0
	for i := 0; i < 4000; i++ {
		at += 50 * clock.Nanosecond
		sumCached += access(m3, &trace.Request{Addr: slowPageAddr(l, i%2000)}, at) - at
	}
	if sumCached <= sumFree {
		t.Errorf("cache-modelled run (%v) not slower than free-bookkeeping run (%v)",
			sumCached, sumFree)
	}
}

func TestRemapPermutationUnderRealWorkload(t *testing.T) {
	m := newTestPod(t, DefaultConfig())
	w, err := workload.Homogeneous("xalanc")
	if err != nil {
		t.Fatal(err)
	}
	s := w.MustStream(60000, 17)
	var r trace.Request
	for s.Next(&r) {
		access(m, &r, r.Time)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Intervals == 0 || st.PageMigrations == 0 {
		t.Fatalf("workload drove no migration activity: %+v", st)
	}
}

func TestAccessCompletionAfterArrival(t *testing.T) {
	m := newTestPod(t, DefaultConfig())
	w, _ := workload.Homogeneous("mcf")
	s := w.MustStream(20000, 3)
	var r trace.Request
	for s.Next(&r) {
		if done := access(m, &r, r.Time); done <= r.Time {
			t.Fatalf("completion %v <= arrival %v", done, r.Time)
		}
	}
}
