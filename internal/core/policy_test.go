package core

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/clock"
	"repro/internal/trace"
	"repro/internal/workload"
)

// An aggressive configuration (many counters, tiny epoch) must hit the
// copy-engine bandwidth cap and drop stale migrations rather than
// scheduling impossible copy rates.
func TestAggressiveConfigDropsMigrations(t *testing.T) {
	cfg := Config{Interval: 25 * clock.Microsecond, Counters: 512, CounterBits: 2}
	m := newTestPod(t, cfg)
	w, _ := workload.Homogeneous("cactus")
	s := w.MustStream(120_000, 5)
	var r trace.Request
	for s.Next(&r) {
		access(m, &r, r.Time)
	}
	st := m.Stats()
	if st.DroppedMigrations == 0 {
		t.Fatalf("aggressive config dropped nothing: %+v", st)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The design point must not be throttled: at 50 µs/64 counters the copy
// engine keeps up and nothing is dropped.
func TestDesignPointNotThrottled(t *testing.T) {
	m := newTestPod(t, DefaultConfig())
	w, _ := workload.Homogeneous("cactus")
	s := w.MustStream(120_000, 5)
	var r trace.Request
	for s.Next(&r) {
		access(m, &r, r.Time)
	}
	if st := m.Stats(); st.DroppedMigrations > st.PageMigrations/4 {
		t.Fatalf("design point heavily throttled: %+v", st)
	}
}

// Migration never crosses pods: after any run, every page's current frame
// belongs to the same pod as its home frame (structural, via FrameOf).
func TestMigrationStaysIntraPod(t *testing.T) {
	m := newTestPod(t, DefaultConfig())
	w, _ := workload.Mix(3)
	s := w.MustStream(60_000, 8)
	var r trace.Request
	touched := map[addr.Page]bool{}
	for s.Next(&r) {
		access(m, &r, r.Time)
		touched[addr.PageOf(addr.Addr(r.Addr))] = true
	}
	l := m.layout
	for p := range touched {
		homePod, _ := l.HomeFrame(p)
		curPod, f := m.FrameOf(p)
		if curPod != homePod {
			t.Fatalf("page %d moved from pod %d to pod %d", p, homePod, curPod)
		}
		if uint32(f) >= l.PagesPerPod() {
			t.Fatalf("page %d mapped to out-of-range frame %d", p, f)
		}
	}
}

// MemPod-FC (the exact-counter ablation) migrates at most K pages per pod
// per interval, like the MEA design.
func TestFullCountersRespectsK(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Counters = 4
	cfg.UseFullCounters = true
	m := newTestPod(t, cfg)
	l := m.layout
	at := clock.Time(0)
	for i := 0; i < 3000; i++ {
		at += 15 * clock.Nanosecond
		access(m, &trace.Request{Addr: slowPageAddr(l, i%40)}, at)
	}
	// One interval processed: at most K swaps per pod may have happened.
	access(m, &trace.Request{Addr: slowPageAddr(l, 0)}, 99*clock.Microsecond)
	if st := m.Stats(); st.PageMigrations > 4*uint64(l.NumPods) {
		t.Fatalf("FC ablation migrated %d pages with K=4", st.PageMigrations)
	}
}
