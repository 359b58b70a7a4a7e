package memsys

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/clock"
	"repro/internal/dram"
)

func defaultSystem(t *testing.T) *System {
	t.Helper()
	s, err := New(addr.DefaultLayout(), dram.HBM(), dram.DDR4_1600())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewDefault(t *testing.T) {
	s := defaultSystem(t)
	if s.NumChannels() != 12 {
		t.Fatalf("channels = %d, want 12", s.NumChannels())
	}
	if s.FastStats().Channels != 8 || s.SlowStats().Channels != 4 {
		t.Fatal("level channel counts wrong")
	}
}

func TestNewRejectsInvalidLayout(t *testing.T) {
	if _, err := New(addr.Layout{}, dram.HBM(), dram.DDR4_1600()); err == nil {
		t.Fatal("accepted zero layout")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(addr.Layout{}, dram.HBM(), dram.DDR4_1600())
}

func TestFastIsFasterThanSlow(t *testing.T) {
	s := defaultSystem(t)
	l := s.Layout()
	fastLoc := l.HomeLocation(0)
	slowLoc := l.HomeLocation(addr.Line(uint64(l.FastPages()) * addr.LinesPerPage))
	if !fastLoc.Fast || slowLoc.Fast {
		t.Fatal("location fast flags wrong")
	}
	f := s.Access(fastLoc, false, 0)
	sl := s.Access(slowLoc, false, 0)
	if f >= sl {
		t.Errorf("fast access %v not faster than slow %v", f, sl)
	}
}

func TestStatsRouteToCorrectLevel(t *testing.T) {
	s := defaultSystem(t)
	l := s.Layout()
	for i := 0; i < 10; i++ {
		s.Access(l.HomeLocation(addr.Line(i*addr.LinesPerPage)), false, 0)
	}
	for i := 0; i < 7; i++ {
		ln := addr.Line(uint64(l.FastPages())*addr.LinesPerPage + uint64(i*addr.LinesPerPage))
		s.Access(l.HomeLocation(ln), true, 0)
	}
	fs, ss := s.FastStats(), s.SlowStats()
	if fs.Reads != 10 || fs.Writes != 0 {
		t.Errorf("fast stats %+v", fs.Stats)
	}
	if ss.Reads != 0 || ss.Writes != 7 {
		t.Errorf("slow stats %+v", ss.Stats)
	}
}

func TestAggregateCountsRefreshes(t *testing.T) {
	// Refresh-enabled system: level stats must carry the per-channel
	// Refreshes counters through aggregation (they were dropped once).
	s := MustNew(addr.DefaultLayout(), dram.HBM().WithRefresh(), dram.DDR4_1600().WithRefresh())
	l := s.Layout()
	at := clock.Time(dram.HBM().WithRefresh().RefreshInterval) + clock.Time(clock.Nanosecond)
	s.Access(l.HomeLocation(0), false, at)
	slowLn := addr.Line(uint64(l.FastPages()) * addr.LinesPerPage)
	s.Access(l.HomeLocation(slowLn), false, at)
	if got := s.FastStats().Refreshes; got == 0 {
		t.Error("fast level refreshes not aggregated")
	}
	if got := s.SlowStats().Refreshes; got == 0 {
		t.Error("slow level refreshes not aggregated")
	}
	// Per-channel truth must equal the two level sums.
	var want uint64
	for ch := 0; ch < s.NumChannels(); ch++ {
		want += s.ChannelStats(ch).Refreshes
	}
	if got := s.FastStats().Refreshes + s.SlowStats().Refreshes; got != want {
		t.Errorf("aggregated refreshes = %d, channel sum = %d", got, want)
	}
}

func TestChannelParallelismAcrossPods(t *testing.T) {
	// Simultaneous accesses to different channels should all complete at
	// the same (fast) time; piling them on one channel must serialize.
	s := defaultSystem(t)
	l := s.Layout()
	var doneSpread []clock.Time
	for pod := 0; pod < l.NumPods; pod++ {
		loc := l.FrameLocation(pod, 0, 0)
		doneSpread = append(doneSpread, s.Access(loc, false, 0))
	}
	for i := 1; i < len(doneSpread); i++ {
		if doneSpread[i] != doneSpread[0] {
			t.Errorf("pod %d completion %v differs from pod 0 %v", i, doneSpread[i], doneSpread[0])
		}
	}

	s2 := defaultSystem(t)
	loc := l.FrameLocation(0, 0, 0)
	first := s2.Access(loc, false, 0)
	var last clock.Time
	for i := 0; i < 4; i++ {
		last = s2.Access(loc, false, 0)
	}
	if last <= first {
		t.Error("same-channel accesses did not serialize")
	}
}

func TestSingleLevelSystem(t *testing.T) {
	hbmOnly := addr.Layout{FastBytes: 9 << 30, FastChannels: 8, NumPods: 4}
	s, err := New(hbmOnly, dram.HBM(), dram.DDR4_1600())
	if err != nil {
		t.Fatal(err)
	}
	if s.NumChannels() != 8 {
		t.Fatalf("channels = %d", s.NumChannels())
	}
	done := s.Access(hbmOnly.HomeLocation(0), false, 0)
	if done <= 0 {
		t.Fatal("access did not complete")
	}
	if s.SlowStats().Accesses() != 0 {
		t.Fatal("slow level should be empty")
	}
}

func TestRowLocalityWithinPage(t *testing.T) {
	// Accessing all 32 lines of one page back-to-back: 1 closed-row access
	// then 31 row hits.
	s := defaultSystem(t)
	l := s.Layout()
	pod, f := l.HomeFrame(0)
	for i := 0; i < addr.LinesPerPage; i++ {
		s.Access(l.FrameLocation(pod, f, i), false, 0)
	}
	fs := s.FastStats()
	if fs.RowHits != 31 || fs.RowClosed != 1 {
		t.Errorf("hits %d closed %d, want 31/1", fs.RowHits, fs.RowClosed)
	}
}

// TestResetRestoresNew drives traffic into a system, resets it and checks
// that it is untouched and times a request exactly as a new system does.
func TestResetRestoresNew(t *testing.T) {
	s, fresh := defaultSystem(t), defaultSystem(t)
	if !s.Untouched() {
		t.Fatal("new system reports traffic")
	}
	loc := s.Layout().HomeLocation(0)
	for i := 0; i < 100; i++ {
		s.Access(loc, i%3 == 0, clock.Time(i)*clock.Nanosecond)
	}
	if s.Untouched() {
		t.Fatal("system reports untouched after 100 accesses")
	}
	s.Reset()
	if !s.Untouched() {
		t.Fatal("reset system reports traffic")
	}
	if got, want := s.Access(loc, false, 0), fresh.Access(loc, false, 0); got != want {
		t.Errorf("reset system completes at %v, new system at %v", got, want)
	}
}
