package mech

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/clock"
	"repro/internal/dram"
	"repro/internal/memsys"
	"repro/internal/trace"
)

// access drives one request through s the way the engine does: with its
// address decoded under the backend's geometry.
func access(s *Static, r *trace.Request, at clock.Time) clock.Time {
	d := trace.Decode(r.Addr, &s.backend.Geom)
	return s.Access(r, &d, at)
}

func testBackend(t *testing.T) *Backend {
	t.Helper()
	return NewBackend(memsys.MustNew(addr.DefaultLayout(), dram.HBM(), dram.DDR4_1600()))
}

func TestStaticRoutesHome(t *testing.T) {
	b := testBackend(t)
	s := NewStatic("TLM", b)
	if s.Name() != "TLM" {
		t.Fatal("name")
	}
	fast := &trace.Request{Addr: 0}
	slow := &trace.Request{Addr: 2 << 30}
	f := access(s, fast, 0)
	sl := access(s, slow, 0)
	if f >= sl {
		t.Errorf("fast home access %v not faster than slow %v", f, sl)
	}
	if b.Sys.FastStats().Accesses() != 1 || b.Sys.SlowStats().Accesses() != 1 {
		t.Error("requests routed to wrong levels")
	}
	if s.Stats() != (MigStats{}) {
		t.Error("static mechanism reported migrations")
	}
}

func TestSwapPagesMovesWholePages(t *testing.T) {
	b := testBackend(t)
	fastFrame := addr.Frame(0)
	slowFrame := addr.Frame(b.Layout.FastPagesPerPod())
	end := b.SwapPagesChunk(0, fastFrame, slowFrame, 0, addr.LinesPerPage, 0)
	if end <= 0 {
		t.Fatal("swap completed instantly")
	}
	// 32 reads + 32 writes per page, both pages: 64 accesses per level.
	fs, ss := b.Sys.FastStats(), b.Sys.SlowStats()
	if fs.Reads != 32 || fs.Writes != 32 {
		t.Errorf("fast level %d reads %d writes, want 32/32", fs.Reads, fs.Writes)
	}
	if ss.Reads != 32 || ss.Writes != 32 {
		t.Errorf("slow level %d reads %d writes, want 32/32", ss.Reads, ss.Writes)
	}
	// A swap is bounded below by the slow page transfer: 64 line bursts.
	if min := clock.Duration(64) * dram.DDR4_1600().BurstTime(); end < clock.Time(min) {
		t.Errorf("swap finished unrealistically fast: %v < %v", end, min)
	}
}

// TestSwapChunkMatchesLineSequence pins a swap chunk's timing to the
// paper's datapath spelled out one line at a time: the chunk's reads of
// both slots interleaved at `at`, then the write-backs of both issued at
// the last read's completion. The slot pairs cover two channels (fast
// and slow, where the two columns are independent) and one shared
// channel (where A and B must alternate), at chunk lengths from one line
// to a whole page, over spec pairs with write asymmetry and refresh.
func TestSwapChunkMatchesLineSequence(t *testing.T) {
	specs := []struct{ fast, slow dram.Spec }{
		{dram.HBM(), dram.DDR4_1600()},
		{dram.HBM().WithRefresh(), dram.NVMPCM().WithRefresh()},
	}
	for _, sp := range specs {
		newBackend := func() *Backend {
			return NewBackend(memsys.MustNew(addr.DefaultLayout(), sp.fast, sp.slow))
		}
		l := newBackend().Layout
		fastPerPod := addr.Frame(l.FastPagesPerPod())
		// Two fast frames cpp*pagesPerRow apart share a channel but not a
		// row, so the shared-channel chunk alternates row conflicts.
		sameCh := addr.Frame(uint64(l.FastChannelsPerPod()) * l.FastPagesPerRow())
		pairs := []struct {
			name   string
			fa, fb addr.Frame
			global bool
		}{
			{"cross-channel", 3, fastPerPod + 5, false},
			{"same-channel", 1, 1 + sameCh, false},
			{"global-cross-channel", 0, 0, true},
		}
		for _, pr := range pairs {
			for _, n := range []int{1, 4, addr.LinesPerPage} {
				t.Run(fmt.Sprintf("%s/%s/%d", sp.slow.Name, pr.name, n), func(t *testing.T) {
					got, ref := newBackend(), newBackend()
					var slotA, slotB addr.Page
					podA, fa, podB, fb := 1, pr.fa, 1, pr.fb
					if pr.global {
						// A fast home page of pod 0 and a slow home page of
						// the last pod: the copy crosses pods.
						slotA = addr.Page(l.FastPages()) - 1
						slotB = addr.Page(l.FastPages()) + 7
						podA, fa = got.Geom.HomeFrame(slotA)
						podB, fb = got.Geom.HomeFrame(slotB)
					}
					chA, rowA := ref.lineLoc(podA, fa)
					chB, rowB := ref.lineLoc(podB, fb)
					if (pr.name == "same-channel") != (chA == chB) {
						t.Fatalf("%s pair resolved to channels %d and %d", pr.name, chA, chB)
					}
					// Three chunks back to back, the later ones issued
					// before the earlier ones drain, so carried bank and
					// bus state is part of the comparison.
					at := clock.Time(100)
					for round := 0; round < 3; round++ {
						var end clock.Time
						if pr.global {
							end = got.SwapGlobalChunk(slotA, slotB, 0, n, at)
						} else {
							end = got.SwapPagesChunk(podA, fa, fb, 0, n, at)
						}
						want := at
						for i := 0; i < n; i++ {
							want = max(want, ref.Sys.AccessChannel(chA, rowA, false, at))
							want = max(want, ref.Sys.AccessChannel(chB, rowB, false, at))
						}
						readsDone := want
						for i := 0; i < n; i++ {
							want = max(want, ref.Sys.AccessChannel(chA, rowA, true, readsDone))
							want = max(want, ref.Sys.AccessChannel(chB, rowB, true, readsDone))
						}
						if end != want {
							t.Fatalf("round %d: chunk completes at %v, line sequence at %v", round, end, want)
						}
						for ch := 0; ch < ref.Sys.NumChannels(); ch++ {
							if g, w := got.Sys.ChannelStats(ch), ref.Sys.ChannelStats(ch); g != w {
								t.Fatalf("round %d channel %d: stats %+v, want %+v", round, ch, g, w)
							}
						}
						at = (at + end) / 2
					}
				})
			}
		}
	}
}

func TestSwapLines(t *testing.T) {
	b := testBackend(t)
	la := b.Layout.HomeLocation(0)
	lb := b.Layout.HomeLocation(addr.Line(uint64(b.Layout.FastPages()) * addr.LinesPerPage))
	end := b.SwapLines(la, lb, 0)
	if end <= 0 {
		t.Fatal("line swap completed instantly")
	}
	total := b.Sys.FastStats().Accesses() + b.Sys.SlowStats().Accesses()
	if total != 4 {
		t.Errorf("line swap issued %d accesses, want 4", total)
	}
}

func TestBookkeepingReadTargetsFast(t *testing.T) {
	b := testBackend(t)
	done := b.BookkeepingRead(2, 12345, 0)
	if done <= 0 {
		t.Fatal("no read issued")
	}
	if b.Sys.FastStats().Accesses() != 1 {
		t.Error("bookkeeping read did not go to fast memory")
	}
	// Slow-only system: must fall back to slow memory without panicking.
	slowOnly := NewBackend(memsys.MustNew(
		addr.Layout{SlowBytes: 9 << 30, SlowChannels: 4, NumPods: 4},
		dram.HBM(), dram.DDR4_1600()))
	if slowOnly.BookkeepingRead(0, 7, 0) <= 0 {
		t.Error("slow-only bookkeeping read failed")
	}
}

func TestCacheHitsAfterInsert(t *testing.T) {
	c := NewCache(1024, 4)
	if c.Access(42) {
		t.Fatal("cold cache hit")
	}
	if !c.Access(42) {
		t.Fatal("no hit after insert")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Single-set cache: capacity 4 blocks, 4 ways.
	c := NewCache(4*BlockBytes, 4)
	keys := []uint64{1, 2, 3, 4}
	for _, k := range keys {
		c.Access(k)
	}
	c.Access(1)  // 1 becomes MRU; LRU is 2
	c.Access(99) // evicts 2
	if !c.Access(1) || !c.Access(3) || !c.Access(4) || !c.Access(99) {
		t.Fatal("resident keys evicted")
	}
	if c.Access(2) {
		t.Fatal("LRU key 2 still resident")
	}
}

func TestCacheZeroCapacityAlwaysMisses(t *testing.T) {
	c := NewCache(0, 4)
	for i := 0; i < 10; i++ {
		if c.Access(7) {
			t.Fatal("zero-capacity cache hit")
		}
	}
}

func TestCacheWorkingSetProperty(t *testing.T) {
	// Any working set that fits within one set's ways must reach 100%
	// hit rate after the first pass.
	prop := func(seed uint64) bool {
		c := NewCache(64*BlockBytes, 64) // one set, 64 ways
		var keys []uint64
		for i := uint64(0); i < 32; i++ {
			keys = append(keys, seed+i*17)
		}
		for _, k := range keys {
			c.Access(k)
		}
		for _, k := range keys {
			if !c.Access(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBiggerCacheNeverWorse(t *testing.T) {
	// Hit counts under a fixed scan must not decrease with capacity.
	run := func(capacity int) int {
		c := NewCache(capacity, 8)
		hits := 0
		for pass := 0; pass < 4; pass++ {
			for k := uint64(0); k < 512; k++ {
				if c.Access(k) {
					hits++
				}
			}
		}
		return hits
	}
	small, large := run(8*1024), run(64*1024)
	if large < small {
		t.Errorf("64KB cache hits %d < 8KB cache hits %d", large, small)
	}
}

func TestMigStatsPerPod(t *testing.T) {
	m := MigStats{BytesMoved: 4096}
	if m.BytesMovedPerPod(4) != 1024 {
		t.Error("per-pod division wrong")
	}
	if m.BytesMovedPerPod(0) != 4096 {
		t.Error("zero pods should return total")
	}
}

// TestMigStatsAddCoversEveryField sets every counter of two MigStats to
// distinct values and checks that Add sums each one, so a counter added
// to MigStats later cannot be silently dropped by a pod-parallel join.
func TestMigStatsAddCoversEveryField(t *testing.T) {
	var a, b MigStats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetUint(uint64(i + 1))
		bv.Field(i).SetUint(uint64(100 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		if got, want := av.Field(i).Uint(), uint64(101*(i+1)); got != want {
			t.Errorf("MigStats.%s after Add = %d, want %d", av.Type().Field(i).Name, got, want)
		}
	}
}
