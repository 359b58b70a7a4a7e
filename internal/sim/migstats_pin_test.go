package sim

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/cameo"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/hma"
	"repro/internal/mech"
	"repro/internal/migrant"
	"repro/internal/stats"
	"repro/internal/thm"
	"repro/internal/trace"
	"repro/internal/workload"
)

// migPin is the part of a run's Result that the migration datapath
// decides: every migration counter, the stall sum, the span and where
// the accesses were serviced.
type migPin struct {
	Mig         mech.MigStats
	Stall, Span clock.Duration
	Fast, Slow  uint64
}

func pinOf(r stats.Result) migPin {
	return migPin{r.Mig, r.TotalStall, r.Span, r.FastAccesses, r.SlowAccesses}
}

// pinMechs are the mechanism shapes TestMigrationStatsPinned pins: every
// mechanism, with and without its bookkeeping cache, and HMA at the quick
// scale's 1 ms interval so it reaches its epoch boundaries.
var pinMechs = []mechCase{
	{"MemPod", func(t testing.TB, b *mech.Backend) mech.Mechanism {
		return mustBuild(t, core.New, core.DefaultConfig(), b)
	}},
	{"MemPod-cache", func(t testing.TB, b *mech.Backend) mech.Mechanism {
		cfg := core.DefaultConfig()
		cfg.CacheBytes = 16 << 10
		return mustBuild(t, core.New, cfg, b)
	}},
	{"MemPod-FC", func(t testing.TB, b *mech.Backend) mech.Mechanism {
		cfg := core.DefaultConfig()
		cfg.UseFullCounters = true
		return mustBuild(t, core.New, cfg, b)
	}},
	{"HMA", func(t testing.TB, b *mech.Backend) mech.Mechanism {
		return mustBuild(t, hma.New, pinHMAConfig(0), b)
	}},
	{"HMA-cache", func(t testing.TB, b *mech.Backend) mech.Mechanism {
		return mustBuild(t, hma.New, pinHMAConfig(16<<10), b)
	}},
	{"THM", func(t testing.TB, b *mech.Backend) mech.Mechanism {
		return mustBuild(t, thm.New, thm.DefaultConfig(), b)
	}},
	{"THM-cache", func(t testing.TB, b *mech.Backend) mech.Mechanism {
		cfg := thm.DefaultConfig()
		cfg.CacheBytes = 16 << 10
		return mustBuild(t, thm.New, cfg, b)
	}},
	{"CAMEO", func(t testing.TB, b *mech.Backend) mech.Mechanism {
		return mustBuild(t, cameo.New, cameo.DefaultConfig(), b)
	}},
	{"Migrant", func(t testing.TB, b *mech.Backend) mech.Mechanism {
		return mustBuild(t, migrant.New, migrant.DefaultConfig(), b)
	}},
}

func pinHMAConfig(cacheBytes int) hma.Config {
	cfg := hma.DefaultConfig()
	cfg.Interval = clock.Millisecond
	cfg.SortStall = 70 * clock.Microsecond
	cfg.CacheBytes = cacheBytes
	return cfg
}

// Times of the sparse trace (see sparseTrace) at which a MemPod and an
// HMA swap are in flight: each is a request that issues some but not all
// of the chunks of the epoch's first swap, after which the next request
// lies beyond the epoch boundary.
const (
	sparseMemPodMidSwap = clock.Millisecond + 1500*clock.Nanosecond
	sparseHMAMidSwap    = clock.Millisecond + 71500*clock.Nanosecond
)

// sparseTrace is a synthetic trace whose gaps straddle epoch boundaries.
// For the first millisecond, every 50 µs MemPod epoch opens with a burst
// in which eight fresh slow pages of pod 0 are touched eight times each,
// interleaved, 50 ns apart: hot enough for MemPod's MEA, HMA's threshold,
// THM's competing counters and Migrant's fault threshold. Then single
// requests to a fast page land in the middle of the first MemPod swap of
// the 1 ms epoch and of the first HMA swap after its sort, each followed
// by a gap past the epoch boundary, and a last request at 2.5 ms retires
// HMA's 1 ms epoch.
func sparseTrace() []trace.Request {
	const fastPages = 1 << 30 / addr.PageBytes
	var reqs []trace.Request
	for e := 0; e < 20; e++ {
		t := clock.Time(e)*50*clock.Microsecond + 5*clock.Microsecond
		for round := 0; round < 8; round++ {
			for j := 0; j < 8; j++ {
				// Slow page s lives in pod s%4; 4*(8e+j) keeps every
				// page in pod 0 and fresh.
				page := uint64(fastPages + 4*(8*e+j))
				reqs = append(reqs, trace.Request{Addr: page*addr.PageBytes + uint64(round)*addr.LineBytes, Time: t})
				t += 50 * clock.Nanosecond
			}
		}
	}
	for _, t := range []clock.Time{sparseMemPodMidSwap, sparseHMAMidSwap, 2500 * clock.Microsecond} {
		reqs = append(reqs, trace.Request{Addr: 0, Time: t}) // fast page 0, pod 0
	}
	return reqs
}

// runPinned replays reqs under the mechanism through a decoded snapshot
// cursor, pod-parallel when shards allows it.
func runPinned(t *testing.T, mc mechCase, name string, reqs []trace.Request, shards int) stats.Result {
	t.Helper()
	snap := trace.Record(trace.NewSliceStream(reqs), len(reqs))
	defer snap.Release()
	b := newBackend()
	e := New(b, mc.build(t, b))
	e.Shards = shards
	res, err := e.Run(name, snap.DecodedStream(&b.Geom))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMigrationStatsPinned pins, as literals, every migration counter,
// the stall sum, the span and the fast/slow service counts of each
// mechanism shape over two 200k-request workloads and a sparse trace, so
// any change to the paced page-copy datapath — chunking, pacing, the
// epoch-boundary retire, lock accounting — that moves a single copy or
// lock shows here. MemPod runs serial and pod-parallel against the same
// pins. On the sparse trace, MemPod and HMA must drop never-started swaps
// at a boundary and finish the one in flight there.
func TestMigrationStatsPinned(t *testing.T) {
	traces := []struct {
		name string
		reqs func() []trace.Request
	}{
		{"mix5", func() []trace.Request { return pinWorkload(workload.Mix(5)) }},
		{"lbm", func() []trace.Request { return pinWorkload(workload.Homogeneous("lbm")) }},
		{"sparse", sparseTrace},
	}
	for _, tr := range traces {
		reqs := tr.reqs()
		for _, mc := range pinMechs {
			key := tr.name + "/" + mc.name
			shardSet := []int{1}
			if mc.name[:min(len(mc.name), 6)] == "MemPod" {
				shardSet = []int{1, 2}
			}
			for _, shards := range shardSet {
				got := pinOf(runPinned(t, mc, tr.name, reqs, shards))
				want, ok := migPins[key]
				if !ok || got != want {
					t.Errorf("%s (Shards %d):\n got  %#v\n want %#v", key, shards, got, want)
				}
				if got.Mig.PageMigrations == 0 {
					t.Errorf("%s: no page migrated", key)
				}
			}
		}
	}
}

// TestSparseTraceRetiresInFlightSwaps checks that the sparse trace
// drives MemPod's and HMA's epoch-boundary retire through both of its
// branches. Cut right after the mid-swap request, a swap's copy is
// partial. The next request lies past the epoch boundary, where the
// retire runs before anything else: replayed in full, every migrated
// page has moved all its lines, and the boundaries have dropped the
// swaps that never started.
func TestSparseTraceRetiresInFlightSwaps(t *testing.T) {
	reqs := sparseTrace()
	cut := func(at clock.Time) []trace.Request {
		for i, r := range reqs {
			if r.Time == at {
				return reqs[:i+1]
			}
		}
		t.Fatalf("no request at %v", at)
		return nil
	}
	const swapLines = 2 * addr.LinesPerPage
	for _, c := range []struct {
		mc  mechCase
		mid clock.Time
	}{
		{pinMechs[0], sparseMemPodMidSwap},
		{pinMechs[3], sparseHMAMidSwap},
	} {
		part := runPinned(t, c.mc, "sparse", cut(c.mid), 1).Mig
		full := runPinned(t, c.mc, "sparse", reqs, 1).Mig
		if part.LineMigrations%swapLines == 0 {
			t.Errorf("%s: no swap in flight after the mid-swap request (%d lines for %d pages)",
				c.mc.name, part.LineMigrations, part.PageMigrations)
		}
		if full.LineMigrations != swapLines*full.PageMigrations {
			t.Errorf("%s: in-flight swap not finished at the boundary: %d lines for %d pages",
				c.mc.name, full.LineMigrations, full.PageMigrations)
		}
		if full.DroppedMigrations <= part.DroppedMigrations {
			t.Errorf("%s: boundary dropped no never-started swap (%d, cut %d)",
				c.mc.name, full.DroppedMigrations, part.DroppedMigrations)
		}
	}
}

// pinWorkload generates the first 200k requests of a workload.
func pinWorkload(w workload.Workload, err error) []trace.Request {
	if err != nil {
		panic(err)
	}
	return trace.Collect(w.MustStream(200_000, 42))
}

// migPins are the pinned outcomes, keyed trace/mechanism.
var migPins = map[string]migPin{
	"mix5/MemPod": {
		Mig: mech.MigStats{Intervals: 36, PageMigrations: 1908, LineMigrations: 122008, BytesMoved: 7808512,
			CacheHits: 0, CacheMisses: 0, LockStalls: 129, DroppedMigrations: 0, GlobalMoveLines: 0},
		Stall: 5360671089442, Span: 1823576192786, Fast: 264480, Slow: 179536,
	},
	"mix5/MemPod-cache": {
		Mig: mech.MigStats{Intervals: 36, PageMigrations: 1908, LineMigrations: 122008, BytesMoved: 7808512,
			CacheHits: 148686, CacheMisses: 55130, LockStalls: 137, DroppedMigrations: 0, GlobalMoveLines: 0},
		Stall: 8089371059400, Span: 1823599192786, Fast: 319610, Slow: 179536,
	},
	"mix5/MemPod-FC": {
		Mig: mech.MigStats{Intervals: 36, PageMigrations: 1053, LineMigrations: 67312, BytesMoved: 4307968,
			CacheHits: 0, CacheMisses: 0, LockStalls: 111, DroppedMigrations: 0, GlobalMoveLines: 0},
		Stall: 5084740449348, Span: 1823576192786, Fast: 212607, Slow: 122017,
	},
	"mix5/HMA": {
		Mig: mech.MigStats{Intervals: 1, PageMigrations: 727, LineMigrations: 46472, BytesMoved: 2974208,
			CacheHits: 0, CacheMisses: 0, LockStalls: 16, DroppedMigrations: 0, GlobalMoveLines: 46472},
		Stall: 5979958953739, Span: 1823636106728, Fast: 157595, Slow: 135349,
	},
	"mix5/HMA-cache": {
		Mig: mech.MigStats{Intervals: 1, PageMigrations: 727, LineMigrations: 46472, BytesMoved: 2974208,
			CacheHits: 148009, CacheMisses: 51991, LockStalls: 16, DroppedMigrations: 0, GlobalMoveLines: 46472},
		Stall: 8700037194797, Span: 1823659106728, Fast: 209586, Slow: 135349,
	},
	"mix5/THM": {
		Mig: mech.MigStats{Intervals: 0, PageMigrations: 1593, LineMigrations: 101880, BytesMoved: 6520320,
			CacheHits: 0, CacheMisses: 0, LockStalls: 1566, DroppedMigrations: 0, GlobalMoveLines: 101880},
		Stall: 5457585245145, Span: 1823601048006, Fast: 259061, Slow: 144699,
	},
	"mix5/THM-cache": {
		Mig: mech.MigStats{Intervals: 0, PageMigrations: 1593, LineMigrations: 101872, BytesMoved: 6519808,
			CacheHits: 146620, CacheMisses: 53380, LockStalls: 1598, DroppedMigrations: 0, GlobalMoveLines: 101872},
		Stall: 8721250904352, Span: 1823630298006, Fast: 312433, Slow: 144691,
	},
	"mix5/CAMEO": {
		Mig: mech.MigStats{Intervals: 0, PageMigrations: 55435, LineMigrations: 110870, BytesMoved: 7095680,
			CacheHits: 0, CacheMisses: 0, LockStalls: 16, DroppedMigrations: 0, GlobalMoveLines: 110870},
		Stall: 6934755096753, Span: 1823576192786, Fast: 255435, Slow: 166305,
	},
	"mix5/Migrant": {
		Mig: mech.MigStats{Intervals: 18, PageMigrations: 544, LineMigrations: 34816, BytesMoved: 2228224,
			CacheHits: 0, CacheMisses: 0, LockStalls: 247, DroppedMigrations: 0, GlobalMoveLines: 34816},
		Stall: 7414496318294, Span: 1823576192786, Fast: 172566, Slow: 97066,
	},
	"lbm/MemPod": {
		Mig: mech.MigStats{Intervals: 29, PageMigrations: 1431, LineMigrations: 91416, BytesMoved: 5850624,
			CacheHits: 0, CacheMisses: 0, LockStalls: 354, DroppedMigrations: 0, GlobalMoveLines: 0},
		Stall: 4151730782979, Span: 1456478814596, Fast: 234195, Slow: 148637,
	},
	"lbm/MemPod-cache": {
		Mig: mech.MigStats{Intervals: 29, PageMigrations: 1431, LineMigrations: 91416, BytesMoved: 5850624,
			CacheHits: 199945, CacheMisses: 2917, LockStalls: 357, DroppedMigrations: 0, GlobalMoveLines: 0},
		Stall: 4639782186875, Span: 1456478814596, Fast: 237112, Slow: 148637,
	},
	"lbm/MemPod-FC": {
		Mig: mech.MigStats{Intervals: 29, PageMigrations: 1276, LineMigrations: 81576, BytesMoved: 5220864,
			CacheHits: 0, CacheMisses: 0, LockStalls: 248, DroppedMigrations: 2, GlobalMoveLines: 0},
		Stall: 4060324082282, Span: 1456478814596, Fast: 226155, Slow: 136997,
	},
	"lbm/HMA": {
		Mig: mech.MigStats{Intervals: 1, PageMigrations: 387, LineMigrations: 24768, BytesMoved: 1585152,
			CacheHits: 0, CacheMisses: 0, LockStalls: 0, DroppedMigrations: 0, GlobalMoveLines: 24768},
		Stall: 7038545015955, Span: 1456568814596, Fast: 75930, Slow: 173606,
	},
	"lbm/HMA-cache": {
		Mig: mech.MigStats{Intervals: 1, PageMigrations: 387, LineMigrations: 24768, BytesMoved: 1585152,
			CacheHits: 196903, CacheMisses: 3097, LockStalls: 0, DroppedMigrations: 0, GlobalMoveLines: 24768},
		Stall: 7535816398912, Span: 1456568814596, Fast: 79027, Slow: 173606,
	},
	"lbm/THM": {
		Mig: mech.MigStats{Intervals: 0, PageMigrations: 1299, LineMigrations: 83080, BytesMoved: 5317120,
			CacheHits: 0, CacheMisses: 0, LockStalls: 6703, DroppedMigrations: 0, GlobalMoveLines: 83080},
		Stall: 3941046152633, Span: 1456490814596, Fast: 246978, Slow: 119182,
	},
	"lbm/THM-cache": {
		Mig: mech.MigStats{Intervals: 0, PageMigrations: 1299, LineMigrations: 83080, BytesMoved: 5317120,
			CacheHits: 192373, CacheMisses: 7627, LockStalls: 6696, DroppedMigrations: 0, GlobalMoveLines: 83080},
		Stall: 5109174785968, Span: 1456490814596, Fast: 254605, Slow: 119182,
	},
	"lbm/CAMEO": {
		Mig: mech.MigStats{Intervals: 0, PageMigrations: 47594, LineMigrations: 95188, BytesMoved: 6092032,
			CacheHits: 0, CacheMisses: 0, LockStalls: 5, DroppedMigrations: 0, GlobalMoveLines: 95188},
		Stall: 8574321027694, Span: 1456498104677, Fast: 247594, Slow: 142782,
	},
	"lbm/Migrant": {
		Mig: mech.MigStats{Intervals: 14, PageMigrations: 848, LineMigrations: 54248, BytesMoved: 3471872,
			CacheHits: 0, CacheMisses: 0, LockStalls: 232, DroppedMigrations: 0, GlobalMoveLines: 54248},
		Stall: 13988172519757, Span: 1456490814596, Fast: 148591, Slow: 159905,
	},
	"sparse/MemPod": {
		Mig: mech.MigStats{Intervals: 50, PageMigrations: 40, LineMigrations: 2560, BytesMoved: 163840,
			CacheHits: 0, CacheMisses: 0, LockStalls: 0, DroppedMigrations: 121, GlobalMoveLines: 0},
		Stall: 27351958234, Span: 2500009000000, Fast: 2562, Slow: 3841,
	},
	"sparse/MemPod-cache": {
		Mig: mech.MigStats{Intervals: 50, PageMigrations: 40, LineMigrations: 2560, BytesMoved: 163840,
			CacheHits: 1350, CacheMisses: 13, LockStalls: 0, DroppedMigrations: 121, GlobalMoveLines: 0},
		Stall: 27555958234, Span: 2500009000000, Fast: 2575, Slow: 3841,
	},
	"sparse/MemPod-FC": {
		Mig: mech.MigStats{Intervals: 50, PageMigrations: 40, LineMigrations: 2560, BytesMoved: 163840,
			CacheHits: 0, CacheMisses: 0, LockStalls: 0, DroppedMigrations: 121, GlobalMoveLines: 0},
		Stall: 27351958234, Span: 2500009000000, Fast: 2562, Slow: 3841,
	},
	"sparse/HMA": {
		Mig: mech.MigStats{Intervals: 2, PageMigrations: 1, LineMigrations: 64, BytesMoved: 4096,
			CacheHits: 0, CacheMisses: 0, LockStalls: 1, DroppedMigrations: 159, GlobalMoveLines: 64},
		Stall: 24933500000, Span: 2500018750000, Fast: 65, Slow: 1346,
	},
	"sparse/HMA-cache": {
		Mig: mech.MigStats{Intervals: 2, PageMigrations: 1, LineMigrations: 64, BytesMoved: 4096,
			CacheHits: 1262, CacheMisses: 21, LockStalls: 1, DroppedMigrations: 159, GlobalMoveLines: 64},
		Stall: 25427500000, Span: 2500018750000, Fast: 86, Slow: 1346,
	},
	"sparse/THM": {
		Mig: mech.MigStats{Intervals: 0, PageMigrations: 160, LineMigrations: 10240, BytesMoved: 655360,
			CacheHits: 0, CacheMisses: 0, LockStalls: 640, DroppedMigrations: 0, GlobalMoveLines: 10240},
		Stall: 1275898750000, Span: 2500018750000, Fast: 10880, Slow: 10883,
	},
	"sparse/THM-cache": {
		Mig: mech.MigStats{Intervals: 0, PageMigrations: 160, LineMigrations: 10240, BytesMoved: 655360,
			CacheHits: 1219, CacheMisses: 64, LockStalls: 640, DroppedMigrations: 0, GlobalMoveLines: 10240},
		Stall: 1277388500000, Span: 2500018750000, Fast: 10944, Slow: 10883,
	},
	"sparse/CAMEO": {
		Mig: mech.MigStats{Intervals: 0, PageMigrations: 1281, LineMigrations: 2562, BytesMoved: 163968,
			CacheHits: 0, CacheMisses: 0, LockStalls: 0, DroppedMigrations: 0, GlobalMoveLines: 2562},
		Stall: 25324250000, Span: 2500009000000, Fast: 2564, Slow: 3843,
	},
	"sparse/Migrant": {
		Mig: mech.MigStats{Intervals: 25, PageMigrations: 160, LineMigrations: 10240, BytesMoved: 655360,
			CacheHits: 0, CacheMisses: 0, LockStalls: 0, DroppedMigrations: 0, GlobalMoveLines: 10240},
		Stall: 24963750000, Span: 2500018750000, Fast: 10240, Slow: 11523,
	},
}
