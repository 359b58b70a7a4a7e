package trace

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/addr"
)

// boundedReqs builds a time-ordered request slice whose addresses stay
// inside the layout's flat address space, so predecoded fields are
// meaningful.
func boundedReqs(rng *rand.Rand, n int, l addr.Layout) []Request {
	reqs := randomOrderedReqs(rng, n)
	total := l.TotalBytes()
	for i := range reqs {
		reqs[i].Addr %= total
	}
	return reqs
}

// TestPlaneMatchesGeom asserts every plane entry equals a fresh per-request
// decode through the same geometry.
func TestPlaneMatchesGeom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	layouts := []addr.Layout{
		addr.DefaultLayout(),
		{FastBytes: 9 << 30, FastChannels: 8, NumPods: 4},
		{SlowBytes: 9 << 30, SlowChannels: 4, NumPods: 4},
	}
	for _, l := range layouts {
		g := l.Geom()
		reqs := boundedReqs(rng, 1000, l)
		snap := Record(NewSliceStream(reqs), len(reqs))
		dec := snap.Plane(&g)
		if len(dec) != len(reqs) {
			t.Fatalf("plane length %d, want %d", len(dec), len(reqs))
		}
		for i, r := range reqs {
			p := addr.PageOf(addr.Addr(r.Addr))
			pod, f := g.HomeFrame(p)
			loc := g.FrameLocation(pod, f, 0)
			want := Decoded{
				Page:  uint64(p),
				Frame: uint32(f),
				Row:   uint32(loc.Row),
				Chan:  uint16(loc.Channel),
				Pod:   uint16(pod),
				Line:  uint8(uint64(addr.LineOf(addr.Addr(r.Addr))) % addr.LinesPerPage),
				Core:  r.Core,
				Write: r.Write,
			}
			if dec[i] != want {
				t.Fatalf("layout %+v request %d: plane %+v, want %+v", l, i, dec[i], want)
			}
		}
		snap.Release()
	}
}

// TestPlaneCachedPerLayout asserts one decode pass per layout: same layout
// returns the identical slice, a different layout gets its own plane, and
// Record invalidates cached planes on a pooled snapshot.
func TestPlaneCachedPerLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	std := addr.DefaultLayout().Geom()
	// Two pods decompose pages differently than four (the Fig10 pod
	// sweep's shape), so its plane cannot be shared with std's.
	twoPods := addr.Layout{
		FastBytes: 1 << 30, SlowBytes: 8 << 30,
		FastChannels: 8, SlowChannels: 4, NumPods: 2,
	}.Geom()

	reqs := boundedReqs(rng, 500, addr.DefaultLayout())
	snap := Record(NewSliceStream(reqs), len(reqs))
	a, b := snap.Plane(&std), snap.Plane(&std)
	if &a[0] != &b[0] {
		t.Error("same layout did not reuse the cached plane")
	}
	c := snap.Plane(&twoPods)
	if &a[0] == &c[0] {
		t.Error("different layout shared a plane")
	}
	differ := false
	for i := range a {
		if a[i] != c[i] {
			differ = true
			break
		}
	}
	if !differ {
		t.Error("distinct layouts decoded every entry identically")
	}
	snap.Release()

	// A re-recorded (pooled) snapshot must not serve a stale plane.
	reqs2 := boundedReqs(rng, 500, addr.DefaultLayout())
	snap2 := Record(NewSliceStream(reqs2), len(reqs2))
	defer snap2.Release()
	d := snap2.Plane(&std)
	for i, r := range reqs2 {
		if want := uint64(addr.PageOf(addr.Addr(r.Addr))); d[i].Page != want {
			t.Fatalf("stale plane after pool reuse: entry %d page %d, want %d", i, d[i].Page, want)
		}
	}
}

// TestNextBatchMatchesNext asserts NextBatch yields exactly the Next
// sequence — including across batch boundaries that do not divide the
// snapshot length — and fills plane entries positionally.
func TestNextBatchMatchesNext(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := addr.DefaultLayout()
	g := l.Geom()
	reqs := boundedReqs(rng, 1003, l)
	snap := Record(NewSliceStream(reqs), len(reqs))
	defer snap.Release()
	plane := snap.Plane(&g)

	for _, batch := range []int{1, 7, 64, 256, 2048} {
		ss := snap.DecodedStream(&g)
		dst := make([]Request, batch)
		dec := make([]Decoded, batch)
		pos := 0
		for {
			n := ss.NextBatch(dst, dec)
			if n == 0 {
				break
			}
			for i := 0; i < n; i++ {
				if dst[i] != reqs[pos] {
					t.Fatalf("batch=%d request %d: got %+v, want %+v", batch, pos, dst[i], reqs[pos])
				}
				if dec[i] != plane[pos] {
					t.Fatalf("batch=%d decoded %d: got %+v, want %+v", batch, pos, dec[i], plane[pos])
				}
				pos++
			}
		}
		if pos != len(reqs) {
			t.Fatalf("batch=%d replayed %d requests, want %d", batch, pos, len(reqs))
		}
	}

	// Mixing Next and NextBatch on one cursor preserves the sequence.
	ss := snap.Stream()
	var r Request
	for i := 0; i < 10; i++ {
		ss.Next(&r)
	}
	var buf [16]Request
	n := ss.NextBatch(buf[:], nil)
	for i := 0; i < n; i++ {
		if buf[i] != reqs[10+i] {
			t.Fatalf("mixed cursor request %d: got %+v, want %+v", 10+i, buf[i], reqs[10+i])
		}
	}
	if !ss.Next(&r) || r != reqs[10+n] {
		t.Fatalf("Next after NextBatch: got %+v, want %+v", r, reqs[10+n])
	}
}

// BenchmarkSnapshotBatchReplay measures the batched replay path per
// request, the decode-amortized counterpart of BenchmarkSnapshotReplay.
func BenchmarkSnapshotBatchReplay(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	l := addr.DefaultLayout()
	g := l.Geom()
	reqs := boundedReqs(rng, 1<<16, l)
	snap := Record(NewSliceStream(reqs), len(reqs))
	defer snap.Release()
	ss := snap.DecodedStream(&g)
	var dst [256]Request
	var dec [256]Decoded
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 256 {
		if n := ss.NextBatch(dst[:], dec[:]); n == 0 {
			ss.Reset()
		}
	}
}

// TestPosDrainMatchNext reads part of a cursor through Next, then takes
// over the rest from the snapshot's columns, as the simulation engine
// does: Pos must name the next request, the time column and plane from
// Pos on must reproduce every remaining request's time and decode, and
// Drain must leave the cursor at the end. Both a varint cursor and a
// decoded one (DecodedStream) qualify.
func TestPosDrainMatchNext(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := addr.DefaultLayout()
	g := l.Geom()
	reqs := boundedReqs(rng, 1003, l)
	snap := Record(NewSliceStream(reqs), len(reqs))
	defer snap.Release()

	for name, ss := range map[string]*SnapshotStream{"Stream": snap.Stream(), "DecodedStream": snap.DecodedStream(&g)} {
		var r Request
		for i := 0; i < 300; i++ {
			ss.Next(&r)
		}
		if ss.Pos() != 300 {
			t.Fatalf("%s: Pos = %d after 300 Next calls", name, ss.Pos())
		}
		times, plane := snap.TimeColumn()[ss.Pos():], snap.Plane(&g)[ss.Pos():]
		for i, want := range reqs[300:] {
			if times[i] != want.Time || plane[i] != Decode(&want, &g) {
				t.Fatalf("%s: request %d: columns give %v/%+v, want %+v", name, 300+i, times[i], plane[i], want)
			}
		}
		ss.Drain()
		if ss.Next(&r) || ss.Pos() != len(reqs) {
			t.Errorf("%s: cursor not at the end after Drain (Pos %d)", name, ss.Pos())
		}
		ss.Reset()
		if !ss.Next(&r) || r != reqs[0] {
			t.Errorf("%s: Reset after Drain replays %+v, want %+v", name, r, reqs[0])
		}
	}
}

// TestPlaneSplitBitIdentical asserts that a heap plane decoded in parts
// over the cores (splitSpan) equals a per-entry Decode of every request,
// at the lengths around the split threshold and on the layouts whose
// divisors take different paths: the paper's two-level layout, its
// single-level references (pages per pod not a power of two) and a layout
// with no power-of-two divisor at all. Each length runs on the ambient
// GOMAXPROCS and on three cores, an odd part count.
func TestPlaneSplitBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	layouts := []addr.Layout{
		addr.DefaultLayout(),
		addr.FastOnlyLayout(),
		addr.SlowOnlyLayout(),
		{FastBytes: 3 * addr.PageBytes * 3 * 64, SlowBytes: 9 * addr.PageBytes * 3 * 64, FastChannels: 9, SlowChannels: 3, NumPods: 3},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{runtime.GOMAXPROCS(0), 3} {
		runtime.GOMAXPROCS(procs)
		for _, l := range layouts {
			g := l.Geom()
			for _, n := range []int{0, 1, splitMin - 1, splitMin + 1, 3*splitMin + 7} {
				reqs := boundedReqs(rng, n, l)
				snap := Record(NewSliceStream(reqs), n)
				plane := snap.Plane(&g)
				if len(plane) != n {
					t.Fatalf("GOMAXPROCS %d, layout %+v, n %d: plane length %d", procs, l, n, len(plane))
				}
				for i := range reqs {
					if want := Decode(&reqs[i], &g); plane[i] != want {
						t.Fatalf("GOMAXPROCS %d, layout %+v, n %d: entry %d = %+v, want %+v", procs, l, n, i, plane[i], want)
					}
				}
				snap.Release()
			}
		}
	}
}
