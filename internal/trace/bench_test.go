package trace

import (
	"fmt"
	"testing"

	"repro/internal/addr"
	"repro/internal/clock"
)

// BenchmarkMergeStreamNext measures the 8-way merge that feeds every
// simulation: one Next per simulated request.
func BenchmarkMergeStreamNext(b *testing.B) {
	const cores = 8
	mk := func(core int) []Request {
		reqs := make([]Request, 4096)
		t := clock.Time(core)
		for i := range reqs {
			t += clock.Time(7 + (i*core)%23)
			reqs[i] = Request{Addr: uint64(i), Time: t, Core: uint8(core)}
		}
		return reqs
	}
	slices := make([]*SliceStream, cores)
	for c := range slices {
		slices[c] = NewSliceStream(mk(c))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var r Request
	var m *MergeStream
	for i := 0; i < b.N; i++ {
		if m == nil || !m.Next(&r) {
			srcs := make([]Stream, cores)
			for c, s := range slices {
				s.Reset()
				srcs[c] = s
			}
			m = NewMergeStream(srcs...)
		}
	}
}

// benchReqs builds a generator-shaped request slice for the snapshot
// benchmarks: nanosecond-scale deltas, 8 cores, occasional writes.
func benchReqs(n int) []Request {
	reqs := make([]Request, n)
	t := clock.Time(0)
	for i := range reqs {
		t += clock.Duration(2+(i*7)%400) * clock.Nanosecond
		reqs[i] = Request{
			Addr:  uint64(i) * 64,
			Time:  t,
			Write: i%4 == 0,
			Core:  uint8(i % 8),
		}
	}
	return reqs
}

// BenchmarkSnapshotReplay measures the packed replay loop — the per-request
// cost every cached matrix cell pays instead of regenerating its trace.
// The acceptance bar is 0 allocs/op in steady state.
func BenchmarkSnapshotReplay(b *testing.B) {
	reqs := benchReqs(1 << 16)
	snap := Record(NewSliceStream(reqs), len(reqs))
	defer snap.Release()
	ss := snap.Stream()
	b.ReportAllocs()
	b.ResetTimer()
	var r Request
	for i := 0; i < b.N; i++ {
		if !ss.Next(&r) {
			ss.Reset()
		}
	}
}

// BenchmarkSnapshotRecord measures the capture side: packing one request
// into the columnar snapshot (amortized over a pooled recording).
func BenchmarkSnapshotRecord(b *testing.B) {
	reqs := benchReqs(1 << 16)
	src := NewSliceStream(reqs)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += len(reqs) {
		src.Reset()
		snap := Record(src, len(reqs))
		snap.Release()
	}
}

// BenchmarkPlaneBuild measures the heap plane build per request: the
// span decoder, split over the cores for a snapshot this long. Each op
// decodes one fresh plane. The layouts are the paper's two-level one and
// its HBM-only reference, whose pages per pod are not a power of two.
func BenchmarkPlaneBuild(b *testing.B) {
	for _, l := range []addr.Layout{addr.DefaultLayout(), addr.FastOnlyLayout()} {
		g := l.Geom()
		reqs := benchReqs(1 << 20)
		for i := range reqs {
			reqs[i].Addr %= l.TotalBytes()
		}
		snap := Record(NewSliceStream(reqs), len(reqs))
		snap.Plane(&g)
		b.Run(fmt.Sprintf("slow=%dG", l.SlowBytes>>30), func(b *testing.B) {
			b.ReportAllocs()
			for done := 0; done < b.N; done += len(reqs) {
				snap.planes[0].valid = false // keeps the buffer, like a pooled Record
				snap.Plane(&g)
			}
		})
		snap.Release()
	}
}
