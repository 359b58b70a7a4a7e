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

// BenchmarkMemPodAccess measures the steady-state demand path: tracker
// observation, remap lookup, lock check and the DRAM access, with interval
// boundaries and migrations occurring at their natural rate. The requests
// are decoded into a plane, and passed through a touch filter, outside the
// timer, so each op is exactly the Access call the engine makes. The acceptance bar for the
// allocation-free hot path is 0 allocs/op here.
func BenchmarkMemPodAccess(b *testing.B) {
	back := mech.NewBackend(memsys.MustNew(addr.DefaultLayout(), dram.HBM(), dram.DDR4_1600()))
	m, err := New(DefaultConfig(), back)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Release()

	prof, ok := workload.ByName("cactus")
	if !ok {
		b.Fatal("profile cactus not found")
	}
	gen, err := workload.NewGenerator(prof, 0, 7)
	if err != nil {
		b.Fatal(err)
	}
	// Pre-generate the stream so the generator is out of the loop.
	reqs := make([]trace.Request, 1<<16)
	plane := make([]trace.Decoded, len(reqs))
	for i := range reqs {
		gen.Next(&reqs[i])
		plane[i] = trace.Decode(&reqs[i], &back.Geom)
	}
	touched := make([]bool, len(reqs))
	var touch mech.TouchFilter
	touch.Scan(plane, touched)

	// Warm up past the first interval boundaries so steady state includes
	// a populated remap table and live migration queues.
	at := clock.Time(0)
	for i := range reqs[:1<<14] {
		m.Access(&plane[i], reqs[i].Time, clock.Max(at, reqs[i].Time), touched[i])
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (1<<16 - 1)
		r := &reqs[j]
		if r.Time > at {
			at = r.Time
		}
		m.Access(&plane[j], r.Time, at, touched[j])
	}
}
