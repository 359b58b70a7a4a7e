package sim

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/hma"
	"repro/internal/mech"
	"repro/internal/migrant"
	"repro/internal/stats"
)

// TestMigrationOffEqualsTLM pins a relation between runs: a mechanism
// configured so that it never migrates must equal TLM (mech.Static, no
// migration) field by field, except Mechanism. On a mix5 trace shorter
// than every interval below:
//   - MemPod with an Interval past the trace end runs no boundary, so its
//     trackers never promote; serially and with its pods split over two
//     workers.
//   - HMA at its 100 ms default fires no epoch.
//   - Migrant with a long Epoch is not enough, because observe schedules
//     a promotion as soon as a page's counter reaches HotThreshold, not at
//     the epoch boundary. A threshold of the 16-bit counter's maximum,
//     which no page reaches within the trace, moves nothing.
func TestMigrationOffEqualsTLM(t *testing.T) {
	const n = 20_000
	w, heap, _ := paritySnapshots(t, n)
	const off = clock.Second
	if end := heap.TimeColumn()[n-1]; end >= off || end >= hma.DefaultConfig().Interval {
		t.Fatalf("trace ends at %v, not before every interval", end)
	}
	mp := core.DefaultConfig()
	mp.Interval = off
	mg := migrant.DefaultConfig()
	mg.Epoch, mg.CounterBits, mg.HotThreshold = off, 16, 1<<16-1

	run := func(build func(b *mech.Backend) mech.Mechanism, shards int) (stats.Result, uint64) {
		b := newBackend()
		m := build(b)
		defer mech.Release(m)
		e := New(b, m)
		e.Shards = shards
		res, err := e.Run(w.Name, heap.DecodedStream(&b.Geom))
		if err != nil {
			t.Fatal(err)
		}
		return res, e.ParallelBlocks()
	}
	tlm, _ := run(func(b *mech.Backend) mech.Mechanism { return mech.NewStatic("TLM", b) }, 1)
	for _, c := range []struct {
		name   string
		build  func(b *mech.Backend) mech.Mechanism
		shards int
	}{
		{"MemPod/serial", func(b *mech.Backend) mech.Mechanism { return mustBuild(t, core.New, mp, b) }, 1},
		{"MemPod/shards=2", func(b *mech.Backend) mech.Mechanism { return mustBuild(t, core.New, mp, b) }, 2},
		{"HMA", func(b *mech.Backend) mech.Mechanism { return mustBuild(t, hma.New, hma.DefaultConfig(), b) }, 1},
		{"Migrant", func(b *mech.Backend) mech.Mechanism { return mustBuild(t, migrant.New, mg, b) }, 1},
	} {
		res, blocks := run(c.build, c.shards)
		if c.shards > 1 && blocks != uint64(c.shards) {
			t.Errorf("%s: ran on %d workers, want %d", c.name, blocks, c.shards)
		}
		res.Mechanism = tlm.Mechanism
		diffResults(t, c.name+" vs TLM", res, tlm)
	}
}
