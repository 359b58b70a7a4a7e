package sim

import (
	"fmt"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestPodParallelBitIdentical pins the deprecated Engine.Shards knob and
// ParallelBlocks counter, which existing callers still set and read. The
// pod-parallel engine they once selected and counted is gone: every Shards
// value must run the serial path, leave ParallelBlocks at 0 and reproduce
// the Shards=1 reference exactly, for every mechanism and for the
// MemPod variants × window shapes the parallel engine used to be proven
// on. It goes when Shards does.
func TestPodParallelBitIdentical(t *testing.T) {
	const n = 20_000
	w, err := workload.Mix(5)
	if err != nil {
		t.Fatal(err)
	}
	snap := trace.Record(w.MustStream(n, 11), n)
	defer snap.Release()

	run := func(t *testing.T, mc mechCase, window, shards int) stats.Result {
		t.Helper()
		b := newBackend()
		e := New(b, mc.build(b))
		e.Window = window
		e.Shards = shards
		res, err := e.Run(w.Name, snap.DecodedStream(&b.Geom))
		if err != nil {
			t.Fatal(err)
		}
		if res.Requests != n {
			t.Fatalf("replayed %d requests, want %d", res.Requests, n)
		}
		if e.ParallelBlocks() != 0 {
			t.Fatalf("ParallelBlocks = %d, want 0", e.ParallelBlocks())
		}
		return res
	}

	for _, mc := range mechanisms {
		mc := mc
		t.Run(mc.name, func(t *testing.T) {
			diffResults(t, "Shards=4 vs Shards=1", run(t, mc, 0, 4), run(t, mc, 0, 1))
		})
	}
	for _, mc := range []mechCase{mechanisms[0], mechanisms[1], memPodCache} {
		for _, window := range []int{0, 32, -1} {
			ref := run(t, mc, window, 1)
			for _, shards := range []int{2, 3, 4} {
				mc, window, shards := mc, window, shards
				t.Run(fmt.Sprintf("%s/window=%d/shards=%d", mc.name, window, shards), func(t *testing.T) {
					diffResults(t, fmt.Sprintf("Shards=%d vs Shards=1", shards), run(t, mc, window, shards), ref)
				})
			}
		}
	}
}
