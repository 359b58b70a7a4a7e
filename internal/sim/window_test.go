package sim

import (
	"bytes"
	"testing"

	"repro/internal/mech"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// For a static mechanism, widening the outstanding-request window can only
// reduce total stall: requests issue no later, and the memory system is
// work-conserving.
func TestWindowMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	w, _ := workload.Homogeneous("mcf")
	run := func(window int) stats.Result {
		b := newBackend()
		e := New(b, mech.NewStatic("TLM", b))
		e.Window = window
		return e.MustRun("mcf", w.MustStream(40_000, 6))
	}
	prev := run(4)
	for _, window := range []int{16, 64, 256} {
		cur := run(window)
		if cur.TotalStall > prev.TotalStall {
			t.Errorf("window %d stall %v exceeds smaller window's %v",
				window, cur.TotalStall, prev.TotalStall)
		}
		prev = cur
	}
}

// The engine reports identical results whether the stream comes straight
// from the generator or is round-tripped through the snapshot file format —
// recorded traces are faithful replays.
func TestGeneratorVsReplayEquivalence(t *testing.T) {
	w, _ := workload.Mix(2)

	b1 := newBackend()
	live := New(b1, mech.NewStatic("TLM", b1)).MustRun("mix2", w.MustStream(20_000, 12))

	var buf bytes.Buffer
	if err := trace.WriteSnapshot(&buf, "mix2", trace.Record(w.MustStream(20_000, 12), 20_000)); err != nil {
		t.Fatal(err)
	}
	snap, _, err := trace.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b2 := newBackend()
	replay := New(b2, mech.NewStatic("TLM", b2)).MustRun("mix2", snap.Stream())

	if live != replay {
		t.Fatalf("live %+v != replay %+v", live, replay)
	}
}
