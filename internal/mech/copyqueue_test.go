package mech

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/clock"
)

// recInstaller is an Installer that installs the swaps it was given, by
// key, and skips every other key; it records the keys it was asked for.
type recInstaller struct {
	swaps map[uint32]Swap
	calls []uint32
}

func (r *recInstaller) Install(_ int, key, _ uint32, _ clock.Time) (Swap, bool) {
	r.calls = append(r.calls, key)
	sw, ok := r.swaps[key]
	return sw, ok
}

// podSwap is a swap in pod 0 between slow frame fastPerPod+k and fast
// frame k, locking pages 100+k and 200+k.
func podSwap(b *Backend, k uint32) Swap {
	return Swap{From: b.fastPerPod + k, To: k, LockA: 100 + k, LockB: 200 + k}
}

// twin is a reference for a pod-0 CopyQueue: the same chunk step issued
// by hand on a second backend built like the first.
type twin struct {
	b     *Backend
	locks map[uint32]clock.Time
}

func newTwin(t *testing.T) *twin { return &twin{testBackend(t), map[uint32]clock.Time{}} }

// chunk issues one chunk of sw at `at` the way the paper's datapath
// does and raises both locks, returning the chunk's completion.
func (w *twin) chunk(sw Swap, at clock.Time) clock.Time {
	end := w.b.swapChunk(0, addr.Frame(sw.From), 0, addr.Frame(sw.To), addr.LinesPerPage/SwapChunks, at)
	for _, k := range []uint32{sw.LockA, sw.LockB} {
		w.locks[k] = max(w.locks[k], end)
	}
	return end
}

// same fails unless q's backend and locks match the twin's.
func (w *twin) same(t *testing.T, q *CopyQueue) {
	t.Helper()
	for ch := 0; ch < w.b.Sys.NumChannels(); ch++ {
		if g, r := q.backend.Sys.ChannelStats(ch), w.b.Sys.ChannelStats(ch); g != r {
			t.Fatalf("channel %d: stats %+v, reference %+v", ch, g, r)
		}
	}
	for k, end := range w.locks {
		if got := q.Locks.Get(uint64(k)); got != end {
			t.Fatalf("lock %d ends at %v, reference %v", k, got, end)
		}
	}
}

func newPodQueue(t *testing.T) *CopyQueue {
	q := &CopyQueue{}
	q.Init(testBackend(t), 0)
	return q
}

// chunkStart is chunk ch's start in a swap scheduled at slot with the
// given spacing.
func chunkStart(slot clock.Time, spacing clock.Duration, ch int) clock.Time {
	return slot + clock.Duration(ch)*(spacing/SwapChunks)
}

func TestCopyQueueRetireFinishesInFlightAndDropsUnstarted(t *testing.T) {
	const spacing = 8 * clock.Microsecond
	// The epoch ends after chunk 4's start, so chunks 3 and 4 issue at
	// the boundary and 5..7 at their own starts; or after chunk 7's, so
	// all of 3..7 issue at the boundary.
	for _, last := range []int{4, 7} {
		q, ref := newPodQueue(t), newTwin(t)
		a, b, c := podSwap(q.backend, 1), podSwap(q.backend, 2), podSwap(q.backend, 3)
		inst := &recInstaller{swaps: map[uint32]Swap{1: a, 2: b, 3: c}}
		for i, k := range []uint32{1, 2, 3} {
			q.Schedule(clock.Time(i)*spacing, spacing, k, 0)
		}
		// Chunks 0..2 of swap 1 issue; then no request arrives before
		// the boundary.
		q.Drain(chunkStart(0, spacing, 2), inst)
		for ch := 0; ch <= 2; ch++ {
			ref.chunk(a, chunkStart(0, spacing, ch))
		}
		ref.same(t, q)

		boundary := chunkStart(0, spacing, last) + 100*clock.Nanosecond
		q.Retire(boundary)
		for ch := 3; ch < SwapChunks; ch++ {
			ref.chunk(a, max(chunkStart(0, spacing, ch), boundary))
		}
		ref.same(t, q)
		if len(inst.calls) != 1 {
			t.Errorf("installed %v, want only swap 1", inst.calls)
		}
		want := MigStats{PageMigrations: 1, LineMigrations: 2 * addr.LinesPerPage,
			BytesMoved: 2 * addr.PageBytes, DroppedMigrations: 2}
		if q.Stats != want {
			t.Errorf("stats %+v, want %+v", q.Stats, want)
		}
		if q.Pending() != 0 || q.Due(clock.Time(1<<62)) {
			t.Errorf("queue not empty after retire: %d pending", q.Pending())
		}
		if q.Busy != ref.locks[a.LockA] {
			t.Errorf("busy until %v, want the last chunk's end %v", q.Busy, ref.locks[a.LockA])
		}
	}
}

func TestCopyQueueSkippedInstallSkipsItsChunks(t *testing.T) {
	q, ref := newPodQueue(t), newTwin(t)
	b := podSwap(q.backend, 2)
	inst := &recInstaller{swaps: map[uint32]Swap{2: b}} // key 1 is skipped
	q.Schedule(0, clock.Microsecond, 1, 0)
	q.Schedule(clock.Microsecond, clock.Microsecond, 2, 0)
	q.Finish(0, inst)
	for ch := 0; ch < SwapChunks; ch++ {
		ref.chunk(b, chunkStart(clock.Microsecond, clock.Microsecond, ch))
	}
	ref.same(t, q)
	if len(inst.calls) != 2 {
		t.Errorf("installed %v, want both swaps asked once", inst.calls)
	}
	if q.Stats.PageMigrations != 1 || q.Stats.LineMigrations != 2*addr.LinesPerPage {
		t.Errorf("stats %+v, want one swap's copy", q.Stats)
	}
	if q.Locks.Get(101) != 0 || q.Locks.Get(201) != 0 {
		t.Error("skipped swap locked its pages")
	}
}

func TestCopyQueueChunkRaisesBothLocks(t *testing.T) {
	for _, global := range []bool{false, true} {
		b := testBackend(t)
		q := &CopyQueue{}
		pod := 0
		if global {
			pod = GlobalPod
		}
		q.Init(b, pod)
		// Global slots are flat pages: a fast and a slow home page.
		sw := Swap{From: uint32(b.Layout.FastPages()) + 7, To: 5, LockA: 1, LockB: 2}
		at := clock.Time(0)
		for ch := 0; ch < SwapChunks; ch++ {
			q.CopyChunk(sw, at)
			a, z := q.Locks.Get(1), q.Locks.Get(2)
			if a == 0 || a != z || a != q.Busy || a <= at {
				t.Fatalf("global=%v chunk %d at %v: locks end at %v and %v, copy engine busy until %v",
					global, ch, at, a, z, q.Busy)
			}
			at += 50 * clock.Nanosecond
		}
		var globalLines uint64
		if global {
			globalLines = 2 * addr.LinesPerPage
		}
		if q.Stats.LineMigrations != 2*addr.LinesPerPage || q.Stats.GlobalMoveLines != globalLines {
			t.Errorf("global=%v: stats %+v", global, q.Stats)
		}
	}
}

// TestCopyQueueDrainOrder: chunks issue strictly in queue order, and a
// drain stops at the first chunk not yet due even when a later swap's
// chunk is.
func TestCopyQueueDrainOrder(t *testing.T) {
	q, ref := newPodQueue(t), newTwin(t)
	a, b := podSwap(q.backend, 1), podSwap(q.backend, 2)
	inst := &recInstaller{swaps: map[uint32]Swap{1: a, 2: b}}
	q.Schedule(1000, 8000, 1, 0) // chunks at 1000, 2000, ..., 8000
	q.Schedule(2000, 800, 2, 0)  // chunks at 2000, 2100, ..., 2700
	q.Drain(2500, inst)
	ref.chunk(a, 1000)
	ref.chunk(a, 2000)
	ref.same(t, q)
	if len(inst.calls) != 1 || q.Pending() != 2 {
		t.Fatalf("after the first drain: installed %v, %d pending", inst.calls, q.Pending())
	}
	if q.Due(2500) || !q.Due(3000) {
		t.Error("Due disagrees with the next chunk's start (3000)")
	}
	q.Drain(9000, inst)
	for ch := 2; ch < SwapChunks; ch++ {
		ref.chunk(a, chunkStart(1000, 8000, ch))
	}
	for ch := 0; ch < SwapChunks; ch++ {
		ref.chunk(b, chunkStart(2000, 800, ch))
	}
	ref.same(t, q)
	if len(inst.calls) != 2 || inst.calls[1] != 2 || q.Pending() != 0 {
		t.Errorf("installed %v, %d pending", inst.calls, q.Pending())
	}
}

func TestCopyQueueStall(t *testing.T) {
	q := newPodQueue(t)
	q.CopyChunk(podSwap(q.backend, 1), 0)
	end := q.Locks.Get(101)
	if got := q.Stall(101, end-1); got != end {
		t.Errorf("Stall before the lock ends = %v, want %v", got, end)
	}
	if got := q.Stall(101, end); got != 0 {
		t.Errorf("Stall at the lock's end = %v, want 0", got)
	}
	if q.Stall(999, 0) != 0 || q.Stats.LockStalls != 1 {
		t.Errorf("LockStalls = %d, want 1", q.Stats.LockStalls)
	}
	if q.Locks.Get(101) != 0 {
		t.Error("expired lock not dropped")
	}
}

func TestCopyQueueSteadyStateAllocFree(t *testing.T) {
	q := newPodQueue(t)
	inst := &recInstaller{swaps: map[uint32]Swap{}, calls: make([]uint32, 0, 1<<16)}
	for k := uint32(0); k < 4; k++ {
		inst.swaps[k] = podSwap(q.backend, k)
	}
	epoch := clock.Time(0)
	run := func() {
		const spacing = clock.Microsecond
		for k := uint32(0); k < 4; k++ {
			q.Schedule(epoch+clock.Duration(k)*spacing, spacing, k, 0)
		}
		q.Drain(epoch+spacing+spacing/2, inst)
		_ = q.Stall(101, epoch)
		epoch += 4 * spacing
		q.Retire(epoch)
		inst.calls = inst.calls[:0]
	}
	for i := 0; i < 4; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("%v allocations per epoch, want 0", allocs)
	}
}
