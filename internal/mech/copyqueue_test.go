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
	return Swap{From: b.Geom.FastPerPod() + k, To: k, LockA: 100 + k, LockB: 200 + k}
}

// twin is a reference for a CopyQueue: the paper's datapath issued line
// by line on a second backend built like the first.
type twin struct {
	b     *Backend
	pod   int
	locks map[uint32]clock.Time
}

func newTwin(t *testing.T) *twin { return &twin{testBackend(t), 0, map[uint32]clock.Time{}} }

// lines issues n lines of each of sw's slots the way the paper's
// datapath does (reads of both slots at `at`, then write-backs of both
// at the last read's completion) and raises both locks, returning the
// completion.
func (w *twin) lines(sw Swap, n int, at clock.Time) clock.Time {
	g := &w.b.Geom
	podA, fa, podB, fb := w.pod, addr.Frame(sw.From), w.pod, addr.Frame(sw.To)
	if w.pod == GlobalPod {
		podA, fa = g.HomeFrame(addr.Page(sw.From))
		podB, fb = g.HomeFrame(addr.Page(sw.To))
	}
	chA, rowA := g.FrameChannel(podA, fa)
	chB, rowB := g.FrameChannel(podB, fb)
	end := at
	for i := 0; i < n; i++ {
		end = max(end, w.b.Sys.AccessChannel(chA, rowA, false, at))
		end = max(end, w.b.Sys.AccessChannel(chB, rowB, false, at))
	}
	readsDone := end
	for i := 0; i < n; i++ {
		end = max(end, w.b.Sys.AccessChannel(chA, rowA, true, readsDone))
		end = max(end, w.b.Sys.AccessChannel(chB, rowB, true, readsDone))
	}
	for _, k := range []uint32{sw.LockA, sw.LockB} {
		w.locks[k] = max(w.locks[k], end)
	}
	return end
}

// chunk issues one chunk of sw at `at`.
func (w *twin) chunk(sw Swap, at clock.Time) clock.Time {
	return w.lines(sw, addr.LinesPerPage/SwapChunks, at)
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
			q.copyLines(sw, linesPerChunk, at)
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
	q.copyLines(podSwap(q.backend, 1), linesPerChunk, 0)
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

// TestCopyQueueCopyLine: CAMEO's line swap is the copy step with one
// line: the two slots' reads issue at `at` and their write-backs at the
// reads' completion, and both lock keys are raised to the last write's
// completion.
func TestCopyQueueCopyLine(t *testing.T) {
	b := testBackend(t)
	var q CopyQueue
	q.Init(b, GlobalPod)
	ref := newTwin(t)
	ref.pod = GlobalPod
	// The home pages of fast line 0 and of the first slow line.
	sw := Swap{From: 0, To: uint32(b.Layout.FastPages()), LockA: 7, LockB: 9}
	const at = 1000
	q.CopyLine(sw, at)
	end := ref.lines(sw, 1, at)
	ref.same(t, &q)
	fs, ss := b.Sys.FastStats(), b.Sys.SlowStats()
	if fs.Reads != 1 || fs.Writes != 1 || ss.Reads != 1 || ss.Writes != 1 {
		t.Errorf("line swap issued fast %d/%d, slow %d/%d reads/writes, want 1/1 each",
			fs.Reads, fs.Writes, ss.Reads, ss.Writes)
	}
	if end <= at || q.Locks.Get(7) != end || q.Locks.Get(9) != end {
		t.Errorf("locks end at %v and %v, want the last write's completion %v",
			q.Locks.Get(7), q.Locks.Get(9), end)
	}
	want := MigStats{LineMigrations: 2, GlobalMoveLines: 2, BytesMoved: 2 * addr.LineBytes}
	if q.Stats != want {
		t.Errorf("stats %+v, want %+v", q.Stats, want)
	}
}

// overlapSchedule is two pod-0 swaps whose chunk starts interleave: swap
// 1's at 0, 100, ..., 700 and swap 2's at 250, 300, ..., 600, tying swap
// 1's at 300, 400, 500 and 600. Both swaps share the pod's channels, so
// the order their chunks issue in shows in the timings.
func overlapSchedule(q *CopyQueue) (a, b Swap, inst *recInstaller) {
	a, b = podSwap(q.backend, 1), podSwap(q.backend, 3)
	q.Schedule(0, 800, 1, 0)
	q.Schedule(250, 400, 2, 0)
	return a, b, &recInstaller{swaps: map[uint32]Swap{1: a, 2: b}}
}

// overlapStart is chunk ch's start in overlapSchedule's swap k.
func overlapStart(k, ch int) clock.Time {
	if k == 1 {
		return chunkStart(0, 800, ch)
	}
	return chunkStart(250, 400, ch)
}

// byStartOrder is overlapSchedule's chunks in start order, ties in
// schedule order: (swap, chunk) pairs.
var byStartOrder = [][2]int{
	{1, 0}, {1, 1}, {1, 2}, {2, 0}, {1, 3}, {2, 1}, {2, 2}, {1, 4}, {2, 3},
	{2, 4}, {1, 5}, {2, 5}, {2, 6}, {1, 6}, {2, 7}, {1, 7},
}

// TestCopyQueueOverlappingSwaps: a ByStart queue issues overlapping
// swaps' chunks by start, ties in schedule order, each copying its own
// swap's frames; a schedule-order queue given the same schedule issues
// swap by swap.
func TestCopyQueueOverlappingSwaps(t *testing.T) {
	byStart, ref := newPodQueue(t), newTwin(t)
	byStart.ByStart = true
	a, b, inst := overlapSchedule(byStart)
	swaps := map[int]Swap{1: a, 2: b}
	byStart.Drain(1000, inst)
	for _, c := range byStartOrder {
		ref.chunk(swaps[c[0]], overlapStart(c[0], c[1]))
	}
	ref.same(t, byStart)

	inOrder, serial := newPodQueue(t), newTwin(t)
	overlapSchedule(inOrder)
	inOrder.Drain(1000, inst)
	for _, k := range []int{1, 2} {
		for ch := 0; ch < SwapChunks; ch++ {
			serial.chunk(swaps[k], overlapStart(k, ch))
		}
	}
	serial.same(t, inOrder)
	if ref.locks[b.LockA] == serial.locks[b.LockA] {
		t.Fatal("start order and schedule order gave the same timings: the schedule does not tell them apart")
	}
	for _, q := range []*CopyQueue{byStart, inOrder} {
		want := MigStats{PageMigrations: 2, LineMigrations: 4 * addr.LinesPerPage, BytesMoved: 4 * addr.PageBytes}
		if q.Stats != want || q.Pending() != 0 {
			t.Errorf("ByStart=%v: stats %+v, %d pending; want %+v, 0", q.ByStart, q.Stats, q.Pending(), want)
		}
	}
}

// TestCopyQueueRetireOverlapping: at a boundary a ByStart queue finishes
// every started swap, its chunks in start order and none before the
// boundary, and drops the swaps that never started.
func TestCopyQueueRetireOverlapping(t *testing.T) {
	q, ref := newPodQueue(t), newTwin(t)
	q.ByStart = true
	a, b, inst := overlapSchedule(q)
	inst.swaps[3] = podSwap(q.backend, 5)
	q.Schedule(5000, 800, 3, 0)
	q.Drain(320, inst) // through chunk 1 of swap 2
	if q.Pending() != 3 {
		t.Fatalf("%d pending after the first drain, want 3", q.Pending())
	}
	const boundary = 450
	swaps := map[int]Swap{1: a, 2: b}
	for i, c := range byStartOrder {
		at := overlapStart(c[0], c[1])
		if i > 5 { // issued by Retire
			at = max(at, boundary)
		}
		ref.chunk(swaps[c[0]], at)
	}
	q.Retire(boundary)
	ref.same(t, q)
	if len(inst.calls) != 2 || q.Stats.DroppedMigrations != 1 || q.Pending() != 0 {
		t.Errorf("installed %v, dropped %d, %d pending; want swaps 1 and 2, 1, 0",
			inst.calls, q.Stats.DroppedMigrations, q.Pending())
	}
}

func TestCopyQueueSteadyStateAllocFree(t *testing.T) {
	for _, byStart := range []bool{false, true} {
		q := newPodQueue(t)
		q.ByStart = byStart
		inst := &recInstaller{swaps: map[uint32]Swap{}, calls: make([]uint32, 0, 1<<16)}
		for k := uint32(0); k < 4; k++ {
			inst.swaps[k] = podSwap(q.backend, k)
		}
		epoch := clock.Time(0)
		run := func() {
			const spacing = clock.Microsecond
			// Overlapping swaps: each starts half-way through the last.
			for k := uint32(0); k < 4; k++ {
				q.Schedule(epoch+clock.Duration(k)*spacing/2, spacing, k, 0)
			}
			q.Drain(epoch+spacing+spacing/2, inst)
			_ = q.Stall(101, epoch)
			// Swaps scheduled after others finished reuse their entries.
			q.Schedule(epoch+2*spacing, spacing, 0, 0)
			q.Drain(epoch+2*spacing, inst)
			epoch += 4 * spacing
			q.Retire(epoch)
			inst.calls = inst.calls[:0]
		}
		for i := 0; i < 4; i++ {
			run()
		}
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("ByStart=%v: %v allocations per epoch, want 0", byStart, allocs)
		}
	}
}
