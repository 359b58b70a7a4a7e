package mech

import (
	"math"

	"repro/internal/addr"
	"repro/internal/clock"
	"repro/internal/tab"
)

// SwapChunks is the number of paced chunks a page swap's copy is issued
// in: 32 line-pairs split into 8 chunks of 4 keeps each copy clump to ~8
// channel accesses, so migration interleaves with demand at the memory
// controllers instead of monopolizing a channel per swap.
const SwapChunks = 8

const linesPerChunk = addr.LinesPerPage / SwapChunks

// GlobalPod is the pod of a CopyQueue whose copies cross the global
// switch between arbitrary page slots of the flat address space (HMA,
// THM, CAMEO, Migrant), rather than staying inside one pod (MemPod).
const GlobalPod = -1

// Swap is one page swap's copy: the two page slots it exchanges, in the
// order their lines issue, and the two pages it locks until each chunk
// lands. The slots are frames of the queue's pod, or flat pages for a
// GlobalPod queue; the lock keys are the mechanism's page IDs (CAMEO's
// line IDs).
type Swap struct {
	From, To     uint32
	LockA, LockB uint32
}

// Installer is a migration policy's chunk-0 hook. When the first chunk
// of a swap scheduled as (key, aux) issues at `at`, the queue calls
// Install to pick the victim and update the policy's tables; Install
// returns the swap to copy, or false to skip all the swap's chunks (the
// page needs no move, or no victim is free). pod is the queue's pod.
type Installer interface {
	Install(pod int, key, aux uint32, at clock.Time) (Swap, bool)
}

// queuedChunk is one unit of paced copy work: chunk `chunk` of swap
// q.swaps[swap], issued no earlier than start. Chunks issue in (ord, seq)
// order: ord is start in a ByStart queue and 0 otherwise, seq the push
// order.
type queuedChunk struct {
	start, ord clock.Time
	seq        uint64
	swap       uint32
	chunk      uint8
}

func (c *queuedChunk) before(d *queuedChunk) bool {
	return c.ord < d.ord || c.ord == d.ord && c.seq < d.seq
}

// swapState is one scheduled swap: the Installer's arguments, and once
// chunk 0 has issued, the installed swap or a skip.
type swapState struct {
	key, aux      uint32
	sw            Swap
	started, skip bool
}

// CopyQueue is the paced copy datapath of a migrating mechanism: the only
// code that issues copy traffic. MemPod has one per pod, HMA, THM,
// Migrant and CAMEO one each. A swap is scheduled as SwapChunks chunks
// paced from a slot start and issues as requests reach each chunk's start
// (Due, Drain). Chunk 0 runs the policy's Installer; every chunk copies
// its lines, counts them, and raises both pages' locks to its completion.
// At an epoch boundary the queue retires (Retire) or finishes (Finish)
// what is left. CAMEO's line swaps copy one line through CopyLine.
//
// The queue allocates nothing in steady state: its chunk heap, swap table
// and lock table are reused.
type CopyQueue struct {
	// Locks maps a page to the completion of the copy locking it.
	Locks LockTable
	// Stats counts the datapath's work: pages installed, lines and bytes
	// moved (and lines across the global switch), demand requests stalled
	// by a lock and swaps dropped at a boundary. A mechanism with one
	// queue counts its policy's work here too and reports Stats as its
	// own; MemPod adds its pods' into its counters.
	Stats MigStats
	// Busy is the latest completion of the engine's copies, and of any
	// chunk-0 work the policy charges to the engine.
	Busy clock.Time
	// ByStart issues due chunks in start order (ties in schedule order)
	// instead of schedule order. A serial copy engine (a MemPod pod,
	// HMA's or Migrant's OS copy loop) works its queue in order, so a
	// chunk waits behind an earlier-scheduled one even if it starts
	// first; THM's per-segment copies have no central engine and overlap
	// freely. Once copy writes become due items of their own, every
	// queue issues in time order and this distinction goes.
	ByStart bool

	backend *Backend
	pod     int
	heap    []queuedChunk // min-heap by (ord, seq)
	seq     uint64
	swaps   []swapState // indexed by queuedChunk.swap
	free    []uint32    // swaps entries whose last chunk has issued
}

// Init readies q for the copies of pod `pod` (GlobalPod: the global
// switch) over backend b, in the state of a new schedule-order queue but
// keeping its buffers.
func (q *CopyQueue) Init(b *Backend, pod int) {
	*q = CopyQueue{backend: b, pod: pod, heap: q.heap[:0], swaps: q.swaps[:0], free: q.free[:0]}
}

// Schedule queues one swap as SwapChunks chunks: chunk i issues no
// earlier than slot + i*(spacing/SwapChunks). key and aux are handed to
// the Installer at chunk 0.
func (q *CopyQueue) Schedule(slot clock.Time, spacing clock.Duration, key, aux uint32) {
	var idx uint32
	if n := len(q.free); n > 0 {
		idx, q.free = q.free[n-1], q.free[:n-1]
		q.swaps[idx] = swapState{key: key, aux: aux}
	} else {
		idx = uint32(len(q.swaps))
		q.swaps = append(q.swaps, swapState{key: key, aux: aux})
	}
	gap := spacing / SwapChunks
	for ch := 0; ch < SwapChunks; ch++ {
		c := queuedChunk{start: slot + clock.Duration(ch)*gap, seq: q.seq, swap: idx, chunk: uint8(ch)}
		if q.ByStart {
			c.ord = c.start
		}
		q.seq++
		q.push(c)
	}
}

// Due reports whether the next chunk to issue starts at or before now.
// It is the cheap guard callers inline before Drain: most requests find
// nothing due.
func (q *CopyQueue) Due(now clock.Time) bool {
	return len(q.heap) > 0 && q.heap[0].start <= now
}

// Drain issues, in queue order, every chunk up to the first one not yet
// due at now.
func (q *CopyQueue) Drain(now clock.Time, inst Installer) {
	for q.Due(now) {
		c := q.pop()
		s := &q.swaps[c.swap]
		if c.chunk == 0 {
			sw, ok := inst.Install(q.pod, s.key, s.aux, c.start)
			s.sw, s.started, s.skip = sw, true, !ok
			if ok {
				q.Stats.PageMigrations++
			}
		}
		q.issue(c, s)
	}
}

// Retire ends an epoch at boundary. The swaps in flight (their chunk 0
// issued) finish their chunks, none starting before boundary; the swaps
// that never started are stale decisions and are dropped and counted;
// locks ending by boundary expire.
func (q *CopyQueue) Retire(boundary clock.Time) {
	for len(q.heap) > 0 {
		c := q.pop()
		s := &q.swaps[c.swap]
		if s.started {
			c.start = max(c.start, boundary)
			q.issue(c, s)
		} else if c.chunk == 0 {
			q.Stats.DroppedMigrations++
		}
	}
	q.reset(boundary)
}

// Finish ends an epoch at boundary by issuing every queued chunk at its
// scheduled start, whether or not any request has reached it, then
// expires the locks ending by boundary.
func (q *CopyQueue) Finish(boundary clock.Time, inst Installer) {
	q.Drain(math.MaxInt64, inst)
	q.reset(boundary)
}

func (q *CopyQueue) reset(boundary clock.Time) {
	q.swaps, q.free = q.swaps[:0], q.free[:0]
	q.Locks.Sweep(boundary)
}

// Pending returns the number of scheduled swaps with chunks left to
// issue.
func (q *CopyQueue) Pending() int {
	return len(q.swaps) - len(q.free)
}

// issue copies chunk c of swap s unless its install was skipped, and
// frees s's table entry after its last chunk.
func (q *CopyQueue) issue(c queuedChunk, s *swapState) {
	if !s.skip {
		q.copyLines(s.sw, linesPerChunk, c.start)
	}
	if c.chunk == SwapChunks-1 {
		q.free = append(q.free, c.swap)
	}
}

// CopyLine is CAMEO's line swap: one line of each of sw's two slots
// (flat pages; the line's column does not change its timing) copied at
// `at` through the queue's copy step.
func (q *CopyQueue) CopyLine(sw Swap, at clock.Time) { q.copyLines(sw, 1, at) }

// copyLines is the copy step, as the paper models the datapath: n line
// reads of each of sw's slots, interleaved A/B and issued at `at`, then
// n write-backs of each issued when the last read completes. All lines
// of a page share its slot's channel and row. Within one pod the copy
// stays on the pod's channels; a GlobalPod copy crosses the global
// switch. It counts the lines and raises Busy and both pages' locks to
// the last write-back's completion.
func (q *CopyQueue) copyLines(sw Swap, n int, at clock.Time) {
	g, sys := &q.backend.Geom, q.backend.Sys
	podA, fa, podB, fb := q.pod, addr.Frame(sw.From), q.pod, addr.Frame(sw.To)
	if q.pod == GlobalPod {
		podA, fa = g.HomeFrame(addr.Page(sw.From))
		podB, fb = g.HomeFrame(addr.Page(sw.To))
		q.Stats.GlobalMoveLines += 2 * uint64(n)
	}
	chA, rowA := g.FrameChannel(podA, fa)
	chB, rowB := g.FrameChannel(podB, fb)
	end := at
	for i := 0; i < n; i++ {
		end = max(end, sys.AccessChannel(chA, rowA, false, at), sys.AccessChannel(chB, rowB, false, at))
	}
	readsDone := end
	for i := 0; i < n; i++ {
		end = max(end, sys.AccessChannel(chA, rowA, true, readsDone), sys.AccessChannel(chB, rowB, true, readsDone))
	}
	q.Stats.LineMigrations += 2 * uint64(n)
	q.Stats.BytesMoved += 2 * uint64(n) * addr.LineBytes
	q.Busy = max(q.Busy, end)
	q.Locks.Raise(uint64(sw.LockA), end)
	q.Locks.Raise(uint64(sw.LockB), end)
}

// push adds c to the heap (container/heap's up, on the concrete type).
func (q *CopyQueue) push(c queuedChunk) {
	h := append(q.heap, c)
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !h[j].before(&h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	q.heap = h
}

// pop removes and returns the heap's first chunk (container/heap's down).
// The (ord, seq) order is total, so the pop order does not depend on the
// heap's shape.
func (q *CopyQueue) pop() queuedChunk {
	h := q.heap
	c, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && h[j+1].before(&h[j]) {
			j++
		}
		if !h[j].before(&h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	q.heap = h
	return c
}

// Stall is the demand-side lock check: it returns the completion of the
// copy locking key if that lies after `at` (the request cannot complete
// before the copy lands) and counts a lock stall, or 0. An expired lock
// found here is dropped.
func (q *CopyQueue) Stall(key uint64, at clock.Time) clock.Time {
	end := q.Locks.GetActive(key, at)
	if end != 0 {
		q.Stats.LockStalls++
	}
	return end
}

// PromoteFlat is the chunk-0 install of an OS page promotion over the
// flat page tables (HMA, Migrant): page moves into fast slot victim and
// the victim's resident into page's old slot. It installs nothing when
// page already sits in one of the fastPages fast slots.
func PromoteFlat(remap, inverted *tab.U32, fastPages, page, victim uint32) (Swap, bool) {
	cur := remap.A[page]
	if cur < fastPages {
		return Swap{}, false // already promoted
	}
	res := inverted.A[victim]
	remap.Set(page, victim)
	remap.Set(res, cur)
	inverted.Set(victim, page)
	return Swap{From: cur, To: victim, LockA: page, LockB: res}, true
}
