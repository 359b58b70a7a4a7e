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
// THM, Migrant), rather than staying inside one pod (MemPod).
const GlobalPod = -1

// Swap is one page swap's copy: the two page slots it exchanges, in the
// order their lines issue, and the two pages it locks until each chunk
// lands. The slots are frames of the queue's pod, or flat pages for a
// GlobalPod queue; the lock keys are the mechanism's page IDs.
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

// queuedChunk is one unit of paced copy work: chunk `chunk` of the swap
// scheduled as (key, aux), issued no earlier than start.
type queuedChunk struct {
	start    clock.Time
	key, aux uint32
	chunk    uint8
}

// CopyQueue is the paced page-copy datapath of a migrating mechanism's
// copy engine (one per MemPod pod, one for HMA or Migrant; THM and CAMEO
// use only its chunk step and lock check). A swap is scheduled as
// SwapChunks chunks paced from a slot start and issues in queue order as
// requests reach each chunk's start (Due, Drain). Chunk 0 runs the
// policy's Installer; every chunk copies its lines, counts them, and
// raises both pages' locks to its completion. At an epoch boundary the
// queue retires (Retire) or finishes (Finish) what is left.
//
// The queue allocates nothing in steady state: its chunk buffer and lock
// table are reused across epochs.
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

	backend *Backend
	pod     int
	queue   []queuedChunk
	qpos    int  // next chunk to issue
	cur     Swap // the swap whose chunks are issuing
	skip    bool // cur's chunk 0 installed nothing
}

// Init readies q for the copies of pod `pod` (GlobalPod: the global
// switch) over backend b, in the state of a new queue but keeping its
// chunk buffer.
func (q *CopyQueue) Init(b *Backend, pod int) {
	*q = CopyQueue{backend: b, pod: pod, queue: q.queue[:0]}
}

// Schedule queues one swap as SwapChunks chunks: chunk i issues no
// earlier than slot + i*(spacing/SwapChunks). key and aux are handed to
// the Installer at chunk 0.
func (q *CopyQueue) Schedule(slot clock.Time, spacing clock.Duration, key, aux uint32) {
	gap := spacing / SwapChunks
	for ch := 0; ch < SwapChunks; ch++ {
		q.queue = append(q.queue, queuedChunk{slot + clock.Duration(ch)*gap, key, aux, uint8(ch)})
	}
}

// Due reports whether the next queued chunk starts at or before now. It
// is the cheap guard callers inline before Drain: most requests find
// nothing due.
func (q *CopyQueue) Due(now clock.Time) bool {
	return q.qpos < len(q.queue) && q.queue[q.qpos].start <= now
}

// Drain issues, in queue order, every chunk up to the first one not yet
// due at now.
func (q *CopyQueue) Drain(now clock.Time, inst Installer) {
	for q.Due(now) {
		q.issue(q.queue[q.qpos], inst)
		q.qpos++
	}
}

// Retire ends an epoch at boundary. The swap in flight (its chunk 0
// issued) finishes its chunks, none starting before boundary; the swaps
// that never started are stale decisions and are dropped and counted;
// locks ending by boundary expire.
func (q *CopyQueue) Retire(boundary clock.Time) {
	for ; q.qpos < len(q.queue) && q.queue[q.qpos].chunk != 0; q.qpos++ {
		c := q.queue[q.qpos]
		c.start = max(c.start, boundary)
		q.issue(c, nil)
	}
	q.Stats.DroppedMigrations += uint64(len(q.queue)-q.qpos) / SwapChunks
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
	q.queue, q.qpos = q.queue[:0], 0
	q.Locks.Sweep(boundary)
}

// Pending returns the number of scheduled swaps with chunks left to
// issue.
func (q *CopyQueue) Pending() int {
	return (len(q.queue) - q.qpos + SwapChunks - 1) / SwapChunks
}

// issue runs one queued chunk: chunk 0 installs its swap through inst,
// and every chunk of an installed swap copies.
func (q *CopyQueue) issue(c queuedChunk, inst Installer) {
	if c.chunk == 0 {
		sw, ok := inst.Install(q.pod, c.key, c.aux, c.start)
		if q.cur, q.skip = sw, !ok; ok {
			q.Stats.PageMigrations++
		}
	}
	if !q.skip {
		q.CopyChunk(q.cur, c.start)
	}
}

// CopyChunk is the per-chunk step of a swap: it issues one chunk's line
// reads and write-backs at `at` (the channels serialize the actual
// transfers; issuing at chained completion times would put future-dated
// requests into the time-ordered channel model), counts the lines, and
// raises both pages' locks to the chunk's completion.
func (q *CopyQueue) CopyChunk(sw Swap, at clock.Time) {
	podA, fa, podB, fb := q.pod, addr.Frame(sw.From), q.pod, addr.Frame(sw.To)
	if q.pod == GlobalPod {
		podA, fa = q.backend.Geom.HomeFrame(addr.Page(sw.From))
		podB, fb = q.backend.Geom.HomeFrame(addr.Page(sw.To))
		q.Stats.GlobalMoveLines += 2 * linesPerChunk
	}
	end := q.backend.swapChunk(podA, fa, podB, fb, linesPerChunk, at)
	q.Stats.LineMigrations += 2 * linesPerChunk
	q.Stats.BytesMoved += 2 * linesPerChunk * addr.LineBytes
	q.Busy = max(q.Busy, end)
	q.Locks.Raise(uint64(sw.LockA), end)
	q.Locks.Raise(uint64(sw.LockB), end)
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
