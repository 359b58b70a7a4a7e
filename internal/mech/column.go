package mech

import (
	"repro/internal/clock"
	"repro/internal/dram"
	"repro/internal/memsys"
	"repro/internal/trace"
)

// ColumnPlan gathers a span of routed demand requests into per-channel
// columns and services each column through the channel batch kernel
// (dram.Channel.AccessBatch) in one call. A plan preserves per-channel
// request order, which is the whole correctness argument: channels share
// no state, so reordering requests *across* channels while keeping each
// channel's own sequence intact is bit-identical to the interleaved
// per-request order.
//
// The routing mechanism must Flush before any event that injects channel
// traffic outside the plan — interval boundaries, migration-queue drains,
// triggered swaps, bookkeeping reads — so that traffic observes exactly
// the channel state it would have seen on the per-request path.
//
// A plan is single-goroutine state; each backend owns one (Backend.Plan).
type ColumnPlan struct {
	sys  *memsys.System
	cols [][]dram.BatchReq
	used []int32
	done []clock.Time
}

// colCap is each channel column's preallocated capacity: one flat backing
// array sliced per channel replaces the dozens of incremental append
// regrowths a fresh plan would otherwise pay while warming up. A column
// that outgrows its slot just reallocates (and keeps the larger capacity);
// spans are bounded by the engine window, so in practice almost none do.
const colCap = 64

// newColumnPlan returns an empty plan over sys's channels.
func newColumnPlan(sys *memsys.System) *ColumnPlan {
	nch := sys.NumChannels()
	flat := make([]dram.BatchReq, nch*colCap)
	cols := make([][]dram.BatchReq, nch)
	for ch := range cols {
		cols[ch] = flat[ch*colCap : ch*colCap : (ch+1)*colCap]
	}
	return &ColumnPlan{
		sys:  sys,
		cols: cols,
		used: make([]int32, 0, nch),
	}
}

// Begin starts a new span: routed completions are folded into done by
// request index (running max, so callers preload done[i] with the
// request's completion floor — zero, or a migration-lock release time).
func (p *ColumnPlan) Begin(done []clock.Time) { p.done = done }

// Route appends one demand access to its channel's pending column.
// idx is the request's index into the done column given to Begin.
func (p *ColumnPlan) Route(ch int, row uint64, write bool, at clock.Time, idx int32) {
	col := p.cols[ch]
	if len(col) == 0 {
		p.used = append(p.used, int32(ch))
	}
	p.cols[ch] = append(col, dram.BatchReq{Row: row, At: at, Idx: idx, Write: write})
}

// smallColumn is the column length below which Flush services requests
// through the per-request channel path instead of the batch kernel: the
// kernel hoists channel state into locals and writes it back once, which
// amortizes over long columns but costs more than it saves under a
// handful of requests (frequent flush points — migration drains,
// triggered swaps — produce exactly such slivers). Both paths are
// bit-identical by construction, so the threshold is purely a speed knob.
const smallColumn = 8

// flushCol services one channel's pending column and resets it; the
// caller maintains the used list.
func (p *ColumnPlan) flushCol(ch int32) {
	col := p.cols[ch]
	done := p.done
	if len(col) < smallColumn {
		for i := range col {
			r := &col[i]
			if fin := p.sys.AccessChannel(int(ch), r.Row, r.Write, r.At); fin > done[r.Idx] {
				done[r.Idx] = fin
			}
		}
	} else {
		p.sys.AccessChannelBatch(int(ch), col, done)
	}
	p.cols[ch] = col[:0]
}

// Flush services every pending column and empties the plan. Channel
// order across columns is irrelevant (channels are independent); within
// a column, requests run in routed order.
func (p *ColumnPlan) Flush() {
	for _, ch := range p.used {
		p.flushCol(ch)
	}
	p.used = p.used[:0]
}

// FlushRange services only the pending columns of channels in [lo, hi),
// leaving every other channel's column accumulating. A mechanism whose
// mid-span event injects traffic onto a known channel subset (a pod's
// migration drain, a paced swap chunk) flushes just that subset: the
// pending demand on those channels is serviced first — exactly the
// per-request interleaving — while unrelated channels keep building
// long columns instead of being shredded into slivers at every event.
// Bit-identical to a full Flush because channels share no state.
func (p *ColumnPlan) FlushRange(lo, hi int) {
	for i := 0; i < len(p.used); {
		ch := p.used[i]
		if int(ch) < lo || int(ch) >= hi {
			i++
			continue
		}
		p.flushCol(ch)
		last := len(p.used) - 1
		p.used[i] = p.used[last]
		p.used = p.used[:last]
	}
}

// FlushChannel services channel ch's pending column only. Most mid-span
// events hit channels with nothing pending (drain traffic clusters on a
// couple of channels while demand spreads over all of them), so the
// empty case returns before touching the used list.
func (p *ColumnPlan) FlushChannel(ch int) {
	if len(p.cols[ch]) == 0 {
		return
	}
	p.flushCol(int32(ch))
	for i, u := range p.used {
		if int(u) == ch {
			last := len(p.used) - 1
			p.used[i] = p.used[last]
			p.used = p.used[:last]
			break
		}
	}
}

// ColumnAccessor is optionally implemented by mechanisms that can
// service a dense span of decoded requests through per-channel columns
// instead of one AccessDecoded call per request. The engine's batched
// path dispatches through it when the stream serves zero-copy spans
// (trace.ColumnStream) — the span's fields are the snapshot's own
// decoded columns, so no Request structs are materialized at all.
type ColumnAccessor interface {
	DecodedAccessor
	// AccessColumn services span request i (decoded as sc.Dec[i]) issued
	// at at[i], writing each completion into done[i]. It must be
	// bit-identical to the equivalent sequence of AccessDecoded calls:
	// same completions, same mechanism and channel state afterwards. at
	// and done are parallel to the span and caller-owned; every done[i]
	// is (re)written.
	AccessColumn(sc *trace.SpanColumns, at, done []clock.Time)
}
