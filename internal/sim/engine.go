// Package sim drives a memory trace through a management mechanism and a
// two-level memory system and accumulates the paper's metrics.
//
// The engine plays the role of Ramulator's simple CPU front-end: requests
// issue at their trace timestamps, gated by a bounded outstanding-request
// window that models resource-induced stalls (a core cannot have unbounded
// misses in flight).
package sim

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/mech"
	"repro/internal/stats"
	"repro/internal/trace"
)

// DefaultWindow is the default maximum number of outstanding requests
// (8 cores × 16 MSHRs).
const DefaultWindow = 128

// BatchSize is how many requests the batched path pulls from a
// trace.BatchStream per NextBatch call: large enough to amortize the
// cursor call and keep the batch's columns hot in L1, small enough that
// two batch buffers (requests + decoded) stay around 10 KB.
const BatchSize = 256

// Engine runs traces against one mechanism.
type Engine struct {
	backend *mech.Backend
	m       mech.Mechanism
	// Window caps outstanding requests; 0 means DefaultWindow, negative
	// means unlimited.
	Window int
	// Shards is ignored: every run takes the serial path.
	//
	// Deprecated: the pod-parallel engine it selected was slower than the
	// serial column path and has been removed.
	Shards int

	// ring is the outstanding-request window, kept across runs so repeated
	// Run calls on one engine (benchmarks, sweeps) stay allocation-free.
	ring []clock.Time
	// Batch buffers for runBatched, allocated on first use and reused:
	// stack arrays would escape through the BatchStream interface call,
	// costing two heap allocations per Run.
	batchBuf []trace.Request
	decBuf   []trace.Decoded
	// Column buffers for runBatchedColumns (issue times and completions;
	// arrivals come straight from the stream's decoded time column),
	// allocated on first use and reused. spanBuf is the span view handed
	// to the mechanism — a single reused heap object, because a stack
	// span would escape through the ColumnAccessor interface call and
	// cost one allocation per span.
	atBuf   []clock.Time
	doneBuf []clock.Time
	spanBuf *trace.SpanColumns
	// columnSpans counts request spans serviced through the mechanism's
	// column path (mech.ColumnAccessor), for tests and diagnostics.
	columnSpans uint64
	// noColumns forces the per-request dispatch even for column-capable
	// mechanisms; the differential tests use it to run the reference path.
	noColumns bool
}

// New returns an engine for the mechanism built over the backend.
func New(b *mech.Backend, m mech.Mechanism) *Engine {
	return &Engine{backend: b, m: m}
}

// Run replays the stream to completion and returns the run's metrics.
// The stream must be time-ordered (workload streams are).
//
// Streams that implement trace.BatchStream (snapshot replay cursors) are
// driven through a batched loop that fuses window gating, order checking
// and stall accounting over BatchSize-request chunks; when the stream also
// carries a predecode plane and the mechanism implements
// mech.DecodedAccessor, requests dispatch through AccessDecoded (or, for
// column-capable mechanisms on column streams, through AccessColumn). All
// paths are bit-identical to the per-request fallback.
func (e *Engine) Run(workload string, s trace.Stream) (stats.Result, error) {
	window := e.Window
	if window == 0 {
		window = DefaultWindow
	}
	var ring []clock.Time
	if window > 0 {
		if cap(e.ring) >= window {
			ring = e.ring[:window]
			for i := range ring {
				ring[i] = 0
			}
		} else {
			ring = make([]clock.Time, window)
			e.ring = ring
		}
	}

	res := stats.Result{Workload: workload, Mechanism: e.m.Name()}
	var err error
	if bs, ok := s.(trace.BatchStream); ok {
		err = e.runBatched(bs, ring, window, &res)
	} else {
		err = e.runSerial(s, ring, window, &res)
	}
	if err != nil {
		return res, err
	}

	fs, ss := e.backend.Sys.FastStats(), e.backend.Sys.SlowStats()
	res.FastAccesses = fs.Accesses()
	res.SlowAccesses = ss.Accesses()
	res.FastActivations = fs.RowClosed + fs.RowConflicts
	res.SlowActivations = ss.RowClosed + ss.RowConflicts
	res.FastRowHitRate = fs.RowHitRate()
	res.SlowRowHitRate = ss.RowHitRate()
	if total := fs.Accesses() + ss.Accesses(); total > 0 {
		res.RowHitRate = float64(fs.RowHits+ss.RowHits) / float64(total)
	}
	res.Mig = e.m.Stats()
	return res, nil
}

// runSerial is the per-request replay loop, used for plain streams.
func (e *Engine) runSerial(s trace.Stream, ring []clock.Time, window int, res *stats.Result) error {
	var r trace.Request
	var lastArrival clock.Time
	// The ring position is a wrapping counter rather than Requests%window:
	// the modulo would be two 64-bit divisions per request.
	ringPos := 0
	for s.Next(&r) {
		if r.Time < lastArrival {
			return fmt.Errorf("sim: trace out of order at request %d (%v < %v)",
				res.Requests, r.Time, lastArrival)
		}
		lastArrival = r.Time

		at := r.Time
		if ring != nil {
			// The request cannot issue until the request `window` back
			// has completed.
			if gate := ring[ringPos]; gate > at {
				at = gate
			}
		}
		done := e.m.Access(&r, at)
		if done <= at {
			return fmt.Errorf("sim: mechanism %s returned completion %v <= issue %v",
				e.m.Name(), done, at)
		}
		if ring != nil {
			ring[ringPos] = done
			if ringPos++; ringPos == window {
				ringPos = 0
			}
		}

		res.Requests++
		res.TotalStall += done - r.Time
		if done > res.Span {
			res.Span = done
		}
	}
	return nil
}

// runBatched replays a BatchStream in BatchSize chunks. The per-request
// bookkeeping runs over the chunk's dense buffers with the accumulators in
// locals, flushed to res once per chunk (and before any error return, so
// partial results match the serial path exactly).
func (e *Engine) runBatched(bs trace.BatchStream, ring []clock.Time, window int, res *stats.Result) error {
	if e.batchBuf == nil {
		e.batchBuf = make([]trace.Request, BatchSize)
		e.decBuf = make([]trace.Decoded, BatchSize)
	}
	buf, decBuf := e.batchBuf, e.decBuf
	dm, _ := e.m.(mech.DecodedAccessor)
	usePlane := dm != nil && bs.HasPlane()
	if ca, ok := e.m.(mech.ColumnAccessor); ok && usePlane && !e.noColumns {
		if cs, ok := bs.(trace.ColumnStream); ok && cs.HasColumns() {
			return e.runBatchedColumns(cs, ca, ring, window, res)
		}
	}
	// Snapshot cursors lend their plane entries by subslice; other batch
	// streams fill our buffer.
	sbs, sharedPlane := bs.(trace.SharedBatchStream)

	var lastArrival clock.Time
	var requests uint64
	var totalStall, span clock.Duration
	ringPos := 0
	for {
		var n int
		dec := decBuf[:]
		switch {
		case sharedPlane:
			n, dec = sbs.NextBatchShared(buf[:])
		case usePlane:
			n = bs.NextBatch(buf[:], dec)
		default:
			n = bs.NextBatch(buf[:], nil)
		}
		if n == 0 {
			break
		}
		batch := buf[:n]
		if usePlane {
			// Equal lengths let the compiler drop the dec[i] bounds check
			// inside the loop.
			dec = dec[:n]
		}
		for i := range batch {
			r := &batch[i]
			if r.Time < lastArrival {
				res.Requests, res.TotalStall, res.Span = requests, totalStall, span
				return fmt.Errorf("sim: trace out of order at request %d (%v < %v)",
					res.Requests, r.Time, lastArrival)
			}
			lastArrival = r.Time

			at := r.Time
			if ring != nil {
				if gate := ring[ringPos]; gate > at {
					at = gate
				}
			}
			var done clock.Time
			if usePlane {
				done = dm.AccessDecoded(r, &dec[i], at)
			} else {
				done = e.m.Access(r, at)
			}
			if done <= at {
				res.Requests, res.TotalStall, res.Span = requests, totalStall, span
				return fmt.Errorf("sim: mechanism %s returned completion %v <= issue %v",
					e.m.Name(), done, at)
			}
			if ring != nil {
				ring[ringPos] = done
				if ringPos++; ringPos == window {
					ringPos = 0
				}
			}

			requests++
			totalStall += done - r.Time
			if done > span {
				span = done
			}
		}
		res.Requests, res.TotalStall, res.Span = requests, totalStall, span
	}
	res.Requests, res.TotalStall, res.Span = requests, totalStall, span
	return nil
}

// ColumnSpans reports how many request spans the engine has serviced
// through the column path, across all runs. Zero after a run on a planed
// stream means the run used per-request dispatch.
func (e *Engine) ColumnSpans() uint64 { return e.columnSpans }

// ParallelBlocks always returns 0.
//
// Deprecated: it counted blocks of the removed pod-parallel engine.
func (e *Engine) ParallelBlocks() uint64 { return 0 }

// runBatchedColumns replays a ColumnStream through the mechanism's
// column path (mech.ColumnAccessor) in wavefront spans of at most one
// window. Every window gate of a span is a completion from at least
// `window` requests back — an earlier span — so a prepass fixes all of
// the span's issue times before any of it is simulated, and the
// mechanism is free to gather the span's demand accesses into
// per-channel columns.
// Spans come straight off the stream's decoded columns (trace.SpanColumns)
// with no Request materialization; the span's own time column doubles as
// the arrival column for stats. Order checking runs in the prepass
// (truncating the span at a violation but still simulating the requests
// before it), the contract check and ring writes run in a postpass over
// the dense completion column, and stall accounting goes through
// stats.Accum.NoteColumn. Error messages and partial results reproduce
// the per-request path exactly.
func (e *Engine) runBatchedColumns(cs trace.ColumnStream, ca mech.ColumnAccessor, ring []clock.Time, window int, res *stats.Result) error {
	if e.atBuf == nil {
		e.atBuf = make([]clock.Time, BatchSize)
		e.doneBuf = make([]clock.Time, BatchSize)
		e.spanBuf = new(trace.SpanColumns)
	}
	at, doneCol, sub := e.atBuf, e.doneBuf, e.spanBuf
	spanMax := window
	if spanMax <= 0 || spanMax > BatchSize {
		spanMax = BatchSize
	}

	var lastArrival clock.Time
	var acc stats.Accum
	ringPos := 0
	for {
		sc := cs.NextSpan(spanMax)
		span := sc.Len()
		if span == 0 {
			break
		}
		times := sc.Times
		var orderErr error
		for k := 0; k < span; k++ {
			t := times[k]
			if t < lastArrival {
				orderErr = fmt.Errorf("sim: trace out of order at request %d (%v < %v)",
					acc.Requests+uint64(k), t, lastArrival)
				span = k
				break
			}
			lastArrival = t
			if ring != nil {
				slot := ringPos + k
				if slot >= window {
					slot -= window
				}
				if gate := ring[slot]; gate > t {
					t = gate
				}
			}
			at[k] = t
		}
		if span > 0 {
			*sub = sc
			sub.Times = sc.Times[:span]
			sub.Dec = sc.Dec[:span]
			sub.Cores = sc.Cores[:span]
			done := doneCol[:span]
			ca.AccessColumn(sub, at[:span], done)
			e.columnSpans++
			bad := -1
			for k := 0; k < span; k++ {
				if done[k] <= at[k] {
					bad = k
					break
				}
			}
			ok := span
			if bad >= 0 {
				ok = bad
			}
			if ring != nil {
				for k := 0; k < ok; k++ {
					slot := ringPos + k
					if slot >= window {
						slot -= window
					}
					ring[slot] = done[k]
				}
				if ringPos += ok; ringPos >= window {
					ringPos -= window
				}
			}
			acc.NoteColumn(times[:ok], done[:ok])
			if bad >= 0 {
				acc.FlushTo(res)
				return fmt.Errorf("sim: mechanism %s returned completion %v <= issue %v",
					e.m.Name(), done[bad], at[bad])
			}
		}
		if orderErr != nil {
			acc.FlushTo(res)
			return orderErr
		}
	}
	acc.FlushTo(res)
	return nil
}

// MustRun is Run for known-good streams; it panics on error.
func (e *Engine) MustRun(workload string, s trace.Stream) stats.Result {
	res, err := e.Run(workload, s)
	if err != nil {
		panic(err)
	}
	return res
}
