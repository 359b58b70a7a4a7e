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

// BatchSize is how many requests Run pulls from the stream per batch:
// large enough to amortize the cursor call and keep the batch hot in L1,
// small enough that the batch buffer stays around 6 KB.
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
	// serial path and has been removed.
	Shards int

	// ring is the outstanding-request window, kept across runs so repeated
	// Run calls on one engine (benchmarks, sweeps) stay allocation-free.
	ring []clock.Time
	// batchBuf is Run's request batch, allocated on first use and reused:
	// a stack array would escape through the stream interface call.
	batchBuf []trace.Request
	// decBuf is the scratch plane a batch is decoded into when its source
	// lends no plane entries (plain streams, unbound snapshot cursors).
	decBuf []trace.Decoded
}

// New returns an engine for the mechanism built over the backend.
func New(b *mech.Backend, m mech.Mechanism) *Engine {
	return &Engine{backend: b, m: m}
}

// Run replays the stream to completion and returns the run's metrics.
// The stream must be time-ordered (workload streams are).
//
// Every stream runs through one loop over BatchSize-request batches. A
// *trace.SnapshotStream fills each batch and lends its predecode plane
// entries; any other stream fills it through Next. A batch that arrives
// without plane entries is decoded (trace.Decode) into a scratch plane
// under the backend's geometry, so every request reaches the mechanism's
// one Access method with its decomposition. On error Run returns the
// partial Result up to the failing request.
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
	if err := e.run(s, ring, window, &res); err != nil {
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

// run is Run's replay loop. Its accumulators live in locals, flushed to
// res once per batch and before any error return.
func (e *Engine) run(s trace.Stream, ring []clock.Time, window int, res *stats.Result) error {
	if e.batchBuf == nil {
		e.batchBuf = make([]trace.Request, BatchSize)
		e.decBuf = make([]trace.Decoded, BatchSize)
	}
	buf, scratch := e.batchBuf, e.decBuf
	geom := &e.backend.Geom
	fill := func(dst []trace.Request) (int, []trace.Decoded) {
		n := 0
		for n < len(dst) && s.Next(&dst[n]) {
			n++
		}
		return n, nil
	}
	if ss, ok := s.(*trace.SnapshotStream); ok {
		fill = ss.NextBatchShared
	}

	var lastArrival clock.Time
	var requests uint64
	var totalStall, span clock.Duration
	// The ring position is a wrapping counter rather than Requests%window:
	// the modulo would be two 64-bit divisions per request.
	ringPos := 0
	for {
		n, dec := fill(buf)
		if n == 0 {
			break
		}
		batch := buf[:n]
		if dec == nil {
			dec = scratch[:n]
			for i := range dec {
				dec[i] = trace.Decode(batch[i].Addr, geom)
			}
		}
		// Equal lengths let the compiler drop the dec[i] bounds check
		// inside the loop.
		dec = dec[:n]
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
				// The request cannot issue until the request `window`
				// back has completed.
				if gate := ring[ringPos]; gate > at {
					at = gate
				}
			}
			done := e.m.Access(r, &dec[i], at)
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
	return nil
}

// ParallelBlocks always returns 0.
//
// Deprecated: it counted blocks of the removed pod-parallel engine.
func (e *Engine) ParallelBlocks() uint64 { return 0 }

// MustRun is Run for known-good streams; it panics on error.
func (e *Engine) MustRun(workload string, s trace.Stream) stats.Result {
	res, err := e.Run(workload, s)
	if err != nil {
		panic(err)
	}
	return res
}
