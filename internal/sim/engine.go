// Package sim drives a memory trace through a management mechanism and a
// two-level memory system and accumulates the paper's metrics.
//
// The engine plays the role of Ramulator's simple CPU front-end: requests
// issue at their trace timestamps, gated by a bounded outstanding-request
// window that models resource-induced stalls (a core cannot have unbounded
// misses in flight).
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

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
	// Shards is the worker count of a pod-parallel run (see runPods): 0
	// or negative selects min(GOMAXPROCS, pods), 1 forces the serial
	// run, N asks for min(N, pods) workers. Only a pod-clustered
	// mechanism (mech.PodSplitter) untouched since construction,
	// replaying a snapshot cursor (*trace.SnapshotStream), runs in
	// parallel; every other run is serial whatever Shards says.
	Shards int

	// workers are the replay's workers (see run), kept across runs so
	// repeated Run calls on one engine (benchmarks, sweeps) stay
	// allocation-free. workers[0] is the serial run, the worker that owns
	// every pod, and the first worker of a pod-parallel run. Its touch
	// filter sees every request the engine replays, so it persists for
	// the engine's lifetime, like the mechanism's state.
	workers []worker
	// parallel is the worker count of the last Run, 0 when it was serial.
	parallel int

	// ring is the serial run's outstanding-request window, kept across
	// runs like the workers.
	ring []clock.Time
	// timeBuf and decBuf are the scratch time and plane batches a plain
	// stream is read and decoded into, and req the request its Next
	// fills: all allocated on first use and reused, as a local would
	// escape through the stream interface call.
	timeBuf []clock.Time
	decBuf  []trace.Decoded
	req     trace.Request
}

// accessor is the one access method run drives: the mechanism's own
// (mech.Mechanism) or a pod view's (mech.PodView).
type accessor interface {
	Access(d *trace.Decoded, arrival, at clock.Time, touched bool) clock.Time
}

// worker is one replay of the trace (see run). It passes every request
// through its touch filter and simulates, through acc, the requests of
// the pods it owns (own[pod] == 1).
type worker struct {
	acc accessor
	own []uint8
	// abort is shared by the workers of a pod-parallel run; it is nil
	// for the serial run.
	abort   *atomic.Bool
	touch   mech.TouchFilter
	touched []bool  // the touch filter's verdicts for the batch
	mine    []int32 // batch indices of the owned requests
	// res is the worker's share of the Result (Requests, TotalStall,
	// Span), and last the trace time of the last request it read.
	res  stats.Result
	last clock.Time
}

// assign points w at acc for the pods p with owner[p] == id, out of pods
// in all; a nil owner gives w every pod.
func (w *worker) assign(acc accessor, abort *atomic.Bool, pods int, owner []int, id int) {
	w.acc, w.abort = acc, abort
	if len(w.own) != pods {
		w.own = make([]uint8, pods)
	}
	for p := range w.own {
		w.own[p] = 0
		if owner == nil || owner[p] == id {
			w.own[p] = 1
		}
	}
}

// errAbandoned ends a pod worker's replay at a request the window would
// have held back, or after another worker has given up. runPods then
// falls back to the serial run, so it never reaches a caller.
var errAbandoned = errors.New("sim: pod-parallel replay abandoned")

// stallSum is a run's Σ (completion − trace arrival) in 128 bits, so a
// sum beyond clock.Duration's range is reported rather than wrapped.
type stallSum struct{ lo, hi uint64 }

func (s *stallSum) add(d clock.Duration) {
	var carry uint64
	s.lo, carry = bits.Add64(s.lo, uint64(d), 0)
	s.hi += carry
}

// total returns the sum, or false when it does not fit a clock.Duration.
func (s *stallSum) total() (clock.Duration, bool) {
	return clock.Duration(s.lo), s.hi == 0 && s.lo <= math.MaxInt64
}

// New returns an engine for the mechanism built over the backend.
func New(b *mech.Backend, m mech.Mechanism) *Engine {
	return &Engine{backend: b, m: m, workers: make([]worker, 1)}
}

// shardWorkers resolves an Engine.Shards value for a mechanism with the
// given number of pods: the number of workers a pod-parallel run uses,
// where 1 means the run is serial.
func shardWorkers(shards, pods int) int {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	return max(min(shards, pods), 1)
}

// Run replays the stream to completion and returns the run's metrics.
// The stream must be time-ordered (workload streams are).
//
// The engine consumes a trace as two columns: each request's time and
// its plane entry (trace.Decoded) under the backend's geometry. A
// *trace.SnapshotStream is read straight from its snapshot's time column
// and predecode plane (Snapshot.TimeColumn, Snapshot.Plane), from the
// cursor's position on, and the cursor is drained when the run succeeds;
// any other stream fills BatchSize-request scratch batches through Next
// and trace.Decode. Either way one loop (run) passes every request
// through the engine's touch filter and into the mechanism's one Access
// method. On error Run returns the partial Result up to the failing
// request; when the stall sum outgrows clock.Duration, which Run checks
// once per BatchSize requests, the partial Result holds the batches
// before the one that overflowed.
//
// A snapshot run that may go pod-parallel (see Shards) first tries
// runPods; the Result and any error are the serial run's either way.
func (e *Engine) Run(workload string, s trace.Stream) (stats.Result, error) {
	window := e.Window
	if window == 0 {
		window = DefaultWindow
	}
	res := stats.Result{Workload: workload, Mechanism: e.m.Name()}
	e.parallel = 0
	ss, snapshot := s.(*trace.SnapshotStream)
	var times []clock.Time
	var plane []trace.Decoded
	if snapshot {
		pos := ss.Pos()
		plane = ss.Snapshot().Plane(&e.backend.Geom)[pos:]
		times = ss.Snapshot().TimeColumn()[pos:]
	}
	if !snapshot || !e.runPods(times, plane, window, &res) {
		w := &e.workers[0]
		w.assign(e.m, nil, e.backend.Layout.NumPods, nil, 0)
		err := e.run(w, s, times, plane, window)
		res.Requests, res.TotalStall, res.Span = w.res.Requests, w.res.TotalStall, w.res.Span
		if err != nil {
			return res, err
		}
	}
	if snapshot {
		ss.Drain()
	}
	return e.finish(res), nil
}

// finish completes a replayed run's Result with the memory system's
// counters and the mechanism's statistics.
func (e *Engine) finish(res stats.Result) stats.Result {
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
	return res
}

// runPods is the optimistic pod-parallel replay of a snapshot's columns.
// Each of n workers reads every request's time and plane entry (run):
// every request passes the worker's touch filter, and the requests of its
// own pods issue at their trace times and are simulated through its view.
// Pods share no mutable state, so this is exactly the serial run as long
// as the window never holds a request back — that is, as long as every
// request j completes by the trace time of request j+window, which each
// worker checks for its own requests against the time column. The first
// worker to find a violation, or any error, raises the shared abort flag;
// the others notice at their next batch. An aborted attempt resets the
// mechanism, the memory system and worker 0's touch filter and reports
// false, and Run replays serially, so every Result and every error is the
// serial one. After a successful attempt worker 0's filter, which saw
// every request, carries on as the serial run's.
//
// runPods reports false without doing anything when the run cannot split:
// not a mech.PodSplitter, one worker, or a mechanism or memory system
// that has already served requests.
func (e *Engine) runPods(times []clock.Time, plane []trace.Decoded, window int, res *stats.Result) bool {
	sp, ok := e.m.(mech.PodSplitter)
	if !ok {
		return false
	}
	pods := sp.Pods()
	n := shardWorkers(e.Shards, pods)
	if n < 2 || !e.backend.Sys.Untouched() {
		return false
	}
	owner := assignPods(plane, pods, n)
	views := sp.SplitPods(owner)
	if views == nil {
		return false
	}
	for len(e.workers) < n {
		e.workers = append(e.workers, worker{})
	}
	ws := e.workers[:n]
	start := ws[0].touch
	var abort atomic.Bool
	work := func(w *worker, view mech.PodView) {
		if e.run(w, nil, times, plane, window) != nil {
			abort.Store(true)
			return
		}
		view.Finish(w.last)
	}
	var wg sync.WaitGroup
	for i := range ws {
		w := &ws[i]
		w.assign(views[i], &abort, pods, owner, i)
		if i == 0 {
			continue // runs on this goroutine below
		}
		w.touch = start
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w, views[i])
		}()
	}
	work(&ws[0], views[0])
	wg.Wait()
	var stall stallSum
	for i := range ws {
		stall.add(ws[i].res.TotalStall)
	}
	total, fits := stall.total()
	// An overflowing sum is reported by the serial rerun, with the
	// serial run's partial Result.
	if abort.Load() || !fits {
		sp.ResetPods()
		e.backend.Sys.Reset()
		ws[0].touch = start
		return false
	}
	sp.JoinPods(views)
	for i := range ws {
		r := &ws[i].res
		res.Requests += r.Requests
		res.Span = max(res.Span, r.Span)
	}
	res.TotalStall = total
	e.parallel = n
	return true
}

// podSample is the stride at which assignPods samples the plane.
const podSample = 256

// assignPods spreads pods over n <= pods workers by their share of the
// requests ahead, sampled every podSample plane entries: heaviest pod
// first, each to the least-loaded worker (longest processing time first).
// Every pod counts at least one request, so the first n pods land on n
// distinct workers and none is left idle. It returns each pod's worker.
func assignPods(plane []trace.Decoded, pods, n int) []int {
	load := make([]int, pods)
	for p := range load {
		load[p] = 1
	}
	for i := 0; i < len(plane); i += podSample {
		load[plane[i].Pod]++
	}
	order := make([]int, pods)
	for p := range order {
		order[p] = p
	}
	sort.SliceStable(order, func(a, b int) bool { return load[order[a]] > load[order[b]] })
	owner, work := make([]int, pods), make([]int, n)
	for _, p := range order {
		w := 0
		for i := range work {
			if work[i] < work[w] {
				w = i
			}
		}
		owner[p] = w
		work[w] += load[p]
	}
	return owner
}

// run is the engine's one per-request loop: w's replay of the trace, over
// a snapshot's columns (times and plane, read BatchSize requests at a
// time) or, when times is nil, over s through the scratch batches. Per
// batch, every request passes the order check and w's touch filter, and
// the owned ones are gathered into w.mine without a per-request branch on
// ownership, which is a coin flip for a pod worker. Then each owned
// request issues through w.acc with its touch verdict:
//   - the serial run (w.abort nil) owns every pod and issues each request
//     once the request window places behind it has completed (the ring);
//   - a pod worker issues at trace time and gives up (errAbandoned) when
//     the request completes after the trace time of the request window
//     places after it, or at the first batch after another worker has
//     given up.
//
// Its accumulators live in locals, flushed to w.res once per batch and
// before any error return; on success w.last is the last request's time.
func (e *Engine) run(w *worker, s trace.Stream, times []clock.Time, plane []trace.Decoded, window int) error {
	if w.mine == nil {
		w.touched = make([]bool, BatchSize)
		w.mine = make([]int32, BatchSize)
	}
	if times == nil && e.timeBuf == nil {
		e.timeBuf = make([]clock.Time, BatchSize)
		e.decBuf = make([]trace.Decoded, BatchSize)
	}
	var ring []clock.Time
	if w.abort == nil && window > 0 {
		if cap(e.ring) < window {
			e.ring = make([]clock.Time, window)
		}
		ring = e.ring[:window]
		clear(ring)
	}
	gated := w.abort != nil && window > 0
	acc, own := w.acc, w.own
	geom := &e.backend.Geom

	var lastArrival clock.Time
	var requests uint64
	var stall stallSum
	var span clock.Duration
	// The ring position is a wrapping counter rather than Requests%window:
	// the modulo would be two 64-bit divisions per request.
	ringPos := 0
	var ts []clock.Time
	var dec []trace.Decoded
	for lo := 0; ; lo += len(ts) {
		if w.abort != nil && w.abort.Load() {
			return errAbandoned
		}
		if times != nil {
			hi := min(lo+BatchSize, len(times))
			ts, dec = times[lo:hi], plane[lo:hi]
		} else {
			r := &e.req
			n := 0
			for n < BatchSize && s.Next(r) {
				e.timeBuf[n], e.decBuf[n] = r.Time, trace.Decode(r, geom)
				n++
			}
			ts, dec = e.timeBuf[:n], e.decBuf[:n]
		}
		if len(ts) == 0 {
			break
		}
		// Equal lengths let the compiler drop the dec[i] bounds check.
		dec = dec[:len(ts)]
		mine, k, n := w.mine[:len(ts)], 0, len(ts)
		for i, t := range ts {
			if t < lastArrival {
				n = i // the batch ends before the violation
				break
			}
			lastArrival = t
			mine[k] = int32(i)
			k += int(own[dec[i].Pod])
		}
		touched := w.touched[:n]
		w.touch.Scan(dec[:n], touched)
		for _, i := range mine[:k] {
			t := ts[i]
			at := t
			if ring != nil {
				// The request cannot issue until the request `window`
				// back has completed.
				if gate := ring[ringPos]; gate > at {
					at = gate
				}
			}
			done := acc.Access(&dec[i], t, at, touched[i])
			if done <= at {
				return w.flush(requests, &stall, span, fmt.Errorf(
					"sim: mechanism %s returned completion %v <= issue %v", e.m.Name(), done, at))
			}
			if ring != nil {
				ring[ringPos] = done
				if ringPos++; ringPos == window {
					ringPos = 0
				}
			} else if j := lo + int(i) + window; gated && j < len(times) && done > times[j] {
				return errAbandoned
			}

			requests++
			stall.add(done - t)
			if done > span {
				span = done
			}
		}
		if err := w.flush(requests, &stall, span, nil); err != nil {
			return err
		}
		if n < len(ts) {
			return fmt.Errorf("sim: trace out of order at request %d (%v < %v)", requests, ts[n], lastArrival)
		}
	}
	w.last = lastArrival
	return nil
}

// flush writes run's accumulators into w.res and returns err, unless the
// stall sum has overflowed: then w.res keeps what the last flush wrote
// and the overflow is the error.
func (w *worker) flush(requests uint64, stall *stallSum, span clock.Duration, err error) error {
	total, ok := stall.total()
	if !ok {
		return fmt.Errorf("sim: total stall overflows int64 femtoseconds by request %d", requests)
	}
	w.res.Requests, w.res.TotalStall, w.res.Span = requests, total, span
	return err
}

// ParallelBlocks returns the number of workers the last Run replayed on,
// or 0 when it ran serially (including a pod-parallel attempt that fell
// back).
func (e *Engine) ParallelBlocks() uint64 { return uint64(e.parallel) }

// MustRun is Run for known-good streams; it panics on error.
func (e *Engine) MustRun(workload string, s trace.Stream) stats.Result {
	res, err := e.Run(workload, s)
	if err != nil {
		panic(err)
	}
	return res
}
