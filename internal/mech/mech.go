// Package mech defines the common machinery of hybrid-memory management
// mechanisms: the Mechanism interface the simulation engine drives, the
// Backend that issues physical requests into the memory system, and the
// set-associative cache model used for bookkeeping state (§6.3.3).
//
// The engine calls one Mechanism method per trace request, Access, with
// the request already decoded (trace.Decode) under the backend's layout
// (a snapshot replay reads its predecode plane, and the engine decodes
// every other batch itself) and with its touch verdict, which the
// engine's TouchFilter produces.
//
// The concrete mechanisms live in their own packages: internal/core
// (MemPod), internal/hma, internal/thm, internal/cameo and
// internal/migrant; this package also provides the static (no-migration
// and single-level) references.
package mech

import (
	"repro/internal/clock"
	"repro/internal/trace"
)

// Mechanism is a memory-management scheme under evaluation. The engine
// calls Access once per trace request, in non-decreasing time order, and
// the mechanism routes the request (after any translation, bookkeeping
// traffic, interval processing or migration stalling it models) and
// returns the completion time.
type Mechanism interface {
	// Name identifies the mechanism in reports.
	Name() string
	// Access services one demand request, issued at time `at`, and
	// returns its completion time (> at). d is the request decoded under
	// the backend's layout (trace.Decode(r, &backend.Geom)) and arrival
	// its trace time (r.Time, <= at; the window may delay the issue).
	// touched is the engine's TouchFilter verdict for the request: true
	// when it begins a new page touch for its core, so a tracking
	// mechanism counts it once per touch. CAMEO and Static ignore it.
	Access(d *trace.Decoded, arrival, at clock.Time, touched bool) clock.Time
	// Stats returns the mechanism's migration counters.
	Stats() MigStats
}

// Releaser is optionally implemented by mechanisms whose bookkeeping
// tables recycle through internal/tab pools. Callers that construct many
// mechanisms in sequence (the experiment matrix) call Release after the
// last use of a mechanism so the next cell reuses its tables instead of
// allocating and initializing tens of megabytes; callers that don't are
// merely slower. A released mechanism must not be used again.
type Releaser interface {
	Release()
}

// Release releases m's pooled tables if it has any.
func Release(m Mechanism) {
	if r, ok := m.(Releaser); ok {
		r.Release()
	}
}

// PodSplitter is optionally implemented by pod-clustered mechanisms whose
// pods share no mutable state (MemPod: each pod owns its tracker, remap
// and inverted tables, cache, locks, migration queue and channels). The
// only state such a mechanism keeps across pods is its interval cursor, a
// function of the request times alone, so workers that each replay the
// whole trace can simulate disjoint pod sets concurrently, provided every
// request issues at its trace time (internal/sim checks that it does).
// Each worker passes every request through its own TouchFilter, drives
// its view through Access for its own pods' requests and calls Finish at
// the end of the trace.
type PodSplitter interface {
	// Pods returns the number of pods.
	Pods() int
	// SplitPods returns one view per worker over the shared pods: view w
	// owns the pods p with owner[p] == w, for owner of length Pods()
	// naming every worker 0..n-1. It returns nil when the mechanism has
	// crossed an interval boundary since construction (or ResetPods); the
	// caller checks that its memory system is untouched too.
	SplitPods(owner []int) []PodView
	// JoinPods folds views that each replayed the whole trace back into
	// the mechanism: their statistics are merged and the replicated
	// state is taken over, as if one serial run had replayed it.
	JoinPods(views []PodView)
	// ResetPods returns the mechanism to its state at construction,
	// discarding whatever its views did.
	ResetPods()
}

// PodView is one worker's view of a split mechanism.
type PodView interface {
	// Access is Mechanism.Access for a request of a pod the view owns,
	// issued at its trace time (at == arrival), with the verdict of a
	// touch filter that has seen every request of the trace.
	Access(d *trace.Decoded, arrival, at clock.Time, touched bool) clock.Time
	// Finish runs the interval boundaries up to t, the last request's
	// time, that the view's pods have not run yet.
	Finish(t clock.Time)
}

// MigStats counts migration and bookkeeping activity.
type MigStats struct {
	Intervals         uint64 // interval boundaries processed
	PageMigrations    uint64 // pages moved (each is a swap participant)
	LineMigrations    uint64 // 64 B lines moved
	BytesMoved        uint64 // total migration traffic
	CacheHits         uint64 // bookkeeping cache hits
	CacheMisses       uint64 // bookkeeping cache misses (each injects a read)
	LockStalls        uint64 // demand requests delayed by an in-flight swap
	DroppedMigrations uint64 // scheduled swaps superseded before starting
	// GlobalMoveLines counts moved lines that crossed the global switch:
	// zero for MemPod (intra-pod datapath), equal to LineMigrations for
	// the mechanisms that swap across arbitrary channel pairs (§5.3).
	GlobalMoveLines uint64
}

// BytesMovedPerPod returns average migration traffic per pod.
func (m MigStats) BytesMovedPerPod(pods int) uint64 {
	if pods <= 0 {
		return m.BytesMoved
	}
	return m.BytesMoved / uint64(pods)
}

// Add adds o's counters into m, field by field.
func (m *MigStats) Add(o MigStats) {
	m.Intervals += o.Intervals
	m.PageMigrations += o.PageMigrations
	m.LineMigrations += o.LineMigrations
	m.BytesMoved += o.BytesMoved
	m.CacheHits += o.CacheHits
	m.CacheMisses += o.CacheMisses
	m.LockStalls += o.LockStalls
	m.DroppedMigrations += o.DroppedMigrations
	m.GlobalMoveLines += o.GlobalMoveLines
}
