package mempod

import (
	"fmt"
	"os"

	"repro/internal/exp"
	"repro/internal/resultcache"
)

// ResultCache memoizes simulation results across runs and processes. Every
// cell — one (workload trace, mechanism config, memory specs, layout) point
// — is keyed by its complete causal identity, so a cached result is
// field-identical to what a fresh simulation would produce; the cache only
// removes work, never changes numbers. Share one cache across Run, RunTrace
// and RunExperimentOpts calls (it is safe for concurrent use) to dedupe
// overlapping cells; give it a directory to persist results across
// processes as MPR1 files.
//
// Entries are invalidated automatically whenever any keyed input changes:
// the engine-semantics version (sim.Version), the mechanism's design-space
// parameters, either memory spec's timing fingerprint, the layout geometry,
// or the trace identity. Corrupt, truncated or stale store files are
// recomputed and overwritten, never surfaced as errors.
type ResultCache struct {
	c *resultcache.Cache
}

// NewResultCache returns a result cache. dir, when non-empty, is the
// persistent store directory (created if missing); empty keeps the cache
// in-memory only, still deduping within the process.
func NewResultCache(dir string) (*ResultCache, error) {
	rc := &ResultCache{c: resultcache.New()}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("mempod: result cache dir: %w", err)
		}
		rc.c.SetDir(dir)
	}
	return rc, nil
}

// ResultCacheStats counts a cache's activity.
type ResultCacheStats struct {
	Hits      int // runs served without simulating
	Misses    int // runs that simulated
	DiskLoads int // store files read and verified
	Stale     int // store files rejected (corrupt, stale version, wrong key)
	Persisted int // store files written

	BytesRead    int64
	BytesWritten int64
	FailedWrites int // store files that could not be written
}

// Stats returns a snapshot of the cache counters.
func (rc *ResultCache) Stats() ResultCacheStats {
	s := rc.c.Stats()
	return ResultCacheStats{
		Hits: s.Hits, Misses: s.Misses, DiskLoads: s.DiskLoads,
		Stale: s.Stale, Persisted: s.Persisted,
		BytesRead: s.BytesRead, BytesWritten: s.BytesWritten,
		FailedWrites: s.FailedWrites,
	}
}

// String renders the counters in the one-line greppable form the commands
// print: "hits=H misses=M stale=S read=RB written=WB failed_writes=F".
func (s ResultCacheStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d stale=%d read=%dB written=%dB failed_writes=%d",
		s.Hits, s.Misses, s.Stale, s.BytesRead, s.BytesWritten, s.FailedWrites)
}

// cellIdentity is the trace half of a run's cache key: how the request
// sequence is pinned. Generated runs use the symbolic recipe (workload
// name, length, seed); snapshot replays use the content fingerprint.
// cacheable is false when no exact identity exists (custom workload
// definitions, whose names don't pin their content).
type cellIdentity struct {
	workload  string
	requests  int
	seed      int64
	traceFP   uint64
	cacheable bool
}

// cellKey assembles the run's complete cache key: the workload-independent
// key of the cell the run simulates (exp.Cell.Key) plus the trace identity
// and the window.
func (o Options) cellKey(cell exp.Cell, id cellIdentity) resultcache.CellKey {
	k := cell.Key()
	k.Workload, k.Requests, k.Seed, k.TraceFP = id.workload, id.requests, id.seed, id.traceFP
	k.Window = o.Window
	return k
}

// traceIdentity pins a recorded trace for the cache: by content
// fingerprint, since a replayed snapshot's generating recipe is unknown
// (it may have come from a file). Fingerprinting costs one pass over the
// packed columns, so it is computed only when a cache is configured.
func traceIdentity(t *Trace, o Options) cellIdentity {
	if o.Results == nil {
		return cellIdentity{}
	}
	return cellIdentity{
		workload:  t.name,
		requests:  t.snap.Len(),
		traceFP:   t.snap.Fingerprint(),
		cacheable: true,
	}
}
