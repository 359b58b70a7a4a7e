// Package tracecache shares generated trace snapshots across the
// simulation cells of an experiment matrix.
//
// A matrix runs every workload under every builder, and trace generation
// costs nearly as much as simulating the accesses — so generating each
// (workload, requests, seed) trace once and replaying the packed snapshot
// (trace.Record / Snapshot.Stream) for every cell is close to a free
// factor-of-builders reduction of the front-end cost.
//
// The cache is built for exact lifetimes, not heuristics: every Acquire
// declares the total number of acquisitions the key will ever receive in
// this batch, so the cache can release the snapshot to the recording pool
// the moment the last user is done. Combined with workload-major task
// ordering in internal/exp, peak residency stays O(workers), never
// O(workloads): a bounded pool working in submission order can hold cells
// of at most Parallelism+1 distinct workloads at once.
//
// Generation is single-flight: concurrent Acquires of one key block on the
// first caller's generator instead of generating duplicates. The
// experiment matrix's generator records on every core (workload.Record
// runs each core's generator on its own goroutine), so a blocked waiter's
// CPU runs the generation instead of idling.
package tracecache

import (
	"fmt"
	"sync"

	"repro/internal/trace"
)

// Key identifies one deterministic generated trace.
type Key struct {
	Workload string
	Requests int
	Seed     int64
}

// Stats counts cache activity. Peak is the residency bound the matrix
// ordering is designed around.
type Stats struct {
	Generated int // snapshots actually recorded (cache misses)
	Hits      int // acquisitions served from a resident snapshot
	Live      int // snapshots currently resident
	Peak      int // maximum snapshots ever resident at once
}

// Cache is a single-flight, use-counted snapshot cache. The zero value is
// not usable; call New. A Cache may be reused across sequential batches;
// concurrent batches must not share one unless they never share keys
// (the per-key uses contract below is batch-wide).
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*entry
	stats   Stats
}

type entry struct {
	ready    chan struct{} // closed once snap/err are set
	snap     *trace.Snapshot
	err      error
	uses     int // total Acquires this key will receive
	acquired int
	released int
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{entries: make(map[Key]*entry)}
}

// Acquire returns the snapshot for key, recording it via gen if no
// generation is resident or in flight. uses is the total number of
// Acquire calls key will receive over the whole batch — every caller must
// pass the same value — and each successful Acquire must be paired with
// exactly one call of the returned release function. When the last use is
// released the snapshot leaves the cache and its buffers return to the
// recording pool, so callers must not touch the snapshot (or any cursor
// over it) after calling release.
//
// If gen fails, every waiter for the in-flight generation receives the
// error and the entry is forgotten; a later Acquire would retry.
func (c *Cache) Acquire(key Key, uses int, gen func() (*trace.Snapshot, error)) (*trace.Snapshot, func(), error) {
	if uses < 1 {
		return nil, nil, fmt.Errorf("tracecache: uses %d < 1 for %v", uses, key)
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		if e.uses != uses {
			c.mu.Unlock()
			return nil, nil, fmt.Errorf("tracecache: conflicting uses for %v: %d then %d", key, e.uses, uses)
		}
		e.acquired++
		if e.acquired > e.uses {
			c.mu.Unlock()
			return nil, nil, fmt.Errorf("tracecache: %v acquired more than its declared %d uses", key, e.uses)
		}
		c.stats.Hits++
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, nil, e.err
		}
		return e.snap, c.releaseFunc(key, e), nil
	}

	e = &entry{ready: make(chan struct{}), uses: uses, acquired: 1}
	c.entries[key] = e
	c.stats.Generated++
	if live := len(c.entries); live > c.stats.Peak {
		c.stats.Peak = live
	}
	c.mu.Unlock()

	snap, err := gen()
	c.mu.Lock()
	e.snap, e.err = snap, err
	if err != nil {
		delete(c.entries, key)
	}
	c.mu.Unlock()
	close(e.ready)
	if err != nil {
		return nil, nil, err
	}
	return snap, c.releaseFunc(key, e), nil
}

// releaseFunc builds the idempotent release closure for one acquisition.
func (c *Cache) releaseFunc(key Key, e *entry) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			defer c.mu.Unlock()
			e.released++
			if e.released == e.uses {
				delete(c.entries, key)
				e.snap.Release()
			}
		})
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Live = len(c.entries)
	return s
}
