// Package resultcache memoizes simulation cell results across runs and
// processes: a persistent, content-addressed store keyed by the complete
// causal identity of a cell (CellKey — mechanism config, memory-spec
// fingerprints, layout geometry, trace identity, engine version).
//
// The design-space grids recompute thousands of cells whose inputs never
// changed; with every input fingerprinted, the next order-of-magnitude
// win over the batched engine is not running the cell at all. The cache
// follows internal/tracecache's shape — single-flight generation, a
// SetDir disk store with atomic writes — but holds results resident for
// the process lifetime instead of use-counting them: a cell result is a
// few hundred bytes, so even a full evaluation's worth stays trivially
// small, and residency is what lets overlapping figures (Fig6/Fig7 share
// MemPod design points) dedupe against each other in one process.
//
// Correctness stance: a cache must never fail or change a run. Every
// malformed, truncated, stale-versioned or wrong-keyed store file is a
// miss that recomputes and overwrites; the only errors GetOrRun returns
// are the compute function's own.
package resultcache

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/stats"
)

// Stats counts cache activity.
type Stats struct {
	Hits      int // calls served without running the compute function
	Misses    int // calls that computed the cell
	DiskLoads int // store files read and verified successfully
	Stale     int // store files rejected: corrupt, stale version, wrong key
	Persisted int // store files written

	BytesRead    int64 // store bytes read (including rejected files)
	BytesWritten int64 // store bytes written

	// FailedWrites counts store files that could not be written (temp
	// file creation, write, close or rename failed). The result is still
	// served; it just does not outlive the process.
	FailedWrites int
}

// Cache is a single-flight, content-addressed result cache. The zero
// value is not usable; call New. All methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*entry // by canonical key
	stats   Stats
	dir     string
}

type entry struct {
	ready   chan struct{} // closed once payload/err are set
	payload []byte
	err     error
}

// New returns an empty in-memory cache.
func New() *Cache {
	return &Cache{entries: make(map[string]*entry)}
}

// SetDir enables the disk store rooted at dir (which must exist). Each
// result is one MPR1 file named by the key fingerprint; files are written
// atomically (temp file + rename), so concurrent processes sharing a
// store directory see either a complete old file or a complete new one,
// and the worst cross-process race is both computing the same cell once.
// A write that fails (a missing or read-only dir) leaves the result
// served from memory and counts in Stats.FailedWrites.
func (c *Cache) SetDir(dir string) {
	c.mu.Lock()
	c.dir = dir
	c.mu.Unlock()
}

// Dir returns the configured store directory ("" when memory-only).
func (c *Cache) Dir() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dir
}

// Every entry point renders its key's canonical line once and hands that
// line to the store helpers below, which never re-render it.

// storePath is the store filename for a canonical key line: its
// fingerprint as 16 hex digits. Distinct keys can collide on a
// fingerprint in principle; the embedded canonical key disambiguates at
// read time (a mismatch is a stale miss, never a wrong hit).
func storePath(dir, canon string) string {
	name := appendHex16(make([]byte, 0, 16+len(".mpr1")), fingerprint(canon))
	return filepath.Join(dir, string(append(name, ".mpr1"...)))
}

// loadStored tries the store file for a canonical key line. It returns
// the payload and true only for a complete, checksummed file whose
// embedded key line is byte-equal to canon — anything else (absent,
// truncated, corrupt, different sim version, fingerprint-colliding
// neighbor, non-canonical spelling of the same key) counts Stale when
// file bytes existed and reports a miss. DecodeFile would accept exactly
// the same key line for this key (ParseKey admits only canonical
// renderings), so the store path skips ParseKey.
func (c *Cache) loadStored(dir, canon string) ([]byte, bool) {
	b, err := readFile(storePath(dir, canon))
	if err != nil {
		return nil, false
	}
	stored, payload, err := decodeFrame(b)
	ok := err == nil && string(stored) == canon
	c.mu.Lock()
	c.stats.BytesRead += int64(len(b))
	if ok {
		c.stats.DiskLoads++
	} else {
		c.stats.Stale++
	}
	c.mu.Unlock()
	return payload, ok
}

// lookup is the one read path of every entry point: it returns canon's
// resident entry (possibly still in flight), or else loads its store file
// and pins the payload resident. It counts no Hit or Miss; loadStored
// counts the read. Without claim, a key neither holds returns nil. With
// claim, lookup installs an in-flight entry before it reads the store, so
// concurrent GetOrRun calls share one read and one compute; when the store
// misses too it returns that entry with owned set, and the caller must
// fill it.
func (c *Cache) lookup(canon string, claim bool) (e *entry, owned bool) {
	c.mu.Lock()
	e, ok := c.entries[canon]
	dir := c.dir
	if !ok && claim {
		e = &entry{ready: make(chan struct{})}
		c.entries[canon] = e
	}
	c.mu.Unlock()
	if ok {
		return e, false
	}
	var payload []byte
	if dir != "" {
		payload, ok = c.loadStored(dir, canon)
	}
	switch {
	case !ok:
		return e, claim
	case claim:
		e.payload = payload
		close(e.ready)
		return e, false
	}
	e = &entry{ready: make(chan struct{}), payload: payload}
	close(e.ready)
	c.mu.Lock()
	// Another goroutine may have raced an entry in; keep the first.
	if prev, exists := c.entries[canon]; exists {
		e = prev
	} else {
		c.entries[canon] = e
	}
	c.mu.Unlock()
	return e, false
}

// fill runs the compute for the in-flight entry e the caller owns,
// publishes the outcome to e's waiters and persists an accepted payload.
// A failed run or a payload valid rejects forgets the entry, so a later
// call retries. A heal (the recompute of a rejected payload) counts no
// Miss: GetOrRun counted it Stale instead.
func (c *Cache) fill(canon string, e *entry, run func() ([]byte, error), valid func([]byte) error, heal bool) ([]byte, error) {
	payload, err := run()
	if err == nil {
		err = valid(payload)
	}
	c.mu.Lock()
	if !heal {
		c.stats.Misses++
	}
	e.payload, e.err = payload, err
	if err != nil && c.entries[canon] == e {
		delete(c.entries, canon)
	}
	dir := c.dir
	c.mu.Unlock()
	close(e.ready)
	if err != nil {
		return nil, err
	}
	if dir != "" {
		c.persist(dir, canon, payload)
	}
	return payload, nil
}

// persist writes the framed entry atomically next to its final name,
// counting the write in Persisted or, when any step fails, FailedWrites.
func (c *Cache) persist(dir, canon string, payload []byte) {
	framed := encodeFrame(canon, payload)
	err := writeAtomic(dir, storePath(dir, canon), framed)
	c.mu.Lock()
	if err != nil {
		c.stats.FailedWrites++
	} else {
		c.stats.Persisted++
		c.stats.BytesWritten += int64(len(framed))
	}
	c.mu.Unlock()
}

// writeAtomic writes b to path through a temp file in dir and a rename.
func writeAtomic(dir, path string, b []byte) error {
	tmp, err := os.CreateTemp(dir, ".mpr-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Probe reports whether key would hit: resident in memory, in flight, or
// loadable from the store (in which case the entry is pinned resident, so
// a subsequent GetOrRun is guaranteed to hit without touching the disk
// again). Probe itself never counts a Hit or Miss; callers use it to plan
// work.
func (c *Cache) Probe(key CellKey) bool {
	e, _ := c.lookup(key.Canonical(), false)
	return e != nil
}

// Serve answers, without computing anything, the n cells of a batch that
// share key: from memory (waiting for a compute in flight) or from the
// store, pinning the entry resident. accept, the batch's payload decoder,
// must take the payload; Serve then counts n Hits and returns true. A key
// it cannot answer returns false and counts only the store read, as Probe
// would. A rejected payload stays resident, so the GetOrRun that follows
// for those cells counts its Hit and Stale and heals the store.
func (c *Cache) Serve(key CellKey, n int, accept func([]byte) error) bool {
	e, _ := c.lookup(key.Canonical(), false)
	if e == nil {
		return false
	}
	<-e.ready
	if e.err != nil || accept(e.payload) != nil {
		return false
	}
	c.mu.Lock()
	c.stats.Hits += n
	c.mu.Unlock()
	return true
}

// GetOrRun returns key's payload, serving it from memory or the disk
// store, or computing it with run on a miss (then pinning it resident and
// persisting it when a store is configured). Concurrent calls for one key
// are single-flight: the first runs, the rest wait for its outcome. If
// run fails, every waiter receives the error and the entry is forgotten,
// so a later call retries.
//
// Each of checks (typically the one payload decoder) must accept the
// payload. A served payload one rejects (impossible for entries this
// process wrote; conceivable for a hand-edited store mid-run) is counted
// Stale and recomputed with run, single-flight like a miss, and the fresh
// payload replaces it resident and heals the store: the cache never fails
// a run. A payload this call computed itself is never recomputed, so run
// is called at most once per call; if a check rejects it, the call fails
// and the entry is forgotten.
func (c *Cache) GetOrRun(key CellKey, run func() ([]byte, error), checks ...func([]byte) error) ([]byte, error) {
	valid := func(payload []byte) error {
		for _, check := range checks {
			if err := check(payload); err != nil {
				return err
			}
		}
		return nil
	}
	canon := key.Canonical()
	e, owned := c.lookup(canon, true)
	if owned {
		return c.fill(canon, e, run, valid, false)
	}
	c.mu.Lock()
	c.stats.Hits++
	c.mu.Unlock()
	for {
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		if valid(e.payload) == nil {
			return e.payload, nil
		}
		c.mu.Lock()
		if cur, ok := c.entries[canon]; ok && cur != e {
			// Another call already replaced the rejected entry.
			c.mu.Unlock()
			e = cur
			continue
		}
		c.stats.Stale++
		e = &entry{ready: make(chan struct{})}
		c.entries[canon] = e
		c.mu.Unlock()
		return c.fill(canon, e, run, valid, true)
	}
}

// ResultCell is GetOrRun specialized to KindResult payloads: compute is a
// simulation cell returning stats.Result, and cached payloads decode back
// field-identically.
func (c *Cache) ResultCell(key CellKey, run func() (stats.Result, error)) (stats.Result, error) {
	var r stats.Result
	_, err := c.GetOrRun(key, func() ([]byte, error) {
		res, err := run()
		if err != nil {
			return nil, err
		}
		return EncodeResult(res), nil
	}, func(payload []byte) (err error) {
		r, err = DecodeResult(payload)
		return err
	})
	if err != nil {
		return stats.Result{}, err
	}
	return r, nil
}

// Put installs a payload computed elsewhere (a distributed worker, a
// checkpoint restore) as if GetOrRun had computed it here: the entry is
// pinned resident and persisted when a store is configured. First write
// wins — an existing resident entry (including one in flight) is kept, so
// Put can never change a value a caller already observed. Callers are
// responsible for the payload's integrity; transport layers verify the
// MPR1 frame checksum and key before handing payloads to Put.
func (c *Cache) Put(key CellKey, payload []byte) {
	canon := key.Canonical()
	c.mu.Lock()
	if _, ok := c.entries[canon]; ok {
		c.mu.Unlock()
		return
	}
	e := &entry{ready: make(chan struct{}), payload: payload}
	close(e.ready)
	c.entries[canon] = e
	dir := c.dir
	c.mu.Unlock()
	if dir != "" {
		c.persist(dir, canon, payload)
	}
}

// Lookup returns key's payload without computing anything: resident
// entries and loadable store files answer (pinning the entry resident,
// like Probe); absent or in-flight cells report false immediately —
// Lookup never blocks on another goroutine's compute. No Hit or Miss is
// counted; coordinators use it to adopt prior results without perturbing
// the run's own statistics.
func (c *Cache) Lookup(key CellKey) ([]byte, bool) {
	e, _ := c.lookup(key.Canonical(), false)
	if e == nil {
		return nil, false
	}
	select {
	case <-e.ready:
		if e.err == nil {
			return e.payload, true
		}
	default:
	}
	return nil, false
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Sub returns the counter deltas since a prior snapshot — what happened
// between two Stats calls, e.g. during one figure of a sweep.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Hits:         s.Hits - prev.Hits,
		Misses:       s.Misses - prev.Misses,
		DiskLoads:    s.DiskLoads - prev.DiskLoads,
		Stale:        s.Stale - prev.Stale,
		Persisted:    s.Persisted - prev.Persisted,
		BytesRead:    s.BytesRead - prev.BytesRead,
		BytesWritten: s.BytesWritten - prev.BytesWritten,
		FailedWrites: s.FailedWrites - prev.FailedWrites,
	}
}

// String renders the counters in the one-line greppable form the commands
// print: "hits=H misses=M stale=S read=RB written=WB failed_writes=F".
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d stale=%d read=%dB written=%dB failed_writes=%d",
		s.Hits, s.Misses, s.Stale, s.BytesRead, s.BytesWritten, s.FailedWrites)
}
