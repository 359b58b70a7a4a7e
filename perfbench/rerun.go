package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/exp"
	"repro/internal/report"
	"repro/internal/resultcache"
)

// rerunWarm re-renders experiment tables against a result store an earlier
// process populated. Each pass opens a fresh cache handle over the store —
// the cross-process path — so it measures the resultcache read path (probe,
// file read, checksum, decode) plus exp table assembly; nothing simulates.
type rerunWarm struct {
	ids   []string
	store string
	want  map[string]string // each table as the populating run rendered it
}

func newRerunWarm() *rerunWarm { return &rerunWarm{ids: exp.ExperimentIDs()} }

func (r *rerunWarm) setupReps() int { return 2 }

// setup populates a fresh store by rendering every table once.
func (r *rerunWarm) setup(e *env) error {
	if r.store != "" {
		os.RemoveAll(r.store)
	}
	var err error
	if r.store, err = e.dir("store"); err != nil {
		return err
	}
	rc := resultcache.New()
	rc.SetDir(r.store)
	r.want = make(map[string]string, len(r.ids))
	for _, id := range r.ids {
		cfg := quickConfig(id, e.seed)
		cfg.Results = rc
		t, err := cfg.Experiment(id)
		if err != nil {
			return err
		}
		r.want[id] = t.String()
	}
	return nil
}

func (r *rerunWarm) prepare(e *env) error { return nil }

func (r *rerunWarm) pass(e *env, tr *tracer) (passResult, error) {
	start := time.Now()
	rc := resultcache.New()
	rc.SetDir(r.store)
	tables, cells, reqs := r.render(e, rc, tr, "exp.")
	wall := time.Since(start)
	for _, id := range r.ids {
		if tables[id] == nil {
			continue
		}
		if got := tables[id].String(); got != r.want[id] {
			e.fail(cells[id], "%s: warm re-render differs from the populating run", id)
		}
	}
	if tr != nil {
		e.set("resultcache.bytes_read", float64(rc.Stats().BytesRead))
		// Render again on the same handle: every cell is now resident.
		rstart := time.Now()
		r.render(e, rc, tr, "exp.resident.")
		e.set("exp.render_ms", float64(time.Since(rstart).Nanoseconds())/1e6)
		if err := readProbe(e, r.store, r.ids, tr); err != nil {
			return passResult{}, err
		}
	}
	return passResult{wall: wall, simReqs: reqs, fig8: fig8MemPod(e, tables["fig8"])}, nil
}

// render renders every table through rc and returns them with the cells each
// served and the simulated requests those cells stand for. A cell the cache
// had to compute is a miss and counts as failed.
func (r *rerunWarm) render(e *env, rc *resultcache.Cache, tr *tracer, span string) (map[string]*report.Table, map[string]int, float64) {
	tables := make(map[string]*report.Table, len(r.ids))
	cells := make(map[string]int, len(r.ids))
	var reqs float64
	for _, id := range r.ids {
		cfg := quickConfig(id, e.seed)
		cfg.Results = rc
		before := rc.Stats()
		var t *report.Table
		var err error
		tr.do(span+id, -1, func() { t, err = cfg.Experiment(id) })
		d := rc.Stats().Sub(before)
		n := d.Hits + d.Misses
		cells[id] = n
		e.attempted += n
		reqs += float64(d.Hits) * float64(cfg.Requests)
		switch {
		case err != nil:
			e.fail(n, "%s: %v", id, err)
			continue
		case d.Misses > 0:
			e.fail(d.Misses, "%s: %d cells missed the warm store", id, d.Misses)
		}
		tables[id] = t
	}
	return tables, cells, reqs
}

var errNotCached = errors.New("cell not in the store")

// readProbe times the two read-path steps per cell over a fresh handle:
// Probe (file read, checksum and key check, pinning the entry) and the
// resident hit that follows it.
func readProbe(e *env, store string, ids []string, tr *tracer) error {
	var jobs []exp.Job
	for _, id := range ids {
		jobs = append(jobs, exp.Job{Experiment: id, Params: quickConfig(id, e.seed).Params()})
	}
	plan, err := exp.BuildPlan(jobs)
	if err != nil {
		return err
	}
	rc := resultcache.New()
	rc.SetDir(store)
	var probe, hit []float64
	for i := 0; i < plan.Len(); i++ {
		key := plan.Key(i)
		var ok bool
		start := time.Now()
		tr.do("resultcache.probe", -1, func() { ok = rc.Probe(key) })
		probe = append(probe, float64(time.Since(start).Nanoseconds())/1e3)
		start = time.Now()
		tr.do("resultcache.hit", -1, func() {
			_, err = rc.GetOrRun(key, func() ([]byte, error) { return nil, errNotCached })
		})
		hit = append(hit, float64(time.Since(start).Nanoseconds())/1e3)
		if !ok || err != nil {
			e.fail(1, "probe of %s: present=%v err=%v", key.Canonical(), ok, err)
		}
	}
	e.attempted += plan.Len()
	if plan.Len() == 0 {
		return fmt.Errorf("read probe: empty plan")
	}
	e.set("resultcache.probe_us", median(probe))
	e.set("resultcache.hit_us", median(hit))
	return nil
}
