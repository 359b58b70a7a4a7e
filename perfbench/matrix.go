package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/report"
	"repro/internal/resultcache"
	"repro/internal/tracecache"
)

// matrixCold is the cold experiments matrix: full-scale Figure 8 (27
// workloads × 6 mechanisms at 2M requests), as `experiments -full -only
// fig8 -j 2` runs it, against a fresh, empty result store.
type matrixCold struct {
	cfg  exp.Config
	plan *exp.Plan
	want string // the expected table for this workload seed
}

func (m *matrixCold) setupReps() int { return 5 }

// setup builds the Fig8 plan: the cell list the matrix will compute.
func (m *matrixCold) setup(e *env) error {
	m.cfg = exp.DefaultConfig()
	m.cfg.Seed = e.seed
	m.cfg.Parallelism = parallelism
	var err error
	m.plan, err = exp.BuildPlan([]exp.Job{{Experiment: "fig8", Params: m.cfg.Params()}})
	return err
}

func expectedFig8(e *env) string {
	return filepath.Join(e.root, "perfbench", "testdata", fmt.Sprintf("fig8-seed%d.txt", e.seed))
}

func (m *matrixCold) prepare(e *env) error {
	if e.update {
		return nil
	}
	b, err := os.ReadFile(expectedFig8(e))
	m.want = string(b)
	return err
}

func (m *matrixCold) pass(e *env, tr *tracer) (passResult, error) {
	got, t, wall, err := coldMatrix(e, m.cfg, "fig8", m.plan, tr)
	if err != nil {
		return passResult{}, err
	}
	if e.update {
		if err := os.WriteFile(expectedFig8(e), []byte(got), 0o644); err != nil {
			return passResult{}, err
		}
		m.want = got
	}
	checkTable(e, "fig8", got, m.want, 6)
	return passResult{
		wall:    wall,
		simReqs: float64(m.plan.Len() * m.cfg.Requests),
		fig8:    fig8MemPod(e, t),
	}, nil
}

// coldMatrix renders experiment id under cfg against a fresh, empty result
// store, so every cell simulates and persists. It returns the table, its
// text and the time to result. A failed experiment counts all of plan's
// cells as failed. With a tracer it also measures the runner, tracecache
// and resultcache write-path layer metrics.
func coldMatrix(e *env, cfg exp.Config, id string, plan *exp.Plan, tr *tracer) (string, *report.Table, time.Duration, error) {
	store, err := e.dir("store")
	if err != nil {
		return "", nil, 0, err
	}
	defer os.RemoveAll(store)
	rc := resultcache.New()
	rc.SetDir(store)
	cfg.Results = rc
	var traces *tracecache.Cache
	var done []time.Duration
	start := time.Now()
	if tr != nil {
		traces = tracecache.New()
		cfg.Traces = traces
		cfg.Progress = func(int, int) { done = append(done, time.Since(start)) }
	}
	e.attempted += plan.Len()
	var t *report.Table
	tr.do("exp."+id, -1, func() { t, err = cfg.Experiment(id) })
	wall := time.Since(start)
	if err != nil {
		e.fail(plan.Len(), "%s: %v", id, err)
		return "", nil, wall, nil
	}
	if tr != nil {
		busy, tail := runnerShape(done, wall, cfg.Parallelism)
		e.set("runner.busy_frac", busy)
		e.set("runner.tail_s", tail)
		ts := traces.Stats()
		e.set("tracecache.generated", float64(ts.Generated))
		e.set("tracecache.peak_resident", float64(ts.Peak))
		rs := rc.Stats()
		e.set("resultcache.misses", float64(rs.Misses))
		e.set("resultcache.bytes_written", float64(rs.BytesWritten))
		if err := persistProbe(e, rc, plan, tr); err != nil {
			return "", nil, wall, err
		}
	}
	return t.String(), t, wall, nil
}

// persistProbe times resultcache.Put of every cell the matrix computed into
// another fresh store: the write path (encode, temp file, rename) on its own.
func persistProbe(e *env, from *resultcache.Cache, plan *exp.Plan, tr *tracer) error {
	store, err := e.dir("persist")
	if err != nil {
		return err
	}
	defer os.RemoveAll(store)
	to := resultcache.New()
	to.SetDir(store)
	var us []float64
	for i := 0; i < plan.Len(); i++ {
		key := plan.Key(i)
		payload, ok := from.Lookup(key)
		if !ok {
			e.fail(1, "cell %s missing from the store after the matrix", key.Canonical())
			continue
		}
		start := time.Now()
		tr.do("resultcache.put", -1, func() { to.Put(key, payload) })
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	e.set("resultcache.persist_us", median(us))
	return nil
}

// runnerShape derives the pool's busy fraction and tail from cell completion
// times. Once the queue is empty (after completion n-p+1) workers go idle one
// by one; the tail is the time from then to the last completion.
func runnerShape(done []time.Duration, wall time.Duration, p int) (busy, tail float64) {
	n := len(done)
	if n == 0 || p <= 0 {
		return 0, 0
	}
	first := n - p
	if first < 0 {
		first = 0
	}
	var idle time.Duration
	for j := first; j < n-1; j++ {
		idle += (done[j+1] - done[j]) * time.Duration(j-first+1)
	}
	idle += (wall - done[n-1]) * time.Duration(p)
	return 1 - idle.Seconds()/(float64(p)*wall.Seconds()), (done[n-1] - done[first]).Seconds()
}

// checkTable compares a rendered table with its reference line by line and
// counts cellsPerLine failed cells for every line that differs.
func checkTable(e *env, id, got, want string, cellsPerLine int) {
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	bad := 0
	for i := 0; i < len(g) || i < len(w); i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			bad++
		}
	}
	e.fail(bad*cellsPerLine, "%s: %d table lines differ from the reference", id, bad)
}

// fig8MemPod reads MemPod's AVG ALL normalised AMMAT from a rendered
// Figure 8 table.
func fig8MemPod(e *env, t *report.Table) float64 {
	if t == nil {
		return 0
	}
	col := -1
	for i, c := range t.Columns {
		if c == "MemPod" {
			col = i
		}
	}
	for _, row := range t.Rows {
		if len(row) > col && col >= 0 && row[0] == "AVG ALL" {
			v, err := strconv.ParseFloat(strings.TrimSpace(row[col]), 64)
			if err == nil {
				return v
			}
		}
	}
	e.fail(1, "%s: no AVG ALL MemPod value", t.ID)
	return 0
}

// quickConfig is experiment id's quick-scale configuration at the run's
// workload seed.
func quickConfig(id string, seed int64) exp.Config {
	c := exp.ConfigFor(id, false)
	c.Seed = seed
	c.Parallelism = parallelism
	return c
}
