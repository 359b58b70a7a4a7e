package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dram"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/tracecache"
)

// cacheTestConfig is tinyConfig shrunk further: the differential suites
// below multiply it by mechanisms × spec pairs, so every request saved
// counts.
func cacheTestConfig() Config {
	c := QuickConfig()
	c.Requests = 20_000
	c.Workloads = selectWorkloads("cactus", "mix5")
	return c
}

// TestMatrixCachedEqualsFresh is the correctness argument for the result
// cache: for every mechanism over several spec presets, a matrix run
// through a cache — cold (populating) and warm (serving) — must be
// field-identical to an uncached run. The cache may only remove work.
func TestMatrixCachedEqualsFresh(t *testing.T) {
	pairs := [][2]string{{"HBM", "DDR4-1600"}, {"HBM2", "DDR5-4800"}}
	for _, pair := range pairs {
		pair := pair
		t.Run(pair[0]+"+"+pair[1], func(t *testing.T) {
			c := cacheTestConfig()
			fast, slow := dram.MustPreset(pair[0]), dram.MustPreset(pair[1])
			builders := c.baselineBuilders(fast, slow)

			fresh := c // Results nil: simulate every cell
			want, err := fresh.matrix(builders)
			if err != nil {
				t.Fatal(err)
			}

			cold := c
			cold.Results = resultcache.New()
			got, err := cold.matrix(builders)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("cold cached matrix differs from fresh:\nfresh: %+v\ncached: %+v", want, got)
			}
			if s := cold.Results.Stats(); s.Hits != 0 || s.Misses != len(builders)*len(c.Workloads) {
				t.Fatalf("cold pass stats: %+v", s)
			}

			warm := cold // same cache, now populated
			got, err = warm.matrix(builders)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("warm cached matrix differs from fresh")
			}
			if s := warm.Results.Stats(); s.Misses != len(builders)*len(c.Workloads) {
				t.Fatalf("warm pass simulated: %+v", s)
			}
		})
	}
}

// TestFig8CrossProcessCacheReuse simulates the CI two-pass run: a second
// process (modeled by a fresh Cache instance over the same directory)
// must serve every cell from the store — zero misses — and render a
// bit-identical table. Parallelism exercises the single-flight and probe
// paths under the race detector.
func TestFig8CrossProcessCacheReuse(t *testing.T) {
	dir := t.TempDir()

	first := cacheTestConfig()
	first.Parallelism = 4
	first.Results = resultcache.New()
	first.Results.SetDir(dir)
	want, err := first.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	fs := first.Results.Stats()
	if fs.Misses == 0 || fs.Hits != 0 || fs.Persisted != fs.Misses {
		t.Fatalf("first pass stats: %+v", fs)
	}

	second := cacheTestConfig()
	second.Parallelism = 4
	second.Results = resultcache.New()
	second.Results.SetDir(dir)
	got, err := second.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	ss := second.Results.Stats()
	if ss.Misses != 0 || ss.Stale != 0 {
		t.Fatalf("second pass simulated or rejected entries: %+v", ss)
	}
	if ss.Hits != fs.Misses {
		t.Fatalf("second pass hits = %d, want %d (one per first-pass cell)", ss.Hits, fs.Misses)
	}
	if got.String() != want.String() || got.CSV() != want.CSV() {
		t.Fatalf("warm table differs from cold:\ncold:\n%s\nwarm:\n%s", want, got)
	}
}

// TestMatrixStaleStoreRegenerates is the staleness contract end to end:
// corrupting every store file must never surface as an error or a changed
// number — the cells resimulate, match the originals, and heal the store.
func TestMatrixStaleStoreRegenerates(t *testing.T) {
	dir := t.TempDir()
	c := cacheTestConfig()
	builders := c.baselineBuilders(dram.HBM(), dram.DDR4_1600())[:3]

	first := c
	first.Results = resultcache.New()
	first.Results.SetDir(dir)
	want, err := first.matrix(builders)
	if err != nil {
		t.Fatal(err)
	}

	files, err := filepath.Glob(filepath.Join(dir, "*.mpr1"))
	if err != nil || len(files) == 0 {
		t.Fatalf("store files: %v (err %v)", files, err)
	}
	for _, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(f, info.Size()/2); err != nil {
			t.Fatal(err)
		}
	}

	second := c
	second.Results = resultcache.New()
	second.Results.SetDir(dir)
	got, err := second.matrix(builders)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("regenerated matrix differs from original")
	}
	// Every cell resimulated; each truncated file was rejected at least
	// once (the probe pass and the run may both reject it).
	s := second.Results.Stats()
	if s.Stale < len(files) || s.Misses != len(files) || s.Hits != 0 {
		t.Fatalf("stale-store stats: %+v (files %d)", s, len(files))
	}

	// The regeneration must also have healed the store.
	third := c
	third.Results = resultcache.New()
	third.Results.SetDir(dir)
	if _, err := third.matrix(builders); err != nil {
		t.Fatal(err)
	}
	if s := third.Results.Stats(); s.Misses != 0 || s.Stale != 0 {
		t.Fatalf("store not healed: %+v", s)
	}
}

// TestFig6Fig7ShareCells pins the cross-experiment dedupe the cache
// exists for: Figure 7's 16-bit column is Figure 6's design points, so a
// shared cache must serve part of Fig7 without simulating.
func TestFig6Fig7ShareCells(t *testing.T) {
	c := cacheTestConfig()
	c.Results = resultcache.New()
	if _, err := c.Fig6(); err != nil {
		t.Fatal(err)
	}
	after6 := c.Results.Stats()
	if after6.Hits != 0 {
		t.Fatalf("fig6 alone hit: %+v", after6)
	}
	if _, err := c.Fig7(); err != nil {
		t.Fatal(err)
	}
	after7 := c.Results.Stats()
	if hits := after7.Hits - after6.Hits; hits == 0 {
		t.Fatalf("fig7 shared no cells with fig6: %+v", after7)
	}
}

// TestOracleStudyCachedEqualsFresh extends the differential guarantee to
// the §3 offline study, which caches its per-workload oracle rows under a
// separate payload kind.
func TestOracleStudyCachedEqualsFresh(t *testing.T) {
	dir := t.TempDir()
	c := cacheTestConfig()

	want, err := c.OracleStudy() // uncached
	if err != nil {
		t.Fatal(err)
	}

	cold := c
	cold.Results = resultcache.New()
	cold.Results.SetDir(dir)
	got, err := cold.OracleStudy()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("cold cached oracle study differs from fresh")
	}
	if s := cold.Results.Stats(); s.Misses != len(c.Workloads) || s.Hits != 0 {
		t.Fatalf("cold oracle stats: %+v", s)
	}

	warm := c
	warm.Results = resultcache.New()
	warm.Results.SetDir(dir)
	got, err = warm.OracleStudy()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("warm cached oracle study differs from fresh")
	}
	if s := warm.Results.Stats(); s.Misses != 0 || s.Hits != len(c.Workloads) {
		t.Fatalf("warm oracle stats: %+v", s)
	}
}

// TestResultDirTransientCache checks the Config.ResultDir convenience
// path: a directory alone (no shared Cache) still persists and reuses
// cells across independently-built configs.
func TestResultDirTransientCache(t *testing.T) {
	dir := t.TempDir()
	c := cacheTestConfig()
	c.ResultDir = dir
	builders := c.baselineBuilders(dram.HBM(), dram.DDR4_1600())[:2]

	want, err := c.matrix(builders)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.mpr1"))
	if err != nil || len(files) != len(builders)*len(c.Workloads) {
		t.Fatalf("persisted %d files, want %d (err %v)", len(files), len(builders)*len(c.Workloads), err)
	}

	// A second pass over the same directory serves from the store: results
	// equal and no new files appear (a resimulated cell would rewrite one).
	got, err := c.matrix(builders)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("ResultDir reuse differs from original")
	}
	after, _ := filepath.Glob(filepath.Join(dir, "*.mpr1"))
	if len(after) != len(files) {
		t.Fatalf("second pass changed the store: %d -> %d files", len(files), len(after))
	}
}

// TestCellsHealUndecodablePayloads pins the executor's one fallback for
// every payload kind: a store whose frames check out but whose payloads do
// not decode must neither fail the run nor change a number. Each cell
// recomputes once (declaring its trace use like any cell the serve pass
// left unserved) and heals the store, for matrix, oracle and distributed
// cells alike.
func TestCellsHealUndecodablePayloads(t *testing.T) {
	c := cacheTestConfig()
	c.Requests = 30_000 // enough for at least one oracle interval
	builders := c.baselineBuilders(dram.HBM(), dram.DDR4_1600())[:2]
	plan, err := BuildPlan([]Job{{Experiment: "fig1", Params: c.Params()}})
	if err != nil {
		t.Fatal(err)
	}
	indices := []int{0, 1}
	for _, tc := range []struct {
		name  string
		cells []planCell
		run   func(c Config) (any, error)
	}{
		{"matrix", c.resultCells(builders), func(c Config) (any, error) { return c.matrix(builders) }},
		{"oracle", c.oracleCells(), func(c Config) (any, error) { return c.OracleStudy() }},
		{"distributed", c.oracleCells(), func(c Config) (any, error) {
			runs := plan.RunCells(indices, RunCellsOptions{Results: c.Results})
			for _, r := range runs {
				if r.Err != nil {
					return nil, r.Err
				}
			}
			return runs, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.run(c)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			for _, cell := range tc.cells {
				name := filepath.Join(dir, fmt.Sprintf("%016x.mpr1", cell.key.Fingerprint()))
				if err := os.WriteFile(name, resultcache.EncodeFile(cell.key, []byte("not a payload")), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for pass, wantStale := range []int{len(tc.cells), 0} {
				cc := c
				cc.Results = resultcache.New()
				cc.Results.SetDir(dir)
				got, err := tc.run(cc)
				if err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("pass %d differs from a fresh run", pass)
				}
				if s := cc.Results.Stats(); s.Misses != 0 || s.Stale != wantStale {
					t.Fatalf("pass %d stats %+v, want no misses and %d stale", pass, s, wantStale)
				}
			}
		})
	}
}

// TestWarmCacheServeStats pins what a warm re-run reads and counts. A cold
// pass populates a store with matrix cells (Fig6, then Fig7 on the same
// handle, which repeats Fig6's design points), the oracle study and a
// distributed lease that names one cell twice. Fresh handles over that
// store then re-run the same batches at several parallelisms with every
// compute function panicking: each must serve field-identical results and
// count exactly the recorded statistics, one Hit per cell and one disk
// load per distinct key read.
func TestWarmCacheServeStats(t *testing.T) {
	c := cacheTestConfig()
	c.Requests = 30_000 // enough for at least one oracle interval
	fig6, err := c.buildersFor("fig6")
	if err != nil {
		t.Fatal(err)
	}
	fig7, err := c.buildersFor("fig7")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan([]Job{{Experiment: "fig8", Params: c.Params()}})
	if err != nil {
		t.Fatal(err)
	}
	lease := []int{0, 3, 0, 5}
	decodeResult := func(cell planCell, payload []byte) (any, error) {
		r, err := resultcache.DecodeResult(payload)
		r.Mechanism = cell.name
		return r, err
	}
	decodeOracleCell := func(_ planCell, payload []byte) (any, error) { return decodeOracle(payload) }

	// run runs the batches in order on one handle; warm makes every
	// compute function panic.
	run := func(rc *resultcache.Cache, parallelism int, warm bool) [][]runner.Result[any] {
		t.Helper()
		cells := func(cs []planCell) []planCell {
			if !warm {
				return cs
			}
			out := append([]planCell(nil), cs...)
			for i := range out {
				key := out[i].key
				out[i].compute = func(*tracecache.Cache, int) ([]byte, error) {
					panic("warm pass computed " + key.Canonical())
				}
			}
			return out
		}
		opts := RunCellsOptions{Results: rc, Parallelism: parallelism}
		var out [][]runner.Result[any]
		for _, b := range []struct {
			cells  []planCell
			decode func(planCell, []byte) (any, error)
		}{
			{c.resultCells(fig6), decodeResult},
			{c.resultCells(fig7), decodeResult},
			{c.oracleCells(), decodeOracleCell},
		} {
			res, err := runCells(cells(b.cells), opts, nil, b.decode)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		p := &Plan{jobs: plan.jobs, cells: cells(plan.cells)}
		var frames []runner.Result[any]
		for _, r := range p.RunCells(lease, opts) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			frames = append(frames, runner.Result[any]{Value: r.Frame})
		}
		return append(out, frames)
	}

	dir := t.TempDir()
	cold := resultcache.New()
	cold.SetDir(dir)
	want := run(cold, 2, false)
	for _, parallelism := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("j=%d", parallelism), func(t *testing.T) {
			warm := resultcache.New()
			warm.SetDir(dir)
			got := run(warm, parallelism, true)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("warm results differ from the cold pass")
			}
			s := warm.Stats()
			s = resultcache.Stats{Hits: s.Hits, Misses: s.Misses, DiskLoads: s.DiskLoads, Stale: s.Stale, BytesRead: s.BytesRead}
			if wantStats := (resultcache.Stats{Hits: 86, DiskLoads: 81, BytesRead: 46248}); s != wantStats {
				t.Fatalf("warm stats %#v, want %#v", s, wantStats)
			}
		})
	}
}

// TestWarmCacheProgress checks that Config.Progress counts every cell of
// a matrix, cold or served from a warm store: done runs from 1 to the
// cell count in steps of one.
func TestWarmCacheProgress(t *testing.T) {
	c := cacheTestConfig()
	c.Parallelism = 2
	dir := t.TempDir()
	for _, pass := range []string{"cold", "warm"} {
		c.Results = resultcache.New()
		c.Results.SetDir(dir)
		var calls []int
		total := 0
		c.Progress = func(done, tot int) {
			calls = append(calls, done) // serialized by the executor
			total = tot
		}
		if _, err := c.Fig8(); err != nil {
			t.Fatal(err)
		}
		want := 6 * len(c.Workloads) // Fig8's six systems per workload
		if total != want || len(calls) != want {
			t.Fatalf("%s: %d progress calls, total %d; want %d", pass, len(calls), total, want)
		}
		for i, d := range calls {
			if d != i+1 {
				t.Fatalf("%s: progress not 1..%d in steps of one: %v", pass, want, calls)
			}
		}
		if s := c.Results.Stats(); pass == "warm" && (s.Misses != 0 || s.Hits != want) {
			t.Fatalf("warm pass stats %+v, want %d hits and no misses", s, want)
		}
	}
}
