// Package exp implements the paper's evaluation: one function per table
// and figure of §3 and §6, each returning a report.Table that regenerates
// the published rows/series from this repository's simulator.
//
// Absolute numbers differ from the paper (the substrate is our simulator
// and synthetic traces, not the authors' Ramulator + SPEC setup); the
// shapes — who wins, by roughly what factor, where crossovers fall — are
// the reproduction target. EXPERIMENTS.md records paper-vs-measured for
// every experiment.
package exp

import (
	"fmt"
	"strconv"

	"repro/internal/addr"
	"repro/internal/cameo"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/hma"
	"repro/internal/resultcache"
	"repro/internal/stats"
	"repro/internal/thm"
	"repro/internal/trace"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// Config scales the experiments. The zero value is not usable; start from
// DefaultConfig (full runs, ~minutes each on one core) or QuickConfig
// (seconds, for tests and benchmarks).
type Config struct {
	// Requests is the trace length per workload.
	Requests int
	// Seed makes every trace deterministic.
	Seed int64
	// Workloads is the evaluated set (default: the paper's 27).
	Workloads []workload.Workload

	// FastSpec/SlowSpec name the memory specs (dram.Preset names) the
	// baseline experiments run on; empty selects the paper pair
	// (HBM + DDR4-1600). Fig10 ignores them — it is defined as the
	// future-technology pair. Unknown names surface as an error from the
	// experiment that resolved them, tagged with the experiment's name.
	FastSpec string
	SlowSpec string

	// HMAInterval/HMASortStall/HMAMaxMigrations scale HMA to the trace
	// length. The paper's 100 ms / 7 ms cannot fire even once inside a
	// trace shorter than 100 ms of simulated time, so the default keeps
	// the paper's 2000:1 interval ratio directionally (200:1) and its 7%
	// sort duty cycle. See EXPERIMENTS.md ("HMA scaling").
	HMAInterval      clock.Duration
	HMASortStall     clock.Duration
	HMAMaxMigrations int

	// Parallelism bounds how many simulation cells run concurrently in
	// matrix experiments (Figures 6–10, the ablations, the oracle study).
	// Zero selects GOMAXPROCS; one forces serial execution. Results are
	// identical for any value: cells are fully independent
	// (Cell.Run builds a fresh memsys/backend/engine per cell) and
	// are assembled in a fixed order by internal/runner.
	Parallelism int
	// Progress, when non-nil, is invoked after each simulation cell of a
	// matrix completes, with the count done so far and the matrix total.
	// Invocations are serialized across workers.
	Progress func(done, total int)

	// Traces, when non-nil, is the snapshot cache matrix and oracle runs
	// acquire their generated traces from; nil makes each run create a
	// transient cache of its own. Sharing one cache across sequential runs
	// aggregates its statistics (tests use this to assert the residency
	// bound); it does not retain snapshots between runs — every batch
	// declares exact use counts and frees each snapshot at its last use.
	Traces *tracecache.Cache

	// Results, when non-nil, is the content-addressed result cache matrix
	// and oracle runs consult before simulating a cell (and publish fresh
	// cells to). Cells are keyed by their complete causal identity — see
	// resultcache.CellKey — so any cache state produces field-identical
	// results to a cache-less run; only the work changes. Sharing one cache
	// across sequential experiments dedupes their overlapping design points
	// (Fig6 and Fig7 share MemPod configurations, Fig8 and the energy table
	// share entire matrices). Nil with an empty ResultDir disables result
	// caching entirely.
	Results *resultcache.Cache
	// ResultDir, when non-empty, enables the result disk store
	// (resultcache.Cache.SetDir) for runs that create their own transient
	// cache: cell results persist there as MPR1 files and short-circuit
	// later processes' matching cells. Ignored when Results is set
	// (configure the shared cache directly in that case).
	ResultDir string
}

// DefaultConfig returns the full-evaluation configuration.
func DefaultConfig() Config {
	return Config{
		Requests:         2_000_000,
		Seed:             42,
		Workloads:        workload.All(),
		HMAInterval:      10 * clock.Millisecond,
		HMASortStall:     700 * clock.Microsecond,
		HMAMaxMigrations: 4096,
	}
}

// QuickConfig returns a reduced configuration for tests and benchmarks:
// a handful of representative workloads and short traces. Shapes are
// noisier but the machinery is identical.
func QuickConfig() Config {
	c := DefaultConfig()
	c.Requests = 150_000
	c.HMAInterval = clock.Millisecond
	c.HMASortStall = 70 * clock.Microsecond
	c.HMAMaxMigrations = 1024
	c.Workloads = selectWorkloads("cactus", "bwaves", "xalanc", "mix5")
	return c
}

// WithWorkloads returns a copy of the config restricted to the named
// workloads (benchmark names or "mixN"). It panics on unknown names.
func (c Config) WithWorkloads(names ...string) Config {
	c.Workloads = selectWorkloads(names...)
	return c
}

// CheckWorkloads reports the first name in names that WithWorkloads
// would panic on, so command-line input can be rejected with an error.
func CheckWorkloads(names ...string) error {
	_, err := resolveWorkloads(names)
	return err
}

// selectWorkloads resolves workload names (benchmark names or "mixN").
// It panics on unknown names; resolveWorkloads is the error-returning form
// distributed workers use on untrusted specs.
func selectWorkloads(names ...string) []workload.Workload {
	out, err := resolveWorkloads(names)
	if err != nil {
		panic(err)
	}
	return out
}

func resolveWorkloads(names []string) ([]workload.Workload, error) {
	var out []workload.Workload
	for _, n := range names {
		var w workload.Workload
		var err error
		if len(n) > 3 && n[:3] == "mix" {
			i, perr := strconv.Atoi(n[3:])
			if perr != nil {
				return nil, fmt.Errorf("exp: bad workload name %q: %w", n, perr)
			}
			w, err = workload.Mix(i)
		} else {
			w, err = workload.Homogeneous(n)
		}
		if err != nil {
			return nil, fmt.Errorf("exp: workload %q: %w", n, err)
		}
		out = append(out, w)
	}
	return out, nil
}

// specPair resolves the config's named memory specs through the dram
// preset registry, defaulting to the paper pair. experiment tags the
// error so a bad -fast/-slow name names the figure that tripped on it
// (the registry error itself lists the valid options).
func (c Config) specPair(experiment string) (fast, slow dram.Spec, err error) {
	fast, slow, err = dram.PresetPair(c.FastSpec, c.SlowSpec)
	if err != nil {
		err = fmt.Errorf("exp: %s: %w", experiment, err)
	}
	return fast, slow, err
}

// builder is one column of an experiment matrix: a simulated system
// (Cell) and the display label its results carry. The label may differ
// between experiments for one design point — Fig6 numbers its grid
// points, Fig10 renames HBM-only — while the cache identity comes from
// the Cell alone, so equal design points hit one another's cache entries
// whatever an experiment labels them.
type builder struct {
	name string
	Cell
}

// Standard layouts of the evaluation.
func stdLayout() addr.Layout { return addr.DefaultLayout() }

// baselineBuilders returns the Figure 8 configurations over the given
// memory specs: no-migration TLM, the four mechanisms, and HBM-only.
func (c Config) baselineBuilders(fast, slow dram.Spec) []builder {
	cell := func(cfg any) Cell { return Cell{cfg, stdLayout(), fast, slow} }
	return []builder{
		{"TLM", cell(nil)},
		{"MemPod", cell(core.DefaultConfig())},
		{"HMA", cell(c.hmaConfig())},
		{"THM", cell(thm.DefaultConfig())},
		{"CAMEO", cell(cameo.DefaultConfig())},
		{"HBM-only", Cell{nil, addr.FastOnlyLayout(), fast, slow}},
	}
}

func (c Config) hmaConfig() hma.Config {
	cfg := hma.DefaultConfig()
	cfg.Interval = c.HMAInterval
	cfg.SortStall = c.HMASortStall
	cfg.MaxMigrations = c.HMAMaxMigrations
	return cfg
}

// cellOptions is the cache and pool configuration this config's cells
// run under: the shared caches when set, else a transient result cache
// over ResultDir (runCells makes a transient snapshot cache itself), and
// no result cache when neither Results nor ResultDir is set.
func (c Config) cellOptions() RunCellsOptions {
	opts := RunCellsOptions{Results: c.Results, Traces: c.Traces, Parallelism: c.Parallelism}
	if opts.Results == nil && c.ResultDir != "" {
		opts.Results = resultcache.New()
		opts.Results.SetDir(c.ResultDir)
	}
	return opts
}

// resultCells enumerates every (workload, builder) simulation cell in
// matrix submission order: workload-major, cells[wi*len(builders)+bi].
// A cell's key is its complete causal identity: the engine version,
// canonical mechanism config, both memory-spec fingerprints, layout
// geometry, and the exact generated trace (workload recipe name + length
// + seed). Anything that could change the cell's numbers is in there;
// execution shape (Parallelism) deliberately is not — the differential
// suites prove it bit-identical.
//
// Only the workload varies within a builder's column, so the rest — the
// spec fingerprints and the printed layout above all — is computed once
// per builder.
func (c Config) resultCells(builders []builder) []planCell {
	bases := make([]resultcache.CellKey, len(builders))
	for i, b := range builders {
		// An experiment's builders mostly share one spec pair and layout,
		// so reuse the previous builder's rendering of them when it can
		// (Cell.Key would re-render all three per builder).
		if prev := i - 1; prev >= 0 && b.Fast == builders[prev].Fast && b.Slow == builders[prev].Slow && b.Layout == builders[prev].Layout {
			bases[i] = bases[prev]
			bases[i].Mech = b.mechID()
		} else {
			bases[i] = b.Key()
		}
		bases[i].Requests, bases[i].Seed = c.Requests, c.Seed
	}
	cells := make([]planCell, 0, len(c.Workloads)*len(builders))
	for _, w := range c.Workloads {
		for bi, b := range builders {
			key := bases[bi]
			key.Workload = w.Name
			cells = append(cells, planCell{
				name: b.name,
				key:  key,
				tkey: c.traceKey(w),
				compute: func(traces *tracecache.Cache, uses int) ([]byte, error) {
					r, err := c.simulate(w, b, traces, uses)
					if err != nil {
						return nil, err
					}
					return resultcache.EncodeResult(r), nil
				},
			})
		}
	}
	return cells
}

// traceKey identifies w's generated trace under this config. Workload
// names uniquely identify recipes in the evaluated set, so the name (with
// the length and seed) pins the exact request sequence.
func (c Config) traceKey(w workload.Workload) tracecache.Key {
	return tracecache.Key{Workload: w.Name, Requests: c.Requests, Seed: c.Seed}
}

// acquireTrace borrows w's packed trace snapshot from the cache,
// generating and recording it on first use. uses is the total acquisition
// count the batch declared for this key.
func (c Config) acquireTrace(traces *tracecache.Cache, w workload.Workload, uses int) (*trace.Snapshot, func(), error) {
	return traces.Acquire(c.traceKey(w), uses, func() (*trace.Snapshot, error) {
		return w.Record(c.Requests, c.Seed)
	})
}

// simulate computes one (workload, builder) cell: it borrows the
// workload's trace snapshot and replays it under the builder's Cell, which
// constructs every piece of mutable state inside the cell. Cells share
// only the read-only Config and builder values plus the recorded snapshot,
// which is immutable after capture (each cell replays it through its own
// cursor). That isolation is what makes matrix safe to fan out across
// goroutines (asserted by TestMatrixParallelDeterminism and the race
// detector in CI). The runner already fills the cores with cells, so each
// cell replays serially (shards 1).
func (c Config) simulate(w workload.Workload, b builder, traces *tracecache.Cache, uses int) (stats.Result, error) {
	snap, release, err := c.acquireTrace(traces, w, uses)
	if err != nil {
		return stats.Result{}, err
	}
	defer release()
	return b.Run(w.Name, snap.Stream(), 0, 1)
}

// matrix runs every workload under every builder through runCells on
// c.Parallelism workers and returns results[builderName][workloadName].
// Cell failures never abort the grid: every cell is attempted, completed
// cells are always returned, and the error joins every cell failure
// (keyed "builder/workload") via errors.Join. Failed cells are absent from
// the returned maps. For a fixed Seed the result is bit-identical for any
// Parallelism; see Config.simulate for the per-cell isolation that
// guarantees it. The display name is applied after the cache consult,
// because one cached cell can serve under different labels (Fig6's
// "MemPod#7" and Fig7's "MemPod#3" may be the same design point).
//
// Each workload's trace is generated once and replayed from a packed
// snapshot by every builder's cell. Cells are submitted workload-major
// (all builders of workload 0, then workload 1, …) so the cells sharing a
// snapshot are adjacent in the queue: since the worker pool starts tasks
// in submission order and a snapshot stays resident only from its
// workload's first started cell to its last released one, at most
// Parallelism+1 snapshots are ever resident, however many workloads the
// matrix spans (asserted by TestMatrixSnapshotResidencyBounded).
func (c Config) matrix(builders []builder) (map[string]map[string]stats.Result, error) {
	cells, err := runCells(c.resultCells(builders), c.cellOptions(), c.Progress,
		func(cell planCell, payload []byte) (stats.Result, error) {
			r, err := resultcache.DecodeResult(payload)
			r.Mechanism = cell.name
			return r, err
		})
	out := make(map[string]map[string]stats.Result, len(builders))
	for bi, b := range builders {
		out[b.name] = make(map[string]stats.Result, len(c.Workloads))
		for wi, w := range c.Workloads {
			if cell := cells[wi*len(builders)+bi]; cell.Err == nil {
				out[b.name][w.Name] = cell.Value
			}
		}
	}
	if err != nil {
		return out, fmt.Errorf("exp: %w", err)
	}
	return out, nil
}

// averages splits results into homogeneous, mixed and overall means of a
// metric.
func (c Config) averages(rs map[string]stats.Result, f func(stats.Result) float64) (hg, mix, all float64) {
	var hgSum, mixSum float64
	var hgN, mixN int
	for _, w := range c.Workloads {
		v := f(rs[w.Name])
		if w.Homogeneous {
			hgSum += v
			hgN++
		} else {
			mixSum += v
			mixN++
		}
	}
	if hgN > 0 {
		hg = hgSum / float64(hgN)
	}
	if mixN > 0 {
		mix = mixSum / float64(mixN)
	}
	if hgN+mixN > 0 {
		all = (hgSum + mixSum) / float64(hgN+mixN)
	}
	return hg, mix, all
}
