// Plan/run split for distributed sweeps: a Plan enumerates the simulation
// cells an experiment set would run — as resultcache.CellKeys plus the
// closures that compute their payloads — without executing any of them.
// A coordinator enumerates a Plan to hand out cell indices; workers build
// the identical Plan from the same serialized Jobs (the enumeration is
// deterministic, attested by Fingerprint) and execute leased index
// batches through runCells, the one cell executor the local matrix and
// the oracle study also run on. Because every cell is content-addressed,
// the distributed results merge into a cache from which the experiment
// tables render byte-identically to a serial run.
package exp

import (
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/clock"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/tracecache"
)

// Params is the serializable subset of Config that determines cell
// identity: everything a distributed worker needs to rebuild a plan
// bit-identically, and nothing about execution shape (parallelism and
// caches stay per-process).
type Params struct {
	Requests  int      `json:"requests"`
	Seed      int64    `json:"seed"`
	Workloads []string `json:"workloads"`

	FastSpec string `json:"fast_spec,omitempty"`
	SlowSpec string `json:"slow_spec,omitempty"`

	// HMA scaling, in femtoseconds (clock.Duration's unit).
	HMAIntervalFs    int64 `json:"hma_interval_fs"`
	HMASortStallFs   int64 `json:"hma_sort_stall_fs"`
	HMAMaxMigrations int   `json:"hma_max_migrations"`
}

// Params extracts the config's cell-identity parameters.
func (c Config) Params() Params {
	names := make([]string, len(c.Workloads))
	for i, w := range c.Workloads {
		names[i] = w.Name
	}
	return Params{
		Requests:         c.Requests,
		Seed:             c.Seed,
		Workloads:        names,
		FastSpec:         c.FastSpec,
		SlowSpec:         c.SlowSpec,
		HMAIntervalFs:    int64(c.HMAInterval),
		HMASortStallFs:   int64(c.HMASortStall),
		HMAMaxMigrations: c.HMAMaxMigrations,
	}
}

// Config reconstructs the experiment configuration the parameters came
// from. Unknown workload names error (a distributed spec is untrusted
// input); execution-shape fields are left zero for the caller to set.
func (p Params) Config() (Config, error) {
	ws, err := resolveWorkloads(p.Workloads)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Requests:         p.Requests,
		Seed:             p.Seed,
		Workloads:        ws,
		FastSpec:         p.FastSpec,
		SlowSpec:         p.SlowSpec,
		HMAInterval:      clock.Duration(p.HMAIntervalFs),
		HMASortStall:     clock.Duration(p.HMASortStallFs),
		HMAMaxMigrations: p.HMAMaxMigrations,
	}, nil
}

// A Job names one experiment to run under a serializable parameter set.
// A sweep is a list of Jobs; cells shared between jobs (Fig6 and Fig7
// overlap on the paper's chosen design point) are enumerated once.
type Job struct {
	Experiment string `json:"experiment"`
	Params     Params `json:"params"`
}

// planCell is one enumerated cell: its content-addressed identity, the
// label its runner task and pprof samples carry (the builder's display
// name, or "oracle"), the trace it replays, and the closure computing its
// payload (EncodeResult or encodeOracle output).
type planCell struct {
	name    string
	key     resultcache.CellKey
	tkey    tracecache.Key
	compute func(traces *tracecache.Cache, uses int) ([]byte, error)
}

// Plan is the deduplicated, deterministically ordered cell list of a Job
// set. Equal Jobs always yield equal plans — same cells, same order, same
// Fingerprint — whatever process builds them.
type Plan struct {
	jobs  []Job
	cells []planCell
}

// BuildPlan enumerates the distinct cells of jobs, in job order and, per
// job, in the experiment's matrix submission order (workload-major).
// Cells whose canonical key already appeared are skipped, so overlapping
// experiments plan each design point once, exactly as a shared result
// cache would dedupe them at run time.
func BuildPlan(jobs []Job) (*Plan, error) {
	p := &Plan{jobs: jobs}
	seen := make(map[resultcache.CellKey]bool)
	for _, job := range jobs {
		cfg, err := job.Params.Config()
		if err != nil {
			return nil, fmt.Errorf("exp: plan %s: %w", job.Experiment, err)
		}
		cells, err := cfg.planCells(job.Experiment)
		if err != nil {
			return nil, fmt.Errorf("exp: plan %s: %w", job.Experiment, err)
		}
		for _, cell := range cells {
			if seen[cell.key] {
				continue
			}
			seen[cell.key] = true
			p.cells = append(p.cells, cell)
		}
	}
	return p, nil
}

// Jobs returns the job list the plan was built from.
func (p *Plan) Jobs() []Job { return p.jobs }

// Len returns the number of distinct cells.
func (p *Plan) Len() int { return len(p.cells) }

// Key returns cell i's content-addressed identity.
func (p *Plan) Key(i int) resultcache.CellKey { return p.cells[i].key }

// Fingerprint hashes the ordered canonical keys (FNV-1a). Two processes
// agreeing on a fingerprint agree on every cell's identity and index, so
// a coordinator and a worker can exchange bare indices safely; the keys
// already embed sim.Version, so an engine-semantics skew between builds
// changes the fingerprint too.
func (p *Plan) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "plan1 sim=%d\n", sim.Version)
	for _, cell := range p.cells {
		io.WriteString(h, cell.key.Canonical())
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// planCells enumerates experiment id's cells under this config, in the
// exact order the experiment's render path runs them. The static tables
// have no cells; the oracle experiments share one cell per workload
// (Fig1–3 render different columns of the same study).
func (c Config) planCells(id string) ([]planCell, error) {
	switch id {
	case "table1", "table2", "table3":
		return nil, nil
	case "fig1", "fig2", "fig3":
		return c.oracleCells(), nil
	}
	builders, err := c.buildersFor(id)
	if err != nil {
		return nil, err
	}
	return c.resultCells(builders), nil
}

// buildersFor is the one table of every matrix experiment's builder grid:
// the experiments' render paths and planCells both take their builders
// from here, so plan and run cannot drift.
func (c Config) buildersFor(id string) ([]builder, error) {
	switch id {
	case "fig6":
		return c.memPodGridBuilders("fig6", fig6Configs())
	case "fig7":
		return c.memPodGridBuilders("fig7", fig7Configs())
	case "fig8", "energy":
		fast, slow, err := c.specPair(id)
		if err != nil {
			return nil, err
		}
		return c.baselineBuilders(fast, slow), nil
	case "fig9":
		return c.fig9Builders()
	case "fig10":
		return c.fig10Builders(), nil
	case "specgrid":
		return c.specGridBuilders()
	case "ablation-pods":
		return c.podSweepBuilders()
	case "ablation-tracker":
		return c.trackerSweepBuilders()
	default:
		return nil, fmt.Errorf("exp: experiment %q has no enumerable cells", id)
	}
}

// RunCellsOptions tunes a RunCells batch. All fields are optional.
type RunCellsOptions struct {
	// Results, when non-nil, is consulted before computing each cell and
	// receives fresh payloads — a warm worker answers a whole lease in
	// O(1) disk-free lookups.
	Results *resultcache.Cache
	// Traces, when non-nil, supplies trace snapshots across batches;
	// nil builds a transient cache for this batch only.
	Traces *tracecache.Cache
	// Parallelism bounds concurrent cells (0 = GOMAXPROCS, 1 = serial).
	Parallelism int
}

// CellRun is the outcome of one requested cell: a complete MPR1 frame
// (resultcache.EncodeFile of the cell's key and payload) or the error
// that prevented it.
type CellRun struct {
	Frame []byte
	Err   error
}

// RunCells executes the cells at the given plan indices through
// runCells and returns one CellRun per index, in request order. Cell
// failures never abort the batch; each failed slot carries its own error,
// named builder/workload like a matrix cell's.
func (p *Plan) RunCells(indices []int, opts RunCellsOptions) []CellRun {
	out := make([]CellRun, len(indices))
	cells := make([]planCell, 0, len(indices))
	slots := make([]int, 0, len(indices))
	for oi, i := range indices {
		if i < 0 || i >= len(p.cells) {
			out[oi].Err = fmt.Errorf("exp: cell index %d out of plan range [0,%d)", i, len(p.cells))
			continue
		}
		cells = append(cells, p.cells[i])
		slots = append(slots, oi)
	}
	runs, _ := runCells(cells, opts, nil, func(cell planCell, payload []byte) ([]byte, error) {
		var err error
		if cell.key.Kind == kindOracle {
			_, err = decodeOracle(payload)
		} else {
			_, err = resultcache.DecodeResult(payload)
		}
		if err != nil {
			return nil, err
		}
		return resultcache.EncodeFile(cell.key, payload), nil
	})
	for j, run := range runs {
		out[slots[j]] = CellRun{Frame: run.Value, Err: run.Err}
	}
	return out
}

// runCells is the one cell executor behind the matrix, the oracle study
// and distributed leases. It:
//   - serves every cell it can from the result cache in one pass over the
//     batch's distinct keys, on opts.Parallelism goroutines: each key is
//     looked up once (in memory, then in the store), decoded with decode
//     and fills the slot of every cell that has it;
//   - counts one trace use per distinct key left unserved, so each
//     snapshot is generated once and freed at its last use, and a fully
//     warm batch acquires none;
//   - runs the unserved cells in submission order on a bounded runner
//     pool, each a task keyed "name/workload" with mechanism and workload
//     pprof labels (`go tool pprof -tagfocus mechanism=MemPod` isolates
//     one builder);
//   - computes each through GetOrRun with decode as its payload decoder,
//     so a served payload that decode rejects is recomputed once and heals
//     the store.
//
// Results keep cell order; the error joins every cell failure. progress
// sees the served cells after the serve pass, then each computed cell, so
// done runs from 1 to len(cells) whatever the cache held.
func runCells[T any](cells []planCell, opts RunCellsOptions, progress func(done, total int), decode func(planCell, []byte) (T, error)) ([]runner.Result[T], error) {
	traces, results := opts.Traces, opts.Results
	if traces == nil {
		traces = tracecache.New()
	}
	out := make([]runner.Result[T], len(cells))
	var pending []int // cells left to compute, in cell order
	if results != nil {
		pending = serveCells(cells, results, opts.Parallelism, func(i int, payload []byte) (err error) {
			out[i].Value, err = decode(cells[i], payload)
			return err
		})
	} else {
		for i := range cells {
			pending = append(pending, i)
		}
	}
	// With a result cache, cells sharing a key collapse to a single use (the
	// cache computes them single-flight, so only the first acquires the
	// trace).
	uses := make(map[tracecache.Key]int)
	counted := make(map[resultcache.CellKey]bool)
	for _, i := range pending {
		if results != nil {
			if counted[cells[i].key] {
				continue
			}
			counted[cells[i].key] = true
		}
		uses[cells[i].tkey]++
	}
	tasks := make([]runner.Task[T], len(pending))
	for ti, i := range pending {
		cell := cells[i]
		tasks[ti] = runner.Task[T]{
			Key:    cell.name + "/" + cell.key.Workload,
			Labels: []string{"mechanism", cell.name, "workload", cell.key.Workload},
			Run: func() (v T, err error) {
				compute := func() ([]byte, error) { return cell.compute(traces, uses[cell.tkey]) }
				valid := func(payload []byte) (err error) {
					v, err = decode(cell, payload)
					return err
				}
				if results != nil {
					_, err = results.GetOrRun(cell.key, compute, valid)
					return v, err
				}
				payload, err := compute()
				if err != nil {
					return v, err
				}
				return v, valid(payload)
			},
		}
	}
	served := len(cells) - len(pending)
	var onProgress func(done, total int)
	if progress != nil {
		for done := 1; done <= served; done++ {
			progress(done, len(cells))
		}
		onProgress = func(done, _ int) { progress(served+done, len(cells)) }
	}
	runs, err := runner.Run(tasks, runner.Options{Parallelism: opts.Parallelism, OnProgress: onProgress})
	for ti, i := range pending {
		out[i] = runs[ti]
	}
	return out, err
}

// serveCells is runCells' serve pass. It groups cells by key and has
// results.Serve answer each distinct key once, as runner tasks on
// parallelism workers, with accept filling the slot of every cell of the
// key. It returns the indices of the cells it could not serve, in cell
// order.
func serveCells(cells []planCell, results *resultcache.Cache, parallelism int, accept func(i int, payload []byte) error) []int {
	var groups [][]int // cell indices by distinct key, in first-seen order
	group := make([]int, len(cells))
	at := make(map[resultcache.CellKey]int, len(cells))
	for i, cell := range cells {
		g, ok := at[cell.key]
		if !ok {
			g = len(groups)
			at[cell.key] = g
			groups = append(groups, nil)
		}
		group[i] = g
		groups[g] = append(groups[g], i)
	}
	tasks := make([]runner.Task[bool], len(groups))
	for g, idx := range groups {
		tasks[g].Run = func() (bool, error) {
			return results.Serve(cells[idx[0]].key, len(idx), func(payload []byte) error {
				for _, i := range idx {
					if err := accept(i, payload); err != nil {
						return err
					}
				}
				return nil
			}), nil
		}
	}
	// A panicking decoder fails its serve task and leaves its cells
	// unserved; their runner tasks then report the panic per cell.
	served, _ := runner.Run(tasks, runner.Options{Parallelism: parallelism})
	var pending []int
	for i := range cells {
		if !served[group[i]].Value {
			pending = append(pending, i)
		}
	}
	return pending
}
