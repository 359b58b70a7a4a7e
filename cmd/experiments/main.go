// Command experiments regenerates the tables and figures of the paper's
// evaluation — the §3 MEA study, the §6.3.1 design-space sweeps, the
// comparisons — and this repository's ablations, locally or sharded across
// worker processes, optionally writing per-experiment CSV files.
//
// Usage:
//
//	experiments                  # the paper's evaluation at quick scale (~1 min)
//	experiments -full            # full scale (tens of minutes on one core)
//	experiments -only fig8,fig9  # a subset
//	experiments -only fig6,fig7  # the design-space sweeps
//	experiments -only fig1,fig2,fig3 -workloads mcf,mix9
//	experiments -only ablation-pods,ablation-tracker,energy -requests 800000
//	experiments -csvdir out/     # also write CSVs
//	experiments -j 4 -progress   # bound worker count, show cell progress
//	experiments -result-cache d/ # persist cell results, skip them next run
//
// -only accepts every experiment id (the paper's tables and figures plus
// the ablations); the default is the paper's list. -requests and
// -workloads override the trace length and workload set of every selected
// experiment's standard configuration.
//
// Simulation cells fan out to GOMAXPROCS workers by default (-j bounds
// them; -j 1 forces serial execution). Results are deterministic for a
// fixed seed regardless of -j.
//
// Cell results are memoized in-process by default, so experiments sharing
// design points (Fig6/Fig7, the three oracle figures) simulate each
// distinct cell once; -result-cache DIR persists them across runs and
// -no-result-cache disables memoization entirely. Cached results are
// field-identical to fresh simulation — only the wall time changes.
// Tables go to stdout; per-experiment wall time and cache activity go to
// stderr ("fig8: finished in 1.2s cache hits=162 misses=0 ...").
//
// Distributed mode shards the same run across processes:
//
//	experiments -only fig6,fig7 -serve :7077 -checkpoint sweep.mpc1  # coordinator (+local worker)
//	experiments -join host:7077 -result-cache d                      # one worker per machine
//
// The coordinator enumerates the cell plan, hands out leased index
// batches (expired leases re-queue automatically), checkpoints completed
// cells to -checkpoint on an interval and on SIGTERM (restarting with the
// same flags resumes), and renders the tables once every cell is in.
// Workers verify they built the identical plan before serving, survive
// coordinator restarts, and exit when the run is done. Output is
// byte-identical to a serial run regardless of worker count or crashes:
// cells are content-addressed, so the merged cache holds exactly what a
// serial run would compute. Progress and per-worker throughput go to
// stderr and to GET /statusz on the serve address.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/exp"
	"repro/internal/profiling"
	"repro/internal/resultcache"
)

// options holds the command line.
type options struct {
	full      bool
	only      string
	workloads string
	requests  int
	csvdir    string
	parallel  int
	fastSpec  string
	slowSpec  string
	progress  bool
	cacheDir  string
	noCache   bool
	cpuProf   string
	memProf   string

	serve      string
	join       string
	workerName string
	leaseBatch int
	leaseTTL   time.Duration
	ckptPath   string
	ckptEvery  time.Duration
	noLocal    bool
}

// newOptions registers the command's flags on fs.
func newOptions(fs *flag.FlagSet) *options {
	o := &options{}
	fs.BoolVar(&o.full, "full", false, "run at full scale")
	fs.StringVar(&o.only, "only", "", "comma-separated experiment ids (e.g. fig8,table1,ablation-pods)")
	fs.StringVar(&o.workloads, "workloads", "", "comma-separated workload set for every selected experiment")
	fs.IntVar(&o.requests, "requests", 0, "trace length for every selected experiment (0 = standard)")
	fs.StringVar(&o.csvdir, "csvdir", "", "directory to write per-experiment CSV files")
	fs.IntVar(&o.parallel, "j", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
	fs.StringVar(&o.fastSpec, "fast-spec", "", "fast-tier memory spec preset (default HBM; see mempod.Specs)")
	fs.StringVar(&o.slowSpec, "slow-spec", "", "slow-tier memory spec preset (default DDR4-1600)")
	fs.BoolVar(&o.progress, "progress", false, "report per-cell progress on stderr")
	fs.StringVar(&o.cacheDir, "result-cache", "", "persist cell results in this directory (reused across runs)")
	fs.BoolVar(&o.noCache, "no-result-cache", false, "disable result memoization entirely")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProf, "memprofile", "", "write a heap profile to this file on exit")

	fs.StringVar(&o.serve, "serve", "", "coordinate a distributed run on this address (host:port)")
	fs.StringVar(&o.join, "join", "", "work for the coordinator at this address")
	fs.StringVar(&o.workerName, "worker-name", "", "name reported to the coordinator (default host:pid)")
	fs.IntVar(&o.leaseBatch, "lease-batch", 0, "cells per lease (default 16 worker-side, 64 coordinator cap)")
	fs.DurationVar(&o.leaseTTL, "lease-ttl", 30*time.Second, "lease expiry without renewal (coordinator)")
	fs.StringVar(&o.ckptPath, "checkpoint", "", "coordinator checkpoint file (resumed if it exists)")
	fs.DurationVar(&o.ckptEvery, "checkpoint-every", 10*time.Second, "checkpoint write interval")
	fs.BoolVar(&o.noLocal, "no-local-worker", false, "serve only; don't compute cells in this process")
	return o
}

func main() {
	o := newOptions(flag.CommandLine)
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(o *options) error {
	if o.serve != "" && o.join != "" {
		return errors.New("-serve and -join are mutually exclusive")
	}
	if o.noCache && o.cacheDir != "" {
		return errors.New("-result-cache and -no-result-cache are mutually exclusive")
	}
	if o.join != "" {
		return join(o)
	}
	sel, err := o.selection()
	if err != nil {
		return err
	}

	stopProf, err := profiling.Start(o.cpuProf, o.memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
	}()

	// Distributed results merge into a cache and render from it, so
	// -serve keeps one even under -no-result-cache.
	var results *resultcache.Cache
	if !o.noCache || o.serve != "" {
		if results, err = openResults(o.cacheDir); err != nil {
			return err
		}
	}
	if o.serve != "" {
		return coordinate(sel, results, o)
	}
	return render(sel, results, o)
}

// experiment is one selected table or figure and the configuration it
// runs at.
type experiment struct {
	id  string
	cfg exp.Config
}

// selection resolves -only, -full, -requests, -workloads and the spec
// flags into the experiments to run. Every experiment id, workload and
// spec name is checked here, before anything runs.
func (o *options) selection() ([]experiment, error) {
	ids, err := selectIDs(o.only)
	if err != nil {
		return nil, err
	}
	var workloads []string
	if o.workloads != "" {
		workloads = strings.Split(o.workloads, ",")
		if err := exp.CheckWorkloads(workloads...); err != nil {
			return nil, err
		}
	}
	for _, name := range []string{o.fastSpec, o.slowSpec} {
		if name != "" {
			if err := mempod.CheckSpec(name); err != nil {
				return nil, err
			}
		}
	}
	sel := make([]experiment, len(ids))
	for i, id := range ids {
		cfg := exp.ConfigFor(id, o.full)
		if o.requests > 0 {
			cfg.Requests = o.requests
		}
		if workloads != nil {
			cfg = cfg.WithWorkloads(workloads...)
		}
		cfg.FastSpec, cfg.SlowSpec = o.fastSpec, o.slowSpec
		sel[i] = experiment{id: id, cfg: cfg}
	}
	return sel, nil
}

// selectIDs returns the experiment ids -only names, in dispatch order
// (exp.ExperimentIDs), or the paper's list when only is empty. Any id
// outside exp.ExperimentIDs is an error that lists the valid ones.
func selectIDs(only string) ([]string, error) {
	if only == "" {
		var ids []string
		for _, e := range mempod.Experiments() {
			ids = append(ids, string(e))
		}
		return ids, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	var ids []string
	for _, id := range exp.ExperimentIDs() {
		if want[id] {
			ids = append(ids, id)
			delete(want, id)
		}
	}
	if len(want) > 0 {
		var unknown []string
		for id := range want {
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiment %s (valid: %s)",
			strings.Join(unknown, ", "), strings.Join(exp.ExperimentIDs(), ", "))
	}
	if len(ids) == 0 {
		return nil, errors.New("nothing selected")
	}
	return ids, nil
}

// openResults returns a result cache, persisted in dir when dir is set.
func openResults(dir string) (*resultcache.Cache, error) {
	results := resultcache.New()
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		results.SetDir(dir)
	}
	return results, nil
}

// render regenerates each selected experiment in order against the shared
// result cache (nil disables memoization), printing tables to stdout and
// per-experiment wall time plus cache activity to stderr, so stdout is
// purely tables (diffable across runs; CI compares cold vs warm output).
func render(sel []experiment, results *resultcache.Cache, o *options) error {
	var prev resultcache.Stats
	for _, e := range sel {
		cfg := e.cfg
		cfg.Results, cfg.Parallelism = results, o.parallel
		if o.progress {
			cfg.Progress = func(done, total int) {
				fmt.Fprintf(os.Stderr, "%s: %d/%d cells\n", e.id, done, total)
			}
		}
		start := time.Now()
		t, err := cfg.Experiment(e.id)
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Println(t)
		line := fmt.Sprintf("%s: finished in %s", e.id, time.Since(start).Round(time.Millisecond))
		if results != nil {
			cur := results.Stats()
			line += " cache " + cur.Sub(prev).String()
			prev = cur
		}
		fmt.Fprintln(os.Stderr, line)
		if o.csvdir != "" {
			if err := os.MkdirAll(o.csvdir, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(o.csvdir, e.id+".csv"), []byte(t.CSV()), 0o644); err != nil {
				return err
			}
		}
	}
	if results != nil {
		fmt.Fprintf(os.Stderr, "experiments: result cache total %s\n", results.Stats())
	}
	return nil
}
