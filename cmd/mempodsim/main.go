// Command mempodsim runs one workload under one memory-management
// mechanism and prints the run's metrics.
//
// Usage:
//
//	mempodsim -workload mix5 -mech MemPod -requests 1000000
//	mempodsim -workload mix5 -trace-out mix5.snap   # record the trace too
//	mempodsim -trace-in mix5.snap -mech HMA         # replay a saved trace
//	mempodsim -workload lbm -analyze                # characterize the trace
//	mempodsim -list
//
// -compare records the workload's trace once and replays the packed
// snapshot under every mechanism, so the trace front-end cost is paid a
// single time instead of once per mechanism. With -result-cache DIR the
// per-mechanism results are also persisted, so re-running the same
// comparison (same trace, specs and seed) replays nothing; the cache
// summary is printed to stderr. -no-result-cache disables memoization.
// Every row runs the same options as a single -mech run: -cache-bytes
// sizes the MemPod, HMA and THM bookkeeping caches, the -mempod-* flags
// tune the MemPod row, and HMA is scaled to the trace length (10 ms
// interval, 700 µs sort, 4096 migrations; see EXPERIMENTS.md). A row
// whose mechanism fails names its error in place of its numbers; the
// other rows still print, and the command exits 1.
//
// A MemPod replay of a recorded trace (-trace-in, -compare) spreads its
// pods over every core (mempod.Options.PodShards 0); -compare rows replay
// serially when -j lets rows run concurrently.
//
// -analyze prints the selected trace's characterization (footprint,
// write share, request rate, interval overlap, touch concentration)
// instead of simulating it; a -trace-in snapshot analyzes identically to
// the workload it was recorded from.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro"
	"repro/internal/exp"
	"repro/internal/profiling"
	"repro/internal/runner"
)

// compareOrder derives the -compare mechanism set from the facade's
// registry: the no-migration TLM baseline first (the normalization base),
// then every migration mechanism in registry order, then HBM-only.
// DDR-only is omitted — it is Figure 10's normalization base, not a
// Figure 8 column.
func compareOrder() []mempod.Mechanism {
	order := []mempod.Mechanism{mempod.MechTLM}
	for _, m := range mempod.Mechanisms() {
		switch m {
		case mempod.MechTLM, mempod.MechHBMOnly, mempod.MechDDROnly:
			continue
		}
		order = append(order, m)
	}
	return append(order, mempod.MechHBMOnly)
}

// validMechanism checks -mech against the registry so an unknown name
// fails here with the full list instead of deep inside the run.
func validMechanism(name string) error {
	for _, m := range mempod.Mechanisms() {
		if string(m) == name {
			return nil
		}
	}
	names := make([]string, len(mempod.Mechanisms()))
	for i, m := range mempod.Mechanisms() {
		names[i] = string(m)
	}
	return fmt.Errorf("unknown mechanism %q (valid: %s)", name, strings.Join(names, ", "))
}

// parseSpecPair splits a -spec value "FAST+SLOW" (either side may be
// empty to keep its default) and validates both names against the dram
// preset registry, so typos fail before any simulation runs.
func parseSpecPair(v string) (fast, slow string, err error) {
	if v == "" {
		return "", "", nil
	}
	parts := strings.Split(v, "+")
	if len(parts) != 2 {
		return "", "", fmt.Errorf("-spec must be FAST+SLOW (e.g. HBM2+DDR5-4800; presets: %s)",
			strings.Join(mempod.Specs(), ", "))
	}
	fast, slow = parts[0], parts[1]
	for _, name := range []string{fast, slow} {
		if name == "" {
			continue
		}
		if err := mempod.CheckSpec(name); err != nil {
			return "", "", err
		}
	}
	return fast, slow, nil
}

func main() {
	var (
		wl       = flag.String("workload", "mix1", "workload name (see -list)")
		mechName = flag.String("mech", "MemPod", "mechanism: MemPod, HMA, THM, CAMEO, Migrant, TLM, HBM-only, DDR-only")
		requests = flag.Int("requests", 1_000_000, "trace length")
		seed     = flag.Int64("seed", 42, "trace seed")
		future   = flag.Bool("future", false, "use 4GHz HBM + DDR4-2400 (§6.3.4)")
		specPair = flag.String("spec", "", "memory specs as FAST+SLOW presets, e.g. HBM2+DDR5-4800 or HBM+NVM (see -list)")
		interval = flag.Int("mempod-interval-us", 0, "MemPod epoch in µs (0 = paper default 50)")
		counters = flag.Int("mempod-counters", 0, "MEA counters per pod (0 = paper default 64)")
		bits     = flag.Int("mempod-bits", 0, "MEA counter width (0 = paper default 2)")
		cache    = flag.Int("cache-bytes", 0, "bookkeeping cache capacity (0 = disabled)")
		list     = flag.Bool("list", false, "list workloads and exit")
		compare  = flag.Bool("compare", false, "run all mechanisms on the workload and tabulate")
		custom   = flag.String("custom", "", "JSON file defining a custom workload (overrides -workload)")
		traceIn  = flag.String("trace-in", "", "replay a recorded trace snapshot (overrides -workload/-requests/-seed)")
		traceOut = flag.String("trace-out", "", "record the generated trace to this snapshot file")
		analyze  = flag.Bool("analyze", false, "characterize the selected trace and exit instead of simulating")
		parallel = flag.Int("j", 0, "-compare: max concurrent simulations (0 = GOMAXPROCS)")
		cacheDir = flag.String("result-cache", "", "persist cell results in this directory (reused across runs)")
		noCache  = flag.Bool("no-result-cache", false, "disable result memoization entirely")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mempodsim:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "mempodsim:", err)
		}
	}()

	if *list {
		fmt.Println("workloads:")
		fmt.Println("  " + strings.Join(mempod.Workloads(), "\n  "))
		names := make([]string, len(mempod.Mechanisms()))
		for i, m := range mempod.Mechanisms() {
			names[i] = string(m)
		}
		fmt.Println("mechanisms:")
		fmt.Println("  " + strings.Join(names, "\n  "))
		fmt.Println("memory specs (use -spec FAST+SLOW):")
		fmt.Println("  " + strings.Join(mempod.Specs(), "\n  "))
		return
	}

	if err := validMechanism(*mechName); err != nil {
		fmt.Fprintln(os.Stderr, "mempodsim:", err)
		os.Exit(1)
	}
	fastSpec, slowSpec, err := parseSpecPair(*specPair)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mempodsim:", err)
		os.Exit(1)
	}

	// Resolve a recorded trace when one is loaded, saved, analyzed or
	// shared across a -compare run; tr == nil keeps the plain
	// generate-and-run path.
	tr, err := resolveTrace(*traceIn, *traceOut, *compare || *analyze, *wl, *custom, *requests, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mempodsim:", err)
		os.Exit(1)
	}
	if *analyze {
		if err := analyzeTrace(os.Stdout, tr); err != nil {
			fmt.Fprintln(os.Stderr, "mempodsim:", err)
			os.Exit(1)
		}
		return
	}

	var rcache *mempod.ResultCache
	if !*noCache {
		if rcache, err = mempod.NewResultCache(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "mempodsim:", err)
			os.Exit(1)
		}
	} else if *cacheDir != "" {
		fmt.Fprintln(os.Stderr, "mempodsim: -result-cache and -no-result-cache are mutually exclusive")
		os.Exit(1)
	}

	opts := mempod.Options{
		Mechanism:      mempod.Mechanism(*mechName),
		Requests:       *requests,
		Seed:           *seed,
		FutureMemories: *future,
		FastSpec:       fastSpec,
		SlowSpec:       slowSpec,
		MemPod: mempod.MemPodOptions{
			Interval:    mempod.Duration(*interval) * mempod.Microsecond,
			Counters:    *counters,
			CounterBits: *bits,
			CacheBytes:  *cache,
		},
		HMA:     mempod.HMAOptions{CacheBytes: *cache},
		THM:     mempod.THMOptions{CacheBytes: *cache},
		Results: rcache,
	}
	if *compare {
		if err := runCompare(os.Stdout, tr, opts, *parallel); err != nil {
			fmt.Fprintln(os.Stderr, "mempodsim:", err)
			os.Exit(1)
		}
		return
	}

	var res mempod.Result
	if tr != nil {
		res, err = mempod.RunTrace(tr, opts)
	} else {
		res, err = runOne(*wl, *custom, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mempodsim:", err)
		os.Exit(1)
	}

	fmt.Printf("workload            %s\n", res.Workload)
	fmt.Printf("mechanism           %s\n", res.Mechanism)
	fmt.Printf("requests            %d\n", res.Requests)
	fmt.Printf("AMMAT               %.3f ns\n", res.AMMAT())
	fmt.Printf("simulated time      %s\n", res.Span)
	fmt.Printf("fast service        %.1f%% (incl. migration traffic)\n", 100*res.FastServiceFraction())
	fmt.Printf("row-buffer hit rate %.1f%% (fast %.1f%%, slow %.1f%%)\n",
		100*res.RowHitRate, 100*res.FastRowHitRate, 100*res.SlowRowHitRate)
	fmt.Printf("intervals           %d\n", res.Mig.Intervals)
	fmt.Printf("page migrations     %d (%.1f MB moved)\n",
		res.Mig.PageMigrations, float64(res.Mig.BytesMoved)/(1<<20))
	if res.Mig.CacheHits+res.Mig.CacheMisses > 0 {
		fmt.Printf("bookkeeping cache   %.1f%% hit (%d misses)\n",
			100*float64(res.Mig.CacheHits)/float64(res.Mig.CacheHits+res.Mig.CacheMisses),
			res.Mig.CacheMisses)
	}
	fmt.Printf("lock stalls         %d\n", res.Mig.LockStalls)
}

// runOne dispatches between a built-in and a custom workload.
func runOne(wl, customPath string, o mempod.Options) (mempod.Result, error) {
	if customPath == "" {
		return mempod.Run(wl, o)
	}
	f, err := os.Open(customPath)
	if err != nil {
		return mempod.Result{}, err
	}
	defer f.Close()
	return mempod.RunCustom(f, o)
}

// analyzeTrace prints tr's characterization under a "workload NAME"
// header.
func analyzeTrace(w io.Writer, tr *mempod.Trace) error {
	sum, err := tr.Analyze()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "workload %s\n%s", tr.Name(), sum)
	return err
}

// resolveTrace loads, records and/or saves the run's trace snapshot.
// A trace materializes when -trace-in names a file to replay, when
// -trace-out asks for the generation to be captured, or when record is
// set: -compare records once and replays the snapshot under every
// mechanism, and -analyze characterizes the recording.
func resolveTrace(traceIn, traceOut string, record bool, wl, customPath string, requests int, seed int64) (*mempod.Trace, error) {
	var tr *mempod.Trace
	switch {
	case traceIn != "":
		var err error
		if tr, err = mempod.OpenTrace(traceIn); err != nil {
			return nil, err
		}
		how := "read"
		if tr.Mapped() {
			how = "mapped"
		}
		fmt.Fprintf(os.Stderr, "mempodsim: replaying %s (%d requests, %.1f MB packed, %s) from %s\n",
			tr.Name(), tr.Requests(), float64(tr.Size())/(1<<20), how, traceIn)
	case traceOut != "" || record:
		var err error
		if customPath != "" {
			f, oerr := os.Open(customPath)
			if oerr != nil {
				return nil, oerr
			}
			tr, err = mempod.RecordCustomTrace(f, requests, seed)
			f.Close()
		} else {
			tr, err = mempod.RecordTrace(wl, requests, seed)
		}
		if err != nil {
			return nil, err
		}
	default:
		return nil, nil
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return nil, err
		}
		if err := tr.Save(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "mempodsim: wrote %s (%d requests, %.1f MB packed) to %s\n",
			tr.Name(), tr.Requests(), float64(tr.Size())/(1<<20), traceOut)
	}
	return tr, nil
}

// runCompare tabulates every mechanism on one recorded trace into w, replaying
// the shared packed snapshot concurrently (each run still builds its own
// simulator state; only the immutable snapshot is shared). Each row runs
// opts with its Mechanism set, so the MemPod and cache-size flags apply
// to the rows they tune exactly as they do to a single -mech run; HMA is
// scaled to the trace length as the full-scale experiments scale it
// (exp.DefaultConfig, see EXPERIMENTS.md). When rows run concurrently
// they already fill the cores, so each replays serially (PodShards 1).
// A mechanism that fails gets a row naming its error instead of numbers;
// every row that finished still prints, and the failures come back
// joined as the error.
func runCompare(w io.Writer, tr *mempod.Trace, opts mempod.Options, parallelism int) error {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > 1 {
		opts.PodShards = 1
	}
	order := compareOrder()
	scaled := exp.DefaultConfig()
	tasks := make([]runner.Task[mempod.Result], len(order))
	for i, m := range order {
		o := opts
		o.Mechanism = m
		if m == mempod.MechHMA {
			o.HMA.Interval, o.HMA.SortStall, o.HMA.MaxMigrations = scaled.HMAInterval, scaled.HMASortStall, scaled.HMAMaxMigrations
		}
		tasks[i] = runner.Task[mempod.Result]{
			Key: string(m),
			Run: func() (mempod.Result, error) { return mempod.RunTrace(tr, o) },
		}
	}
	results, err := runner.Run(tasks, runner.Options{Parallelism: parallelism})
	var base mempod.Result
	for i, m := range order {
		if m == mempod.MechTLM {
			base = results[i].Value
		}
	}
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s\n",
		"mechanism", "AMMAT (ns)", "normalized", "fast %", "moved MB")
	for i, m := range order {
		if e := results[i].Err; e != nil {
			// The runner prefixes the error with the row's mechanism.
			if inner := errors.Unwrap(e); inner != nil {
				e = inner
			}
			fmt.Fprintf(w, "%-10s failed: %v\n", m, e)
			continue
		}
		res := results[i].Value
		fmt.Fprintf(w, "%-10s %12.2f %12.3f %11.1f%% %12.1f\n",
			m, res.AMMAT(), res.Normalized(base), 100*res.FastServiceFraction(),
			float64(res.Mig.BytesMoved)/(1<<20))
	}
	if opts.Results != nil {
		fmt.Fprintf(os.Stderr, "mempodsim: result cache %s\n", opts.Results.Stats())
	}
	return err
}
