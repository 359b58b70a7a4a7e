// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It runs one named workload — a workflow people actually run with the
// simulator — for a fixed number of seconds, checks every output it
// produces, and prints one JSON line of metrics:
//
//	bash perfbench/run.sh --workload matrix-cold --seed 3 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics BENCHMARK.json lists;
// with --trace 1 it repeats the workload with spans recorded around every
// call into a layer, runs the layer ladder and the small layer probes, and
// reports the per-layer metrics instead. METRICS.md explains each metric,
// the end-to-end metric it should move and the workload it shows on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// parallelism is the worker budget of every workload: the two vCPUs of the
// reference machine, so the benchmark never oversubscribes it.
const parallelism = 2

// seedPeriod maps the benchmark seed onto the workload seeds 42..51. The
// matrix-cold check compares against expected tables recorded per workload
// seed, so the set must be finite.
const seedPeriod = 10

// minSetup is the least total time spent on repeated set-ups.
const minSetup = 500 * time.Millisecond

// A bench is one benchmarked workflow (a workload). setup is the untimed
// preparation and is repeated, at least setupReps times, to measure setup_s;
// only the last repetition's state is kept. prepare builds the references
// passes are checked against. pass runs one timed, checked pass; a non-nil
// tracer records spans and the layer metrics only this workload produces at
// full scale.
type bench interface {
	setupReps() int
	setup(e *env) error
	prepare(e *env) error
	pass(e *env, tr *tracer) (passResult, error)
}

// passResult is what one timed pass delivered.
type passResult struct {
	wall    time.Duration
	simReqs float64 // simulated trace requests the pass delivered results for
	fig8    float64 // fig8_mempod_norm_ammat (simulated)
}

var workloads = map[string]func() bench{
	"matrix-cold":   func() bench { return &matrixCold{} },
	"rerun-warm":    func() bench { return newRerunWarm() },
	"cell-long":     func() bench { return &cellLong{} },
	"sweep-distrib": func() bench { return newSweepDistrib() },
}

// env is the state of one benchmark run.
type env struct {
	root    string
	work    string // scratch directory, removed at exit
	seed    int64  // workload seed
	seconds time.Duration
	update  bool

	attempted, failed int
	layer             map[string]float64
	ndirs             int
}

// fail counts n failed cells and says why on stderr.
func (e *env) fail(n int, format string, args ...any) {
	e.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: FAILED (%d cells): %s\n", n, fmt.Sprintf(format, args...))
}

// set records a per-layer metric; a later value replaces an earlier one.
func (e *env) set(name string, v float64) { e.layer[name] = v }

// dir creates a fresh, empty scratch directory.
func (e *env) dir(prefix string) (string, error) {
	e.ndirs++
	d := filepath.Join(e.work, fmt.Sprintf("%s-%d", prefix, e.ndirs))
	return d, os.MkdirAll(d, 0o755)
}

// spec is the part of BENCHMARK.json the benchmark checks its output against.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: matrix-cold, rerun-warm, cell-long or sweep-distrib")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	traced := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	update := flag.Bool("update", false, "matrix-cold: record this seed's expected Fig8 table instead of checking it")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *update); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run runs one workload from the root of a repository checkout, the
// directory holding BENCHMARK.json.
func run(name string, seed int64, seconds float64, traced bool, update bool) error {
	mk, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	var sp spec
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := &env{
		root:    root,
		work:    work,
		seed:    42 + (seed%seedPeriod+seedPeriod)%seedPeriod,
		seconds: time.Duration(seconds * float64(time.Second)),
		update:  update,
		layer:   make(map[string]float64),
	}
	w := mk()

	var tr *tracer
	if traced {
		tr = newTracer()
		if err := layerProbes(e, tr); err != nil {
			return fmt.Errorf("layer probes: %w", err)
		}
	}
	// Cheap set-ups repeat until minSetup has passed, so their median is
	// not a single noisy sample.
	var setups []time.Duration
	var spent time.Duration
	for i := 0; i < w.setupReps() || (spent < minSetup && i < 500); i++ {
		start := time.Now()
		if err := w.setup(e); err != nil {
			return fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(start))
		spent += setups[i]
	}
	if err := w.prepare(e); err != nil {
		return fmt.Errorf("%s prepare: %w", name, err)
	}

	var out map[string]metric
	if traced {
		plain, err := passes(e, w, nil)
		if err != nil {
			return err
		}
		withSpans, err := passes(e, w, tr)
		if err != nil {
			return err
		}
		e.set("bench.trace_overhead_s", median(walls(withSpans))-median(walls(plain)))
		if err := tr.dump(filepath.Join(root, ".bench_build", fmt.Sprintf("spans-%s-%d.json", name, seed))); err != nil {
			return err
		}
		out, err = collect(sp.PerLayer, e.layer)
		if err != nil {
			return err
		}
	} else {
		ps, err := passes(e, w, nil)
		if err != nil {
			return err
		}
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return err
		}
		var rates, fig8 []float64
		for _, p := range ps {
			rates = append(rates, p.simReqs/p.wall.Seconds()/1e6)
			fig8 = append(fig8, p.fig8)
		}
		var setupS []float64
		for _, d := range setups {
			setupS = append(setupS, d.Seconds())
		}
		okFrac := 1.0
		if e.attempted > 0 {
			okFrac = 1 - float64(e.failed)/float64(e.attempted)
		}
		out, err = collect(sp.EndToEnd, map[string]float64{
			"wall_s":                 median(walls(ps)),
			"sim_mreq_per_s":         median(rates),
			"setup_s":                median(setupS),
			"peak_rss_mb":            float64(ru.Maxrss) / 1024, // Linux reports KiB
			"ok_frac":                okFrac,
			"fig8_mempod_norm_ammat": median(fig8),
		})
		if err != nil {
			return err
		}
	}
	if e.attempted == 0 {
		return fmt.Errorf("%s: no cells attempted", name)
	}
	res, err := json.Marshal(output{
		Correct:   e.failed == 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}

// passes repeats timed passes until the run's seconds are used up, and at
// least once.
func passes(e *env, w bench, tr *tracer) ([]passResult, error) {
	var out []passResult
	start := time.Now()
	for len(out) == 0 || time.Since(start) < e.seconds {
		p, err := w.pass(e, tr)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// collect pairs every metric spec with its measured value.
func collect(specs []metricSpec, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		out[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	return out, nil
}

func walls(ps []passResult) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall.Seconds()
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
