package mempod

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/addr"
	"repro/internal/cameo"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/exp"
	"repro/internal/hma"
	"repro/internal/migrant"
	"repro/internal/stats"
	"repro/internal/thm"
	"repro/internal/trace"
	"repro/internal/tracestat"
	"repro/internal/workload"
)

// Mechanism selects the memory-management scheme for a run.
type Mechanism string

// The mechanisms and reference configurations of the paper's evaluation.
const (
	MechMemPod  Mechanism = "MemPod"   // the paper's contribution (§5)
	MechHMA     Mechanism = "HMA"      // OS-driven interval migration baseline
	MechTHM     Mechanism = "THM"      // segment/competing-counter baseline
	MechCAMEO   Mechanism = "CAMEO"    // line-granularity event-swap baseline
	MechMigrant Mechanism = "Migrant"  // OS/VM-assisted fault-threshold migration
	MechTLM     Mechanism = "TLM"      // two-level memory, no migration
	MechHBMOnly Mechanism = "HBM-only" // 9 GB of stacked memory, no DDR
	MechDDROnly Mechanism = "DDR-only" // 9 GB of off-chip memory, no HBM
)

// Mechanisms lists every supported Mechanism value.
func Mechanisms() []Mechanism {
	return []Mechanism{MechMemPod, MechHMA, MechTHM, MechCAMEO, MechMigrant, MechTLM, MechHBMOnly, MechDDROnly}
}

// Specs lists the memory-spec preset names accepted by Options.FastSpec
// and Options.SlowSpec (aliases like "DDR4" and "NVM" also resolve; see
// internal/dram.Preset).
func Specs() []string { return dram.PresetNames() }

// CheckSpec validates a memory-spec preset name or alias against the
// registry; the error for an unknown name lists the valid options.
func CheckSpec(name string) error {
	_, err := dram.Preset(name)
	return err
}

// Duration re-exports the simulator's femtosecond time unit for options.
type Duration = clock.Duration

// Time-unit constants for building Options durations.
const (
	Nanosecond  = clock.Nanosecond
	Microsecond = clock.Microsecond
	Millisecond = clock.Millisecond
)

// MemPodOptions tunes the MemPod mechanism (§6.3.1 design space).
// Zero values select the paper's design point.
type MemPodOptions struct {
	Interval    Duration // epoch length (default 50 µs)
	Counters    int      // MEA entries per pod (default 64)
	CounterBits int      // saturating counter width (default 2)
	CacheBytes  int      // remap-cache capacity; 0 disables the cache model
	// UseFullCounters swaps the MEA unit for exact per-page counters —
	// the tracking ablation, not a buildable design point.
	UseFullCounters bool
}

// MigrantOptions tunes the OS-assisted Migrant mechanism. Zero values
// select its defaults (100 µs epoch, threshold 8, 2 µs fault cost).
type MigrantOptions struct {
	Epoch        Duration // A-bit harvest epoch
	HotThreshold int      // faults-in when an epoch's touch count crosses this
	FaultCost    Duration // minor-fault handling cost charged before the copy
}

// THMOptions tunes the THM baseline. Zero values select its defaults.
type THMOptions struct {
	CacheBytes int // segment-state (SRT) cache capacity; 0 disables the cache model
}

// HMAOptions tunes the HMA baseline. Zero values select the paper's
// parameters (100 ms interval, 7 ms sort), which require correspondingly
// long traces; see exp.Config for the scaled experiment defaults.
type HMAOptions struct {
	Interval      Duration
	SortStall     Duration
	MaxMigrations int
	CacheBytes    int
}

// Options configures one simulation run.
type Options struct {
	// Mechanism picks the management scheme (default MechMemPod).
	Mechanism Mechanism
	// Requests is the trace length (default 500 000).
	Requests int
	// Seed makes the run reproducible (default 42).
	Seed int64
	// FutureMemories selects the §6.3.4 technology point: 4 GHz HBM and
	// DDR4-2400 instead of the baseline parts.
	FutureMemories bool
	// FastSpec/SlowSpec name dram preset specs (see Specs()) for the two
	// memory levels; empty selects the paper pair (HBM + DDR4-1600), or
	// the future pair when FutureMemories is set. Naming a spec together
	// with FutureMemories is an error.
	FastSpec string
	SlowSpec string
	// Window caps outstanding requests (default sim.DefaultWindow;
	// negative = unlimited).
	Window int
	// PodShards is the worker count of a MemPod trace replay (RunTrace;
	// sim.Engine.Shards): 0 spreads the pods over every core
	// (min(GOMAXPROCS, pods) workers), 1 runs serially, N uses
	// min(N, pods) workers. The Result is the serial one whatever the
	// value. Run and RunCustom generate their trace as they simulate it
	// and always run serially.
	PodShards int
	// Results, when non-nil, memoizes the run: if the cache holds this
	// exact cell (same mechanism config, specs, layout, window and trace
	// identity — see ResultCache), the stored result is returned without
	// simulating, and fresh results are published for later runs. Custom
	// workload definitions (RunCustom) are never cached — their names do
	// not pin their content.
	Results *ResultCache

	MemPod  MemPodOptions
	HMA     HMAOptions
	THM     THMOptions
	Migrant MigrantOptions
}

// Result is the outcome of a run. AMMAT() reports the paper's headline
// metric in nanoseconds.
type Result = stats.Result

// Workloads returns the names of the paper's 27 workloads: 15 homogeneous
// benchmark names plus mix1..mix12 (Table 3).
func Workloads() []string {
	var out []string
	for _, w := range workload.All() {
		out = append(out, w.Name)
	}
	return out
}

// withDefaults fills the zero-value option defaults shared by every entry
// point.
func (o Options) withDefaults() Options {
	if o.Requests == 0 {
		o.Requests = 500_000
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Mechanism == "" {
		o.Mechanism = MechMemPod
	}
	return o
}

// specs resolves the run's memory specs: named presets (either name
// empty selects that level of the paper pair), or the §6.3.4 future pair.
func (o Options) specs() (fast, slow dram.Spec, err error) {
	if o.FutureMemories {
		if o.FastSpec != "" || o.SlowSpec != "" {
			return fast, slow, fmt.Errorf("mempod: FutureMemories cannot be combined with named specs")
		}
		return dram.HBMOverclocked(), dram.DDR4_2400(), nil
	}
	return dram.PresetPair(o.FastSpec, o.SlowSpec)
}

// layout returns the address layout the mechanism runs on: the standard
// two-level geometry, or a single-level 9 GB geometry for the static
// one-memory baselines.
func (o Options) layout() addr.Layout {
	switch o.Mechanism {
	case MechHBMOnly:
		return addr.FastOnlyLayout()
	case MechDDROnly:
		return addr.SlowOnlyLayout()
	}
	return addr.DefaultLayout()
}

// cell resolves the options into the simulated system — memory specs,
// layout and mechanism config — without constructing anything. The same
// exp.Cell both runs (exp.Cell.Run) and keys (Options.cellKey) the run,
// so a run and its cache entry can never disagree about what was
// simulated, and a facade run keys exactly as the experiment matrix keys
// the same design point.
func (o Options) cell() (exp.Cell, error) {
	fast, slow, err := o.specs()
	if err != nil {
		return exp.Cell{}, err
	}
	cfg, err := o.mechConfig()
	if err != nil {
		return exp.Cell{}, err
	}
	return exp.Cell{Cfg: cfg, Layout: o.layout(), Fast: fast, Slow: slow}, nil
}

// runStream simulates the stream that open returns under the cell o
// selects. Every entry point — generated workloads, custom definitions,
// recorded trace replays — funnels through here. When the run is
// memoizable (o.Results set and id cacheable) the cache is consulted
// first, and open is called only on a miss. Snapshot replays (RunTrace,
// -compare) read the snapshot's decoded columns; see sim.Engine.Run.
func runStream(name string, o Options, id cellIdentity, open func() (trace.Stream, error)) (Result, error) {
	cell, err := o.cell()
	if err != nil {
		return Result{}, err
	}
	simulate := func() (Result, error) {
		s, err := open()
		if err != nil {
			return Result{}, err
		}
		return cell.Run(name, s, o.Window, o.PodShards)
	}
	if o.Results == nil || !id.cacheable {
		return simulate()
	}
	return o.Results.c.ResultCell(o.cellKey(cell, id), simulate)
}

// Run simulates one workload under one mechanism and returns its metrics.
// The workload is a benchmark name ("mcf"), a mix ("mix5"), per Workloads.
func Run(workloadName string, o Options) (Result, error) {
	w, err := lookupWorkload(workloadName)
	if err != nil {
		return Result{}, err
	}
	o = o.withDefaults()
	// Generated runs are keyed symbolically — the (name, length, seed)
	// recipe pins the exact request sequence — so a cache hit skips trace
	// generation too, and the stream is only built on a miss.
	id := cellIdentity{workload: w.Name, requests: o.Requests, seed: o.Seed, cacheable: true}
	return runStream(w.Name, o, id, func() (trace.Stream, error) { return w.Stream(o.Requests, o.Seed) })
}

// RunCustom is Run for a user-defined workload: def is the JSON custom
// workload definition documented in internal/workload (profiles plus an
// 8-core assignment; built-in benchmark names may be referenced).
func RunCustom(def io.Reader, o Options) (Result, error) {
	w, err := workload.LoadCustom(def)
	if err != nil {
		return Result{}, err
	}
	o = o.withDefaults()
	return runStream(w.Name, o, cellIdentity{}, func() (trace.Stream, error) { return w.Stream(o.Requests, o.Seed) })
}

// Trace is a recorded workload trace in the packed snapshot form: generate
// (or load) it once, then replay it under any number of mechanisms or
// option sets. Replays are bit-identical to the recorded generation and
// safe to run concurrently — each RunTrace takes its own cursor over the
// immutable snapshot.
type Trace struct {
	name string
	snap *trace.Snapshot
}

// RecordTrace generates workloadName's trace with the given length and
// seed (zero values select the Run defaults) and records it as a packed
// snapshot.
func RecordTrace(workloadName string, requests int, seed int64) (*Trace, error) {
	w, err := lookupWorkload(workloadName)
	if err != nil {
		return nil, err
	}
	return recordTrace(w.Name, w, requests, seed)
}

// RecordCustomTrace is RecordTrace for a JSON custom workload definition.
func RecordCustomTrace(def io.Reader, requests int, seed int64) (*Trace, error) {
	w, err := workload.LoadCustom(def)
	if err != nil {
		return nil, err
	}
	return recordTrace(w.Name, w, requests, seed)
}

// recorder abstracts the two workload kinds (built-in and custom) for
// recording; both record their trace on every core.
type recorder interface {
	Record(n int, seed int64) (*trace.Snapshot, error)
}

func recordTrace(name string, w recorder, requests int, seed int64) (*Trace, error) {
	if requests <= 0 {
		requests = 500_000
	}
	if seed == 0 {
		seed = 42
	}
	snap, err := w.Record(requests, seed)
	if err != nil {
		return nil, err
	}
	return &Trace{name: name, snap: snap}, nil
}

// Name returns the workload name the trace was recorded from.
func (t *Trace) Name() string { return t.name }

// Requests returns the number of recorded requests.
func (t *Trace) Requests() int { return t.snap.Len() }

// Size returns the packed in-memory size of the trace in bytes.
func (t *Trace) Size() int { return t.snap.Size() }

// Save persists the trace in the packed snapshot file format, replayable
// across runs via ReadTrace (cmd/mempodsim's -trace-out/-trace-in).
func (t *Trace) Save(w io.Writer) error {
	return trace.WriteSnapshot(w, t.name, t.snap)
}

// ReadTrace loads a trace saved by Save.
func ReadTrace(r io.Reader) (*Trace, error) {
	snap, name, err := trace.ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	return &Trace{name: name, snap: snap}, nil
}

// OpenTrace opens a trace snapshot file saved by Save, memory-mapping
// its columns where the platform supports it — replay then reads the
// file's bytes in place, and derived columns persist as sidecar files
// next to the snapshot so later opens skip re-decoding. Platforms (or
// builds) without mmap support fall back to the copying reader, so the
// call works everywhere. Close releases the mapping.
func OpenTrace(path string) (*Trace, error) {
	snap, name, err := trace.OpenMapped(path)
	if err != nil {
		return nil, err
	}
	return &Trace{name: name, snap: snap}, nil
}

// Mapped reports whether the trace replays directly from a file mapping
// (OpenTrace on an mmap-capable platform) rather than heap buffers.
func (t *Trace) Mapped() bool { return t.snap.Mapped() }

// Analyze characterizes the trace — footprint, write share, request
// rate, per-interval page overlap and touch concentration — and returns
// the summary as printable lines (cmd/mempodsim's -analyze).
func (t *Trace) Analyze() (string, error) {
	sum, err := tracestat.Analyze(t.snap.Stream(), 0)
	if err != nil {
		return "", err
	}
	return sum.String(), nil
}

// Close releases the trace's snapshot — for a mapped trace (OpenTrace)
// it unmaps the file. The trace and any replay derived from it must not
// be used afterwards; Close is optional for heap traces, which the
// garbage collector reclaims.
func (t *Trace) Close() {
	if t.snap != nil {
		t.snap.Release()
		t.snap = nil
	}
}

// RunTrace replays a recorded trace under the mechanism selected by o.
// o.Requests and o.Seed are ignored — the trace already fixes the request
// sequence. With o.Results set, the trace is identified by its content
// fingerprint, so the same trace reloaded from a file in another process
// still hits its cached cells.
func RunTrace(t *Trace, o Options) (Result, error) {
	o = o.withDefaults()
	return runStream(t.name, o, traceIdentity(t, o), func() (trace.Stream, error) { return t.snap.Stream(), nil })
}

// mechConfig resolves the options into the mechanism's fully populated
// config struct (the exp.Cell's Cfg). Static mechanisms have a nil config:
// the layout distinguishes them, and exp.Cell names them after it.
func (o Options) mechConfig() (any, error) {
	switch o.Mechanism {
	case MechMemPod:
		c := core.DefaultConfig()
		if o.MemPod.Interval > 0 {
			c.Interval = o.MemPod.Interval
		}
		if o.MemPod.Counters > 0 {
			c.Counters = o.MemPod.Counters
		}
		if o.MemPod.CounterBits > 0 {
			c.CounterBits = o.MemPod.CounterBits
		}
		c.CacheBytes = o.MemPod.CacheBytes
		c.UseFullCounters = o.MemPod.UseFullCounters
		return c, nil
	case MechHMA:
		c := hma.DefaultConfig()
		if o.HMA.Interval > 0 {
			c.Interval = o.HMA.Interval
		}
		if o.HMA.SortStall > 0 {
			c.SortStall = o.HMA.SortStall
		}
		if o.HMA.MaxMigrations > 0 {
			c.MaxMigrations = o.HMA.MaxMigrations
		}
		c.CacheBytes = o.HMA.CacheBytes
		return c, nil
	case MechTHM:
		c := thm.DefaultConfig()
		c.CacheBytes = o.THM.CacheBytes
		return c, nil
	case MechCAMEO:
		return cameo.DefaultConfig(), nil
	case MechMigrant:
		c := migrant.DefaultConfig()
		if o.Migrant.Epoch > 0 {
			c.Epoch = o.Migrant.Epoch
		}
		if o.Migrant.HotThreshold > 0 {
			c.HotThreshold = o.Migrant.HotThreshold
		}
		if o.Migrant.FaultCost > 0 {
			c.FaultCost = o.Migrant.FaultCost
		}
		return c, nil
	case MechTLM, MechHBMOnly, MechDDROnly:
		return nil, nil
	default:
		return nil, fmt.Errorf("mempod: unknown mechanism %q (valid: %s)",
			o.Mechanism, mechanismNames())
	}
}

// mechanismNames renders the Mechanisms list for error messages.
func mechanismNames() string {
	names := make([]string, len(Mechanisms()))
	for i, m := range Mechanisms() {
		names[i] = string(m)
	}
	return strings.Join(names, ", ")
}

func lookupWorkload(name string) (workload.Workload, error) {
	for _, w := range workload.All() {
		if w.Name == name {
			return w, nil
		}
	}
	return workload.Workload{}, fmt.Errorf("mempod: unknown workload %q (see Workloads())", name)
}
