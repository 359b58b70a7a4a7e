package workload

import (
	"fmt"

	"repro/internal/trace"
)

// Workload is an 8-core multi-programmed trace recipe: either eight copies
// of one benchmark (homogeneous) or one of the twelve mixes of Table 3.
type Workload struct {
	Name        string
	Homogeneous bool
	Benchmarks  [8]string // one benchmark per core
}

// Stream builds the workload's merged, timestamp-ordered trace with
// exactly n requests. The same (n, seed) always yields the same trace.
// The stream pulls every core's generator on the caller's goroutine;
// Record yields the same requests with each core generating on its own.
func (w Workload) Stream(n int, seed int64) (trace.Stream, error) {
	srcs, err := w.generators(seed)
	if err != nil {
		return nil, err
	}
	return merged(srcs, n), nil
}

// Record records the workload's n-request trace with each core's
// generator running on its own goroutine. The snapshot is byte-identical
// to trace.Record(w.Stream(n, seed), n).
func (w Workload) Record(n int, seed int64) (*trace.Snapshot, error) {
	srcs, err := w.generators(seed)
	if err != nil {
		return nil, err
	}
	return record(srcs, n)
}

// generators resolves each core's benchmark and builds its generator.
func (w Workload) generators(seed int64) ([]trace.Stream, error) {
	var ps [8]Profile
	for core, name := range w.Benchmarks {
		p, ok := ByName(name)
		if !ok {
			return nil, fmt.Errorf("workload %s: unknown benchmark %q", w.Name, name)
		}
		ps[core] = p
	}
	return newGenerators(&ps, seed)
}

// newGenerators builds the eight per-core generators of a workload: core c
// runs ps[c] under seed*8+c+1. Stream and Record of both workload kinds
// start here, so the serial and the parallel path merge the same streams.
func newGenerators(ps *[8]Profile, seed int64) ([]trace.Stream, error) {
	srcs := make([]trace.Stream, len(ps))
	for core, p := range ps {
		g, err := NewGenerator(p, core, seed*8+int64(core)+1)
		if err != nil {
			return nil, err
		}
		srcs[core] = g
	}
	return srcs, nil
}

// merged is the time-ordered merge of the per-core streams, cut at n.
func merged(srcs []trace.Stream, n int) trace.Stream {
	return trace.NewLimitStream(trace.NewMergeStream(srcs...), n)
}

// MustStream is Stream for known-good workloads; it panics on error.
func (w Workload) MustStream(n int, seed int64) trace.Stream {
	s, err := w.Stream(n, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// homogeneousSet lists the paper's 15 homogeneous workloads. (Table 3
// names 17 benchmarks; the paper runs 15 of them homogeneously. The two
// mix-only benchmarks here are dealii and sphinx.)
var homogeneousSet = []string{
	"astar", "bwaves", "bzip", "cactus", "gcc", "gems", "lbm", "leslie",
	"libquantum", "mcf", "milc", "omnetpp", "soplex", "xalanc", "zeusmp",
}

// Homogeneous returns the workload running 8 copies of one benchmark. As
// in the paper, the copies share no pages: each core's footprint occupies
// a disjoint interleaved slice of the address space.
func Homogeneous(name string) (Workload, error) {
	if _, ok := ByName(name); !ok {
		return Workload{}, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	w := Workload{Name: name, Homogeneous: true}
	for i := range w.Benchmarks {
		w.Benchmarks[i] = name
	}
	return w, nil
}

// mixes encodes Table 3 normalized to exactly eight cores per mix. The
// published table is reproduced from OCR with ambiguous check-mark counts
// in a few columns; columns with more than eight marks are truncated and
// columns with fewer are padded by repeating members, preserving each
// mix's dominant character.
var mixes = [12][8]string{
	{"astar", "gcc", "gems", "lbm", "leslie", "mcf", "milc", "omnetpp"},
	{"gcc", "gcc", "gems", "leslie", "mcf", "omnetpp", "sphinx", "zeusmp"},
	{"gcc", "lbm", "lbm", "leslie", "libquantum", "mcf", "milc", "sphinx"},
	{"bzip", "dealii", "dealii", "gcc", "mcf", "mcf", "milc", "soplex"},
	{"bwaves", "bzip", "bzip", "cactus", "dealii", "dealii", "mcf", "xalanc"},
	{"astar", "bwaves", "bzip", "gcc", "gcc", "lbm", "libquantum", "mcf"},
	{"astar", "bwaves", "bwaves", "bzip", "bzip", "dealii", "soplex", "xalanc"},
	{"astar", "astar", "bwaves", "bzip", "cactus", "dealii", "omnetpp", "xalanc"},
	{"bwaves", "bwaves", "dealii", "gems", "gems", "leslie", "leslie", "sphinx"},
	{"astar", "astar", "gcc", "gcc", "lbm", "libquantum", "libquantum", "mcf"},
	{"bzip", "bzip", "gems", "gems", "leslie", "leslie", "omnetpp", "sphinx"},
	{"bwaves", "bwaves", "cactus", "cactus", "cactus", "dealii", "dealii", "xalanc"},
}

// Mix returns mix workload i in [1, 12], per Table 3.
func Mix(i int) (Workload, error) {
	if i < 1 || i > len(mixes) {
		return Workload{}, fmt.Errorf("workload: mix %d out of [1,%d]", i, len(mixes))
	}
	return Workload{
		Name:       fmt.Sprintf("mix%d", i),
		Benchmarks: mixes[i-1],
	}, nil
}

// All returns the paper's full workload set: 15 homogeneous workloads then
// mixes 1–12, in stable order.
func All() []Workload {
	out := make([]Workload, 0, len(homogeneousSet)+len(mixes))
	for _, name := range homogeneousSet {
		w, err := Homogeneous(name)
		if err != nil {
			panic(err) // homogeneousSet is static and validated by tests
		}
		out = append(out, w)
	}
	for i := 1; i <= len(mixes); i++ {
		w, err := Mix(i)
		if err != nil {
			panic(err)
		}
		out = append(out, w)
	}
	return out
}

// HomogeneousNames returns the names of the 15 homogeneous workloads.
func HomogeneousNames() []string {
	out := make([]string, len(homogeneousSet))
	copy(out, homogeneousSet)
	return out
}

// MixTable returns, for each mix, its per-core benchmark composition.
// This regenerates Table 3 of the paper.
func MixTable() map[string][8]string {
	out := make(map[string][8]string, len(mixes))
	for i, m := range mixes {
		out[fmt.Sprintf("mix%d", i+1)] = m
	}
	return out
}
