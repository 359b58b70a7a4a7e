// Package workload generates the multi-programmed memory traces the
// evaluation runs on.
//
// The paper traces SPEC CPU2006 with Sniper on a simulated 8-core CPU and
// replays the traces in Ramulator. SPEC binaries, reference inputs and the
// Sniper toolchain cannot ship with this repository, so each benchmark is
// replaced by a deterministic synthetic generator whose parameters encode
// the memory behaviours the paper's analysis depends on:
//
//   - streaming engines (bwaves, libquantum) whose footprints exceed an
//     interval, making Full Counters predict the future at ~0 accuracy
//     while MEA's recency bias still catches boundary pages;
//   - a work-front engine (lbm) doing a constant amount of work per page,
//     where FC's top counts point at finished pages but MEA tracks the
//     pages still being worked on;
//   - stable hot-set engines (cactus) where exact counting beats MEA;
//   - drifting hot-set engines (xalanc, gcc, omnetpp) where phase changes
//     reward MEA's adaptivity;
//   - libquantum's total footprint fits inside the 1 GB fast memory, which
//     the paper uses to demonstrate the row-buffer co-location effect.
//
// All generators are seeded; identical seeds reproduce identical traces.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/clock"
)

// Profile parameterizes one benchmark's synthetic memory behaviour. An
// access stream is a mixture of three engines: a sweeping work-front
// (weight StreamFrac), a zipf-distributed hot set (weight HotFrac) and
// uniform cold accesses (the remainder).
type Profile struct {
	Name string

	// FootprintPages is the number of distinct 2 KB pages one instance
	// (one core) touches.
	FootprintPages int

	// Hot-set engine.
	HotPages    int     // size of the hot set in pages
	HotFrac     float64 // fraction of touches directed at the hot set
	ZipfS       float64 // zipf skew within the hot set (>1)
	DriftPeriod int     // touches between hot-set drift steps; 0 = stationary
	DriftStep   int     // pages the hot set advances per drift step

	// Sweep engine (streaming / work front).
	StreamFrac   float64 // fraction of touches directed at the sweep window
	SweepWindow  int     // pages in the active window
	SweepAdvance int     // touches per one-page advance of the window

	// Flash engine: a small set of short-lived, heavily hammered pages
	// (buffers, stack frames, transient nodes). One flash slot is
	// re-rolled to a fresh page every FlashPeriod touches, so a slot
	// lives FlashPages x FlashPeriod touches — one to two tracking
	// intervals. Flash pages dominate an interval's top access tiers and
	// then die; they are why exact counting predicts the future poorly
	// (§3 of the paper) while recency-biased MEA catches the survivors.
	FlashPages  int     // slots per core (0 disables the engine)
	FlashFrac   float64 // fraction of touches directed at flash slots
	FlashPeriod int     // touches between single-slot re-rolls

	// Access shape.
	LinesPerTouch int     // consecutive 64 B lines emitted per page touch
	WriteFrac     float64 // fraction of requests that are writebacks

	// GapMean is the mean inter-request gap of one core. The paper's
	// aggregate rate is ~5500 requests per 50 µs over 8 cores
	// (≈ 72.7 ns/request/core); profiles vary around that by intensity.
	GapMean clock.Duration
}

// maxGapMean bounds Profile.GapMean. A core issuing one miss per
// millisecond is idle for a memory simulation, and the bound keeps a
// touch's gap budget (GapMean times up to 63 lines) far from overflow.
const maxGapMean = clock.Millisecond

// Validate checks that the profile is internally consistent.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: profile has no name")
	case p.FootprintPages <= 0:
		return fmt.Errorf("workload %s: footprint %d", p.Name, p.FootprintPages)
	case p.HotPages < 0 || p.HotPages > p.FootprintPages:
		return fmt.Errorf("workload %s: hot pages %d out of range", p.Name, p.HotPages)
	case p.HotFrac < 0 || p.StreamFrac < 0 || p.FlashFrac < 0 ||
		p.HotFrac+p.StreamFrac+p.FlashFrac > 1:
		return fmt.Errorf("workload %s: engine fractions invalid", p.Name)
	case p.FlashFrac > 0 && (p.FlashPages <= 0 || p.FlashPages > p.FootprintPages || p.FlashPeriod <= 0):
		return fmt.Errorf("workload %s: flash parameters invalid", p.Name)
	case p.HotFrac > 0 && p.HotPages < 1:
		return fmt.Errorf("workload %s: hot fraction %g needs hot pages", p.Name, p.HotFrac)
	case p.HotFrac > 0 && p.ZipfS <= 1:
		return fmt.Errorf("workload %s: zipf s must exceed 1", p.Name)
	case p.StreamFrac > 0 && (p.SweepWindow <= 0 || p.SweepWindow > p.FootprintPages || p.SweepAdvance <= 0):
		return fmt.Errorf("workload %s: sweep parameters invalid", p.Name)
	case p.LinesPerTouch <= 0 || p.LinesPerTouch > 32:
		return fmt.Errorf("workload %s: lines per touch %d", p.Name, p.LinesPerTouch)
	case p.WriteFrac < 0 || p.WriteFrac > 1:
		return fmt.Errorf("workload %s: write fraction %f", p.Name, p.WriteFrac)
	case p.GapMean <= 0 || p.GapMean > maxGapMean:
		return fmt.Errorf("workload %s: gap mean %d out of (0, %d]", p.Name, p.GapMean, maxGapMean)
	}
	return nil
}

const (
	mb    = 512              // pages per MiB of footprint (2 KB pages)
	nsGap = clock.Nanosecond // base unit for GapMean
)

// profiles defines the 17 SPEC CPU2006 benchmarks of Table 3. The numbers
// are qualitative stand-ins tuned to the behaviours described in §3 and
// §6.3 of the paper, not measurements of SPEC.
var profiles = map[string]Profile{
	"astar": {
		Name: "astar", FootprintPages: 320 * mb,
		HotPages: 64 * mb, HotFrac: 0.80, ZipfS: 1.15, DriftPeriod: 4000, DriftStep: 8192,
		FlashPages: 2, FlashFrac: 0.12, FlashPeriod: 150,
		LinesPerTouch: 2, WriteFrac: 0.25, GapMean: 95 * nsGap,
	},
	"bwaves": {
		// Pure streaming over a structure far larger than an interval.
		Name: "bwaves", FootprintPages: 400 * mb,
		StreamFrac: 0.95, SweepWindow: 4, SweepAdvance: 4,
		HotPages: mb, HotFrac: 0.02, ZipfS: 1.20,
		LinesPerTouch: 8, WriteFrac: 0.30, GapMean: 55 * nsGap,
	},
	"bzip": {
		Name: "bzip", FootprintPages: 240 * mb,
		HotPages: 48 * mb, HotFrac: 0.68, ZipfS: 1.15, DriftPeriod: 3333, DriftStep: 6144,
		FlashPages: 2, FlashFrac: 0.12, FlashPeriod: 150,
		StreamFrac: 0.15, SweepWindow: 8, SweepAdvance: 16,
		LinesPerTouch: 4, WriteFrac: 0.35, GapMean: 85 * nsGap,
	},
	"cactus": {
		// Stable hot set, no drift: exact counting (FC) predicts best.
		Name: "cactus", FootprintPages: 360 * mb,
		HotPages: 96 * mb, HotFrac: 0.80, ZipfS: 1.15,
		FlashPages: 2, FlashFrac: 0.12, FlashPeriod: 150,
		LinesPerTouch: 3, WriteFrac: 0.30, GapMean: 75 * nsGap,
	},
	"dealii": {
		Name: "dealii", FootprintPages: 280 * mb,
		HotPages: 48 * mb, HotFrac: 0.78, ZipfS: 1.15, DriftPeriod: 5000, DriftStep: 6144,
		FlashPages: 2, FlashFrac: 0.12, FlashPeriod: 150,
		LinesPerTouch: 2, WriteFrac: 0.25, GapMean: 90 * nsGap,
	},
	"gcc": {
		Name: "gcc", FootprintPages: 200 * mb,
		HotPages: 24 * mb, HotFrac: 0.80, ZipfS: 1.20, DriftPeriod: 2000, DriftStep: 6144,
		FlashPages: 2, FlashFrac: 0.12, FlashPeriod: 150,
		LinesPerTouch: 2, WriteFrac: 0.30, GapMean: 110 * nsGap,
	},
	"gems": {
		Name: "gems", FootprintPages: 400 * mb,
		HotPages: 128 * mb, HotFrac: 0.78, ZipfS: 1.10, DriftPeriod: 5000, DriftStep: 16384,
		FlashPages: 2, FlashFrac: 0.12, FlashPeriod: 150,
		LinesPerTouch: 4, WriteFrac: 0.30, GapMean: 60 * nsGap,
	},
	"lbm": {
		// Constant work per page over a large set: a slow work front.
		Name: "lbm", FootprintPages: 450 * mb,
		StreamFrac: 0.90, SweepWindow: 32, SweepAdvance: 20,
		HotPages: mb, HotFrac: 0.05, ZipfS: 1.20,
		LinesPerTouch: 6, WriteFrac: 0.45, GapMean: 55 * nsGap,
	},
	"leslie": {
		Name: "leslie", FootprintPages: 320 * mb,
		StreamFrac: 0.50, SweepWindow: 8, SweepAdvance: 12,
		HotPages: 48 * mb, HotFrac: 0.33, ZipfS: 1.15, DriftPeriod: 8333, DriftStep: 6144,
		FlashPages: 2, FlashFrac: 0.12, FlashPeriod: 150,
		LinesPerTouch: 4, WriteFrac: 0.30, GapMean: 70 * nsGap,
	},
	"libquantum": {
		// Streams repeatedly over a footprint that fits in fast memory:
		// 12 MiB/core × 8 cores = 96 MiB ≪ 1 GB HBM.
		Name: "libquantum", FootprintPages: 12 * mb,
		StreamFrac: 0.95, SweepWindow: 2, SweepAdvance: 4,
		HotPages: mb / 2, HotFrac: 0.02, ZipfS: 1.20,
		LinesPerTouch: 8, WriteFrac: 0.25, GapMean: 60 * nsGap,
	},
	"mcf": {
		Name: "mcf", FootprintPages: 440 * mb,
		HotPages: 128 * mb, HotFrac: 0.78, ZipfS: 1.12, DriftPeriod: 6666, DriftStep: 16384,
		FlashPages: 2, FlashFrac: 0.12, FlashPeriod: 150,
		LinesPerTouch: 1, WriteFrac: 0.20, GapMean: 45 * nsGap,
	},
	"milc": {
		Name: "milc", FootprintPages: 360 * mb,
		HotPages: 64 * mb, HotFrac: 0.58, ZipfS: 1.15, DriftPeriod: 6000, DriftStep: 8192,
		FlashPages: 2, FlashFrac: 0.12, FlashPeriod: 150,
		StreamFrac: 0.25, SweepWindow: 16, SweepAdvance: 24,
		LinesPerTouch: 4, WriteFrac: 0.35, GapMean: 65 * nsGap,
	},
	"omnetpp": {
		Name: "omnetpp", FootprintPages: 240 * mb,
		HotPages: 48 * mb, HotFrac: 0.80, ZipfS: 1.15, DriftPeriod: 2333, DriftStep: 6144,
		FlashPages: 2, FlashFrac: 0.12, FlashPeriod: 150,
		LinesPerTouch: 1, WriteFrac: 0.30, GapMean: 80 * nsGap,
	},
	"soplex": {
		Name: "soplex", FootprintPages: 320 * mb,
		HotPages: 96 * mb, HotFrac: 0.78, ZipfS: 1.15, DriftPeriod: 4000, DriftStep: 6144,
		FlashPages: 2, FlashFrac: 0.12, FlashPeriod: 150,
		LinesPerTouch: 2, WriteFrac: 0.25, GapMean: 70 * nsGap,
	},
	"sphinx": {
		Name: "sphinx", FootprintPages: 220 * mb,
		HotPages: 48 * mb, HotFrac: 0.80, ZipfS: 1.15, DriftPeriod: 6666, DriftStep: 12288,
		FlashPages: 2, FlashFrac: 0.12, FlashPeriod: 150,
		LinesPerTouch: 2, WriteFrac: 0.20, GapMean: 95 * nsGap,
	},
	"xalanc": {
		// Fast-drifting hot set: MEA's adaptivity wins prediction.
		Name: "xalanc", FootprintPages: 280 * mb,
		HotPages: 64 * mb, HotFrac: 0.78, ZipfS: 1.15, DriftPeriod: 2000, DriftStep: 4096,
		FlashPages: 2, FlashFrac: 0.12, FlashPeriod: 150,
		LinesPerTouch: 2, WriteFrac: 0.30, GapMean: 75 * nsGap,
	},
	"zeusmp": {
		Name: "zeusmp", FootprintPages: 360 * mb,
		StreamFrac: 0.50, SweepWindow: 32, SweepAdvance: 48,
		HotPages: 48 * mb, HotFrac: 0.33, ZipfS: 1.15, DriftPeriod: 6666, DriftStep: 6144,
		FlashPages: 2, FlashFrac: 0.12, FlashPeriod: 150,
		LinesPerTouch: 4, WriteFrac: 0.35, GapMean: 70 * nsGap,
	},
}

// ByName returns the profile for a benchmark from Table 3.
func ByName(name string) (Profile, bool) {
	p, ok := profiles[name]
	return p, ok
}

// Names returns all benchmark names, sorted.
func Names() []string {
	out := make([]string, 0, len(profiles))
	for n := range profiles {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
