package exp

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/report"
)

// Fig6Epochs and Fig6Counters define the §6.3.1 design-space sweep.
var (
	Fig6Epochs   = []clock.Duration{25 * clock.Microsecond, 50 * clock.Microsecond, 100 * clock.Microsecond, 250 * clock.Microsecond, 500 * clock.Microsecond}
	Fig6Counters = []int{16, 32, 64, 128, 256, 512}
)

// designPoint aggregates one MemPod configuration over the config's
// workloads: average AMMAT (ns) and average migrations per pod per
// interval.
type designPoint struct {
	ammat float64
	migs  float64
}

// memPodGridBuilders names one builder per MemPod configuration of a
// design-space sweep. Grid points are labeled by index but cache-keyed by
// configuration, so the same design point appearing in two sweeps (Fig6's
// 50µs/64ctr/16bit is also Fig7's) simulates once per shared cache.
// experiment tags spec-resolution errors with the calling figure's name.
func (c Config) memPodGridBuilders(experiment string, cfgs []core.Config) ([]builder, error) {
	fast, slow, err := c.specPair(experiment)
	if err != nil {
		return nil, err
	}
	builders := make([]builder, len(cfgs))
	for i, mpCfg := range cfgs {
		builders[i] = builder{fmt.Sprintf("MemPod#%d", i), Cell{mpCfg, stdLayout(), fast, slow}}
	}
	return builders, nil
}

// runMemPodGrid evaluates a MemPod grid's builders as one flat
// (configuration × workload) matrix — so a whole design-space sweep fans
// out to c.Parallelism workers at once — and returns one aggregated point
// per configuration, in builder order. It takes a builder constructor's
// results as they come: c.runMemPodGrid(c.buildersFor("fig6")).
func (c Config) runMemPodGrid(builders []builder, err error) ([]designPoint, error) {
	if err != nil {
		return nil, err
	}
	res, err := c.matrix(builders)
	if err != nil {
		return nil, err
	}
	pts := make([]designPoint, len(builders))
	for i, b := range builders {
		var p designPoint
		for _, w := range c.Workloads {
			r := res[b.name][w.Name]
			p.ammat += r.AMMAT()
			if r.Mig.Intervals > 0 {
				p.migs += float64(r.Mig.PageMigrations) /
					float64(r.Mig.Intervals) / float64(stdLayout().NumPods)
			}
		}
		n := float64(len(c.Workloads))
		p.ammat /= n
		p.migs /= n
		pts[i] = p
	}
	return pts, nil
}

// runMemPod runs the config's workloads under one MemPod configuration
// and returns the average AMMAT (ns) and average migrations per pod per
// interval.
func (c Config) runMemPod(mpCfg core.Config) (ammat, migsPerPodInterval float64, err error) {
	pts, err := c.runMemPodGrid(c.memPodGridBuilders("mempod-run", []core.Config{mpCfg}))
	if err != nil {
		return 0, 0, err
	}
	return pts[0].ammat, pts[0].migs, nil
}

// fig6Configs enumerates the Figure 6 design space (16-bit counters,
// caches disabled, as §6.3.1 specifies) in row-major epoch × counter
// order. BestConfigCheck and the distributed-sweep plan share it.
func fig6Configs() []core.Config {
	var cfgs []core.Config
	for _, epoch := range Fig6Epochs {
		for _, k := range Fig6Counters {
			cfgs = append(cfgs, core.Config{Interval: epoch, Counters: k, CounterBits: 16})
		}
	}
	return cfgs
}

// Fig6 regenerates Figure 6: average AMMAT over the epoch-length ×
// counter-count design space (16-bit counters, caches disabled, as §6.3.1
// specifies). Rows are epochs, columns are MEA counter counts.
func (c Config) Fig6() (*report.Table, error) {
	cols := []string{"epoch"}
	for _, k := range Fig6Counters {
		cols = append(cols, fmt.Sprintf("%d ctrs", k))
	}
	t := report.New("fig6", "Average AMMAT (ns) vs epoch length and MEA counters", cols...)
	pts, err := c.runMemPodGrid(c.buildersFor("fig6"))
	if err != nil {
		return nil, err
	}
	i := 0
	for _, epoch := range Fig6Epochs {
		row := []string{epoch.String()}
		for range Fig6Counters {
			row = append(row, fmt.Sprintf("%.2f", pts[i].ammat))
			i++
		}
		t.Add(row...)
	}
	return t, nil
}

// Fig7Widths are the counter widths swept in Figure 7.
var Fig7Widths = []int{1, 2, 4, 8, 16}

// fig7Variants are the two design points of Figure 7's width sweep.
var fig7Variants = []struct {
	label    string
	interval clock.Duration
	counters int
}{
	{"7a: 50us/64", 50 * clock.Microsecond, 64},
	{"7b: 100us/128", 100 * clock.Microsecond, 128},
}

// fig7Configs enumerates the Figure 7 width sweep, variant-major.
func fig7Configs() []core.Config {
	var cfgs []core.Config
	for _, v := range fig7Variants {
		for _, bits := range Fig7Widths {
			cfgs = append(cfgs, core.Config{Interval: v.interval, Counters: v.counters, CounterBits: bits})
		}
	}
	return cfgs
}

// Fig7 regenerates Figure 7: AMMAT (normalized to the 2-bit configuration)
// and migrations per pod per interval versus counter width, for both the
// 50 µs/64-counter (7a) and 100 µs/128-counter (7b) design points.
func (c Config) Fig7() (*report.Table, error) {
	t := report.New("fig7", "Counter width vs normalized AMMAT and migrations/pod/interval",
		"config", "bits", "AMMAT (ns)", "normalized to 2-bit", "migs/pod/interval")
	variants := fig7Variants
	all, err := c.runMemPodGrid(c.buildersFor("fig7"))
	if err != nil {
		return nil, err
	}
	for vi, v := range variants {
		pts := make(map[int]designPoint, len(Fig7Widths))
		for wi, bits := range Fig7Widths {
			pts[bits] = all[vi*len(Fig7Widths)+wi]
		}
		base := pts[2].ammat
		for _, bits := range Fig7Widths {
			p := pts[bits]
			norm := 0.0
			if base > 0 {
				norm = p.ammat / base
			}
			t.Addf(v.label, bits, p.ammat, norm, p.migs)
		}
	}
	return t, nil
}

// BestConfigCheck runs a reduced assertion of the §6.3.1 conclusion: the
// paper's chosen design point (50 µs, 64 counters) must be at or near the
// bottom of the sweep. It returns the chosen point's AMMAT and the sweep
// minimum, for tests.
func (c Config) BestConfigCheck() (chosen, best float64, err error) {
	cfgs := fig6Configs()
	pts, err := c.runMemPodGrid(c.memPodGridBuilders("best-config-check", cfgs))
	if err != nil {
		return 0, 0, err
	}
	best = -1
	for i, cfg := range cfgs {
		ammat := pts[i].ammat
		if best < 0 || ammat < best {
			best = ammat
		}
		if cfg.Interval == 50*clock.Microsecond && cfg.Counters == 64 {
			chosen = ammat
		}
	}
	return chosen, best, nil
}
