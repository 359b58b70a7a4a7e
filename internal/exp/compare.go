package exp

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/thm"
)

// fig8Order is the column order of the Figure 8 comparison.
var fig8Order = []string{"MemPod", "HMA", "THM", "CAMEO", "HBM-only"}

// Fig8 regenerates Figure 8: per-workload AMMAT of every mechanism
// normalized to the no-migration two-level memory (TLM), plus HG/MIX/ALL
// averages and the migration volumes the paper discusses alongside it.
func (c Config) Fig8() (*report.Table, error) {
	builders, err := c.buildersFor("fig8")
	if err != nil {
		return nil, err
	}
	res, err := c.matrix(builders)
	if err != nil {
		return nil, err
	}
	return c.renderComparison("fig8",
		fmt.Sprintf("AMMAT normalized to no-migration TLM (1GB %s + 8GB %s)", builders[0].Fast.Name, builders[0].Slow.Name),
		res, "TLM"), nil
}

// fig10Builders returns the future-technology configurations, built under
// a derived config: the paper reduces HMA's sort penalty by 40% for the
// faster future processor.
func (c Config) fig10Builders() []builder {
	future := c
	future.HMASortStall = c.HMASortStall * 6 / 10
	fast, slow := dram.HBMOverclocked(), dram.DDR4_2400()

	builders := future.baselineBuilders(fast, slow)
	// Rename the HBM-only configuration as the paper does ("HBMoc") and
	// add the DDR-only normalization baseline.
	for i := range builders {
		if builders[i].name == "HBM-only" {
			builders[i].name = "HBMoc"
		}
	}
	return append(builders, builder{"DDR-only", Cell{nil, addr.SlowOnlyLayout(), fast, slow}})
}

// Fig10 regenerates Figure 10, the future-technology scalability study:
// 4 GHz HBM and DDR4-2400, results normalized to a DDR4-2400-only memory.
func (c Config) Fig10() (*report.Table, error) {
	builders, err := c.buildersFor("fig10")
	if err != nil {
		return nil, err
	}
	res, err := c.matrix(builders)
	if err != nil {
		return nil, err
	}
	t := report.New("fig10", "Future memories (4GHz HBM + DDR4-2400): AMMAT normalized to DDR4-2400-only",
		"workload", "TLM", "MemPod", "HMA", "THM", "CAMEO", "HBMoc")
	order := []string{"TLM", "MemPod", "HMA", "THM", "CAMEO", "HBMoc"}
	addRow := func(name string, get func(mech string) float64) {
		row := []string{name}
		for _, m := range order {
			row = append(row, fmt.Sprintf("%.3f", get(m)))
		}
		t.Add(row...)
	}
	for _, w := range c.Workloads {
		base := res["DDR-only"][w.Name]
		addRow(w.Name, func(m string) float64 { return res[m][w.Name].Normalized(base) })
	}
	for _, avg := range []string{"AVG HG", "AVG MIX", "AVG ALL"} {
		addRow(avg, func(m string) float64 {
			hg, mix, all := c.averages(res[m], func(r stats.Result) float64 {
				return r.Normalized(res["DDR-only"][r.Workload])
			})
			switch avg {
			case "AVG HG":
				return hg
			case "AVG MIX":
				return mix
			default:
				return all
			}
		})
	}
	return t, nil
}

// renderComparison builds a normalized-AMMAT table against the named
// baseline configuration.
func (c Config) renderComparison(id, title string, res map[string]map[string]stats.Result, baseName string) *report.Table {
	cols := append([]string{"workload", baseName + " (ns)"}, fig8Order...)
	t := report.New(id, title, cols...)
	for _, w := range c.Workloads {
		base := res[baseName][w.Name]
		row := []string{w.Name, fmt.Sprintf("%.2f", base.AMMAT())}
		for _, m := range fig8Order {
			row = append(row, fmt.Sprintf("%.3f", res[m][w.Name].Normalized(base)))
		}
		t.Add(row...)
	}
	for _, avg := range []string{"AVG HG", "AVG MIX", "AVG ALL"} {
		row := []string{avg, ""}
		for _, m := range fig8Order {
			hg, mix, all := c.averages(res[m], func(r stats.Result) float64 {
				return r.Normalized(res[baseName][r.Workload])
			})
			v := all
			switch avg {
			case "AVG HG":
				v = hg
			case "AVG MIX":
				v = mix
			}
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		t.Add(row...)
	}
	// Migration volume summary (the paper quotes GB moved per experiment).
	volRow := []string{"moved MB (avg)", ""}
	for _, m := range fig8Order {
		_, _, all := c.averages(res[m], func(r stats.Result) float64 {
			return float64(r.Mig.BytesMoved) / (1 << 20)
		})
		volRow = append(volRow, fmt.Sprintf("%.1f", all))
	}
	t.Add(volRow...)
	return t
}

// Fig9Sizes are the bookkeeping-cache capacities of Figure 9.
var Fig9Sizes = []int{16 << 10, 32 << 10, 64 << 10}

// fig9MechNames are the cached-mechanism rows of Figure 9.
var fig9MechNames = []string{"MemPod", "THM", "HMA"}

// fig9Label names one (mechanism, cache size) configuration.
func fig9Label(mech string, size int) string {
	if size > 0 {
		return fmt.Sprintf("%s/%dKB", mech, size>>10)
	}
	return fmt.Sprintf("%s/no-cache", mech)
}

// fig9Builders enumerates the Figure 9 bookkeeping-cache sensitivity
// grid: the TLM baseline plus every (mechanism × cache size) pair.
func (c Config) fig9Builders() ([]builder, error) {
	fast, slow, err := c.specPair("fig9")
	if err != nil {
		return nil, err
	}
	builders := []builder{{"TLM", Cell{nil, stdLayout(), fast, slow}}}
	mechs := []struct {
		name string
		cfg  func(cacheBytes int) any
	}{
		{"MemPod", func(cb int) any { cfg := core.DefaultConfig(); cfg.CacheBytes = cb; return cfg }},
		{"THM", func(cb int) any { cfg := thm.DefaultConfig(); cfg.CacheBytes = cb; return cfg }},
		{"HMA", func(cb int) any { cfg := c.hmaConfig(); cfg.CacheBytes = cb; return cfg }},
	}
	sizes := append([]int{0}, Fig9Sizes...)
	for _, m := range mechs {
		for _, size := range sizes {
			builders = append(builders, builder{fig9Label(m.name, size), Cell{m.cfg(size), stdLayout(), fast, slow}})
		}
	}
	return builders, nil
}

// Fig9 regenerates Figure 9: AMMAT of MemPod, THM and HMA with 16/32/64 KB
// bookkeeping caches, normalized to the no-migration TLM, plus each
// mechanism's cache-disabled reference.
func (c Config) Fig9() (*report.Table, error) {
	builders, err := c.buildersFor("fig9")
	if err != nil {
		return nil, err
	}
	res, err := c.matrix(builders)
	if err != nil {
		return nil, err
	}
	t := report.New("fig9", "Bookkeeping-cache sensitivity: average AMMAT normalized to TLM",
		"mechanism", "no cache", "16KB", "32KB", "64KB")
	for _, name := range fig9MechNames {
		row := []string{name}
		for _, size := range append([]int{0}, Fig9Sizes...) {
			_, _, all := c.averages(res[fig9Label(name, size)], func(r stats.Result) float64 {
				return r.Normalized(res["TLM"][r.Workload])
			})
			row = append(row, fmt.Sprintf("%.3f", all))
		}
		t.Add(row...)
	}
	return t, nil
}
