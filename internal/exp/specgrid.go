package exp

import (
	"fmt"

	"repro/internal/cameo"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/migrant"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/thm"
)

// SpecPairs are the (fast, slow) preset combinations of the spec-grid
// study: the paper pair as the anchor, a next-generation stacked+DDR5
// system, a far-memory system (fast stacked tier over CXL-attached
// expansion), and the DRAM+NVM system MigrantStore-style OS migration was
// designed for.
var SpecPairs = [][2]string{
	{"HBM", "DDR4-1600"},
	{"HBM2", "DDR5-4800"},
	{"HBM3", "CXL-DDR5"},
	{"HBM", "NVM-PCM"},
}

// specGridOrder is the mechanism column order of the spec grid: the four
// hardware mechanisms plus the OS-assisted Migrant policy, all normalized
// to the pair's own no-migration TLM.
var specGridOrder = []string{"MemPod", "HMA", "THM", "CAMEO", "Migrant"}

// specGridBuilders enumerates the (mechanism × spec-pair) grid.
func (c Config) specGridBuilders() ([]builder, error) {
	var builders []builder
	for _, pair := range SpecPairs {
		fast, err := dram.Preset(pair[0])
		if err != nil {
			return nil, fmt.Errorf("exp: specgrid: fast spec: %w", err)
		}
		slow, err := dram.Preset(pair[1])
		if err != nil {
			return nil, fmt.Errorf("exp: specgrid: slow spec: %w", err)
		}
		prefix := pair[0] + "+" + pair[1]
		for _, m := range []struct {
			name string
			cfg  any
		}{
			{"TLM", nil},
			{"MemPod", core.DefaultConfig()},
			{"HMA", c.hmaConfig()},
			{"THM", thm.DefaultConfig()},
			{"CAMEO", cameo.DefaultConfig()},
			{"Migrant", migrant.DefaultConfig()},
		} {
			builders = append(builders, builder{prefix + "/" + m.name, Cell{m.cfg, stdLayout(), fast, slow}})
		}
	}
	return builders, nil
}

// SpecGrid runs the (mechanism × spec-pair) matrix: for every spec pair,
// every mechanism (including Migrant), with AMMAT normalized to the same
// pair's TLM so columns are comparable across memory technologies. One
// row per (pair, workload), plus an ALL-average row per pair.
func (c Config) SpecGrid() (*report.Table, error) {
	builders, err := c.buildersFor("specgrid")
	if err != nil {
		return nil, err
	}
	res, err := c.matrix(builders)
	if err != nil {
		return nil, err
	}
	cols := append([]string{"specs", "workload", "TLM (ns)"}, specGridOrder...)
	t := report.New("specgrid", "Mechanism × memory-spec grid: AMMAT normalized to each pair's TLM", cols...)
	for _, pair := range SpecPairs {
		prefix := pair[0] + "+" + pair[1]
		for _, w := range c.Workloads {
			base := res[prefix+"/TLM"][w.Name]
			row := []string{prefix, w.Name, fmt.Sprintf("%.2f", base.AMMAT())}
			for _, m := range specGridOrder {
				row = append(row, fmt.Sprintf("%.3f", res[prefix+"/"+m][w.Name].Normalized(base)))
			}
			t.Add(row...)
		}
		row := []string{prefix, "AVG ALL", ""}
		for _, m := range specGridOrder {
			_, _, all := c.averages(res[prefix+"/"+m], func(r stats.Result) float64 {
				return r.Normalized(res[prefix+"/TLM"][r.Workload])
			})
			row = append(row, fmt.Sprintf("%.3f", all))
		}
		t.Add(row...)
	}
	return t, nil
}
