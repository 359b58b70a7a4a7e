package exp

import (
	"repro/internal/report"
	"repro/internal/stats"
)

// EnergyTable evaluates the §5.3 energy argument: migration traffic that
// crosses the global switch costs interconnect energy that MemPod's
// intra-pod datapath never pays. The table reports, per mechanism, total
// data-movement energy, the migration-interconnect component, and data
// moved, averaged over the config's workloads.
func (c Config) EnergyTable() (*report.Table, error) {
	builders, err := c.buildersFor("energy")
	if err != nil {
		return nil, err
	}
	res, err := c.matrix(builders)
	if err != nil {
		return nil, err
	}
	t := report.New("energy", "Data-movement energy (§5.3): averages per workload",
		"mechanism", "total mJ", "migration switch mJ", "moved MB", "mJ per moved MB")
	for _, m := range append([]string{"TLM"}, fig8Order...) {
		if m == "HBM-only" {
			continue // different layout; not an energy-comparable point
		}
		_, _, total := c.averages(res[m], func(r stats.Result) float64 {
			return r.Energy().TotalMJ()
		})
		_, _, sw := c.averages(res[m], func(r stats.Result) float64 {
			return r.Energy().MigrationSwitchMJ()
		})
		_, _, moved := c.averages(res[m], func(r stats.Result) float64 {
			return float64(r.Mig.BytesMoved) / (1 << 20)
		})
		perMB := 0.0
		if moved > 0 {
			perMB = sw / moved
		}
		t.Addf(m, total, sw, moved, perMB)
	}
	return t, nil
}
