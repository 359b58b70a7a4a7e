package exp

import (
	"fmt"

	"repro/internal/report"
)

// SweepWorkloadNames is the representative workload subset the
// design-space sweeps run on (one per behaviour class: stable hot set,
// drifting hot set, pointer chasing, streaming, work front, mixed). The
// facade's SweepWorkloads aliases this slice and ConfigFor selects it, so
// the two can never drift.
var SweepWorkloadNames = []string{"cactus", "xalanc", "mcf", "bwaves", "lbm", "mix5"}

// ExperimentIDs lists every experiment id Experiment dispatches, in paper
// order followed by this repository's ablations.
func ExperimentIDs() []string {
	return []string{
		"fig1", "fig2", "fig3", "table1", "table2", "table3",
		"fig6", "fig7", "fig8", "fig9", "fig10", "specgrid",
		"ablation-pods", "ablation-tracker", "energy",
	}
}

// Experiment regenerates the named table or figure under this config. It
// is the single dispatch point shared by the facade, cmd/experiments and
// distributed workers, so an experiment renders identically whichever
// path reached it.
func (c Config) Experiment(id string) (*report.Table, error) {
	switch id {
	case "fig1":
		return c.Fig1()
	case "fig2":
		return c.Fig2()
	case "fig3":
		return c.Fig3()
	case "fig6":
		return c.Fig6()
	case "fig7":
		return c.Fig7()
	case "fig8":
		return c.Fig8()
	case "fig9":
		return c.Fig9()
	case "fig10":
		return c.Fig10()
	case "specgrid":
		return c.SpecGrid()
	case "table1":
		return Table1(), nil
	case "table2":
		return Table2(), nil
	case "table3":
		return Table3(), nil
	case "ablation-pods":
		return c.PodSweep()
	case "ablation-tracker":
		return c.TrackerSweep()
	case "energy":
		return c.EnergyTable()
	default:
		return nil, fmt.Errorf("exp: unknown experiment %q", id)
	}
}

// ConfigFor returns the standard configuration experiment id runs at:
// Quick or Full scale, with the design-space sweeps bounded to the
// representative workload subset (they multiply run counts by 30+) as
// documented in EXPERIMENTS.md.
func ConfigFor(id string, full bool) Config {
	var cfg Config
	if full {
		cfg = DefaultConfig()
	} else {
		cfg = QuickConfig()
	}
	switch id {
	case "fig6", "fig7", "fig9", "specgrid":
		cfg = cfg.WithWorkloads(SweepWorkloadNames...)
		if full {
			cfg.Requests = 1_000_000
		}
	}
	return cfg
}
