package mempod

import (
	"repro/internal/dram"
	"repro/internal/exp"
	"repro/internal/report"
)

// Table is a rendered experiment result: the rows/series of one of the
// paper's tables or figures.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Text and CSV are pre-rendered forms.
	Text string
	CSV  string
}

func fromReport(t *report.Table) *Table {
	return &Table{
		ID: t.ID, Title: t.Title, Columns: t.Columns, Rows: t.Rows,
		Text: t.String(), CSV: t.CSV(),
	}
}

// ExperimentScale selects how much of the evaluation to run.
type ExperimentScale int

// Experiment scales: Quick runs a representative subset in seconds per
// figure, Full runs the paper's complete workload set (minutes per figure
// on one core).
const (
	Quick ExperimentScale = iota
	Full
)

// Experiment identifies one of the paper's tables or figures.
type Experiment string

// All experiments of the paper's evaluation.
const (
	Fig1  Experiment = "fig1"  // MEA counting accuracy vs FC
	Fig2  Experiment = "fig2"  // MEA vs FC future prediction (averages)
	Fig3  Experiment = "fig3"  // MEA vs FC prediction, selected workloads
	Fig6  Experiment = "fig6"  // epoch x counters design space
	Fig7  Experiment = "fig7"  // counter width sensitivity
	Fig8  Experiment = "fig8"  // mechanism comparison
	Fig9  Experiment = "fig9"  // bookkeeping-cache sensitivity
	Fig10 Experiment = "fig10" // future-technology scalability
	// SpecGrid is this repository's extension beyond the paper: every
	// mechanism (including the OS-assisted Migrant policy) over several
	// memory-spec pairs from the dram preset registry.
	SpecGrid Experiment = "specgrid"
	Table1   Experiment = "table1" // building-block comparison
	Table2   Experiment = "table2" // system configuration
	Table3   Experiment = "table3" // mixed workloads
)

// Experiments lists every regenerable table and figure in paper order.
func Experiments() []Experiment {
	return []Experiment{Fig1, Fig2, Fig3, Table1, Table2, Table3, Fig6, Fig7, Fig8, Fig9, Fig10, SpecGrid}
}

// RunOptions tunes how an experiment executes, not what it simulates.
type RunOptions struct {
	// Scale selects Quick or Full evaluation.
	Scale ExperimentScale
	// Parallelism bounds concurrent simulation cells (0 = GOMAXPROCS,
	// 1 = serial). Results are identical for any value: every cell builds
	// its own simulator state and cells are assembled in a fixed order.
	Parallelism int
	// Progress, when non-nil, observes cell completion (done of total).
	Progress func(done, total int)
	// FastSpec/SlowSpec name dram preset specs (see Specs()) for the
	// baseline experiments' memory levels; empty selects the paper pair.
	// Fig10 (defined as the future pair) and SpecGrid (which sweeps its
	// own pairs) ignore them.
	FastSpec string
	SlowSpec string
	// Results, when non-nil, memoizes simulation cells across experiments
	// and processes (see ResultCache). Experiments sharing design points —
	// Fig6 and Fig7 overlap on the paper's chosen configuration, Fig8 and
	// the oracle figures share whole matrices — simulate each distinct
	// cell once per cache, and a persistent cache skips them entirely on
	// the next run. Results are field-identical with or without a cache.
	Results *ResultCache
}

// RunExperiment regenerates one table or figure of the paper at the given
// scale. Sweeps (Fig6, Fig7, Fig9) always run on a representative workload
// subset; Fig1–3, Fig8 and Fig10 use the full 27-workload set at Full
// scale. Simulations fan out to GOMAXPROCS workers; use RunExperimentOpts
// to bound or observe them.
func RunExperiment(e Experiment, scale ExperimentScale) (*Table, error) {
	return RunExperimentOpts(e, RunOptions{Scale: scale})
}

// RunExperimentOpts is RunExperiment with execution options.
func RunExperimentOpts(e Experiment, opts RunOptions) (*Table, error) {
	cfg := expConfig(e, opts.Scale)
	cfg.Parallelism = opts.Parallelism
	cfg.Progress = opts.Progress
	if opts.Results != nil {
		cfg.Results = opts.Results.c
	}
	if opts.FastSpec != "" || opts.SlowSpec != "" {
		if _, _, err := dram.PresetPair(opts.FastSpec, opts.SlowSpec); err != nil {
			return nil, err
		}
		cfg.FastSpec, cfg.SlowSpec = opts.FastSpec, opts.SlowSpec
	}
	known := false
	for _, k := range Experiments() {
		if k == e {
			known = true
			break
		}
	}
	if !known {
		return nil, errUnknownExperiment(e)
	}
	t, err := cfg.Experiment(string(e))
	if err != nil {
		return nil, err
	}
	return fromReport(t), nil
}

// SweepWorkloads is the representative subset the design-space sweeps run
// on (one per behaviour class: stable hot set, drifting hot set, pointer
// chasing, streaming, work front, mixed). It aliases the exp package's
// list, so the facade and the experiments can never drift.
var SweepWorkloads = exp.SweepWorkloadNames

// expConfig returns the standard configuration experiment e runs at.
// Sweeps are bounded to the subset even at full scale (they multiply run
// counts by 30+), as documented in EXPERIMENTS.md.
func expConfig(e Experiment, scale ExperimentScale) exp.Config {
	return exp.ConfigFor(string(e), scale == Full)
}

type errUnknownExperiment Experiment

func (e errUnknownExperiment) Error() string {
	return "mempod: unknown experiment " + string(e)
}
