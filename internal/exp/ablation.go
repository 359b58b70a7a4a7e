package exp

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/stats"
)

// PodCounts are the clustering ablation points. With 8 fast and 4 slow
// channels, pods must divide both: 1 pod is the fully centralized
// controller the paper argues against (§5.3); 4 is the design point (one
// pod per slow MC, §5.1); 2 is the midpoint.
var PodCounts = []int{1, 2, 4}

// podSweepBuilders enumerates the clustering ablation grid: the TLM
// baseline plus the same MemPod configuration at each pod count.
func (c Config) podSweepBuilders() ([]builder, error) {
	fast, slow, err := c.specPair("ablation-pods")
	if err != nil {
		return nil, err
	}
	builders := []builder{{"TLM", Cell{nil, stdLayout(), fast, slow}}}
	for _, pods := range PodCounts {
		builders = append(builders, builder{fmt.Sprintf("MemPod/%dpod", pods),
			Cell{core.DefaultConfig(), layoutForPods(pods), fast, slow}})
	}
	return builders, nil
}

// PodSweep is the clustering ablation DESIGN.md calls out: the same MemPod
// configuration run with 1, 2 and 4 pods, against the no-migration TLM.
// More pods mean more parallel migration drivers and more total MEA
// entries (K per pod), at zero communication between pods.
func (c Config) PodSweep() (*report.Table, error) {
	builders, err := c.buildersFor("ablation-pods")
	if err != nil {
		return nil, err
	}
	res, err := c.matrix(builders)
	if err != nil {
		return nil, err
	}
	t := report.New("ablation-pods", "Pod-count ablation: average AMMAT normalized to TLM",
		"configuration", "normalized AMMAT", "moved MB (avg)", "migs/interval (avg)")
	for _, b := range builders[1:] {
		_, _, norm := c.averages(res[b.name], func(r stats.Result) float64 {
			return r.Normalized(res["TLM"][r.Workload])
		})
		_, _, moved := c.averages(res[b.name], func(r stats.Result) float64 {
			return float64(r.Mig.BytesMoved) / (1 << 20)
		})
		_, _, migs := c.averages(res[b.name], func(r stats.Result) float64 {
			if r.Mig.Intervals == 0 {
				return 0
			}
			return float64(r.Mig.PageMigrations) / float64(r.Mig.Intervals)
		})
		t.Addf(b.name, norm, moved, migs)
	}
	return t, nil
}

// trackerSweepBuilders enumerates the tracking ablation grid.
func (c Config) trackerSweepBuilders() ([]builder, error) {
	fast, slow, err := c.specPair("ablation-tracker")
	if err != nil {
		return nil, err
	}
	fc := core.DefaultConfig()
	fc.UseFullCounters = true
	return []builder{
		{"TLM", Cell{nil, stdLayout(), fast, slow}},
		{"MemPod", Cell{core.DefaultConfig(), stdLayout(), fast, slow}},
		{"MemPod-FC", Cell{fc, stdLayout(), fast, slow}},
	}, nil
}

// TrackerSweep is the tracking ablation: MemPod with its 736 B MEA units
// versus the same mechanism driven by exact Full Counters (9 MB-class
// storage), both migrating at most K pages per pod per epoch. The paper's
// claim is that MEA gives up little or nothing here.
func (c Config) TrackerSweep() (*report.Table, error) {
	builders, err := c.buildersFor("ablation-tracker")
	if err != nil {
		return nil, err
	}
	res, err := c.matrix(builders)
	if err != nil {
		return nil, err
	}
	t := report.New("ablation-tracker", "Tracker ablation: MEA (736 B) vs Full Counters (MB-class)",
		"tracker", "normalized AMMAT", "moved MB (avg)")
	for _, name := range []string{"MemPod", "MemPod-FC"} {
		_, _, norm := c.averages(res[name], func(r stats.Result) float64 {
			return r.Normalized(res["TLM"][r.Workload])
		})
		_, _, moved := c.averages(res[name], func(r stats.Result) float64 {
			return float64(r.Mig.BytesMoved) / (1 << 20)
		})
		t.Addf(name, norm, moved)
	}
	return t, nil
}

// layoutForPods is the standard layout clustered into the given number of
// pods.
func layoutForPods(pods int) addr.Layout {
	l := stdLayout()
	l.NumPods = pods
	return l
}
