package exp

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/resultcache"
)

// planConfig is the small sweep configuration the plan tests run at.
func planConfig() Config {
	c := QuickConfig()
	c.Requests = 30_000 // enough for at least one oracle interval
	c.Workloads = selectWorkloads("cactus", "mix5")
	return c
}

func TestParamsRoundTrip(t *testing.T) {
	c := planConfig()
	c.FastSpec, c.SlowSpec = "HBM", "DDR4-1600"
	p := c.Params()
	b, err := json.Marshal(Job{Experiment: "fig6", Params: p})
	if err != nil {
		t.Fatal(err)
	}
	var job Job
	if err := json.Unmarshal(b, &job); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(job.Params, p) {
		t.Fatalf("params round-trip mismatch:\n got %+v\nwant %+v", job.Params, p)
	}
	back, err := job.Params.Config()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Params(), p) {
		t.Fatalf("config round-trip mismatch:\n got %+v\nwant %+v", back.Params(), p)
	}
	if _, err := (Params{Workloads: []string{"nonesuch"}}).Config(); err == nil {
		t.Fatal("bad workload name accepted")
	}
}

// TestPlanCoversExperimentCells runs an experiment against a fresh cache
// and asserts the plan enumerates exactly the cells it simulated: same
// count (Misses) and every key resident (all Hits on lookup). The table
// must name every experiment that plans cells.
func TestPlanCoversExperimentCells(t *testing.T) {
	ids := []string{
		"fig1", "fig2", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10",
		"specgrid", "ablation-pods", "ablation-tracker", "energy",
	}
	covered := make(map[string]bool, len(ids))
	for _, id := range ids {
		covered[id] = true
	}
	for _, id := range ExperimentIDs() {
		plan, err := BuildPlan([]Job{{Experiment: id, Params: planConfig().Params()}})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Len() > 0 && !covered[id] {
			t.Errorf("experiment %s plans %d cells but is not covered", id, plan.Len())
		}
	}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			c := planConfig()
			c.Results = resultcache.New()
			if _, err := c.Experiment(id); err != nil {
				t.Fatal(err)
			}
			plan, err := BuildPlan([]Job{{Experiment: id, Params: c.Params()}})
			if err != nil {
				t.Fatal(err)
			}
			if got := c.Results.Stats().Misses; got != plan.Len() {
				t.Fatalf("experiment simulated %d cells, plan enumerates %d", got, plan.Len())
			}
			for i := 0; i < plan.Len(); i++ {
				if _, ok := c.Results.Lookup(plan.Key(i)); !ok {
					t.Fatalf("plan cell %d (%s) not in cache after the run", i, plan.Key(i).Canonical())
				}
			}
		})
	}
}

// TestPlanStaticTablesEmpty pins that the static tables contribute no
// cells and unknown experiments fail to plan.
func TestPlanStaticTablesEmpty(t *testing.T) {
	plan, err := BuildPlan([]Job{
		{Experiment: "table1", Params: planConfig().Params()},
		{Experiment: "table2", Params: planConfig().Params()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != 0 {
		t.Fatalf("static tables planned %d cells", plan.Len())
	}
	if _, err := BuildPlan([]Job{{Experiment: "nonesuch", Params: planConfig().Params()}}); err == nil {
		t.Fatal("unknown experiment planned")
	}
}

// TestPlanDeterministic pins that equal jobs build equal plans (the
// distributed protocol's core assumption) and that overlapping jobs
// dedupe shared cells.
func TestPlanDeterministic(t *testing.T) {
	jobs := []Job{
		{Experiment: "fig6", Params: planConfig().Params()},
		{Experiment: "fig7", Params: planConfig().Params()},
	}
	a, err := BuildPlan(jobs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPlan(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() || a.Len() != b.Len() {
		t.Fatalf("same jobs, different plans: %016x/%d vs %016x/%d",
			a.Fingerprint(), a.Len(), b.Fingerprint(), b.Len())
	}
	solo6, _ := BuildPlan(jobs[:1])
	solo7, _ := BuildPlan(jobs[1:])
	if a.Len() >= solo6.Len()+solo7.Len() {
		t.Fatalf("fig6+fig7 plan (%d cells) does not dedupe the shared design point (%d + %d)",
			a.Len(), solo6.Len(), solo7.Len())
	}
	if solo6.Fingerprint() == a.Fingerprint() {
		t.Fatal("different job sets share a fingerprint")
	}
}

// TestRunCellsFrames pins the RunCells contract: one frame per requested
// index in request order, each a valid MPR1 file carrying that cell's
// key; out-of-range indices fail their own slot only.
func TestRunCellsFrames(t *testing.T) {
	c := planConfig()
	plan, err := BuildPlan([]Job{{Experiment: "fig1", Params: c.Params()}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != len(c.Workloads) {
		t.Fatalf("oracle plan has %d cells, want one per workload (%d)", plan.Len(), len(c.Workloads))
	}
	cache := resultcache.New()
	indices := []int{1, 0, plan.Len()}
	runs := plan.RunCells(indices, RunCellsOptions{Results: cache})
	if len(runs) != len(indices) {
		t.Fatalf("got %d results for %d indices", len(runs), len(indices))
	}
	for oi, i := range indices[:2] {
		if runs[oi].Err != nil {
			t.Fatalf("cell %d: %v", i, runs[oi].Err)
		}
		key, payload, err := resultcache.DecodeFile(runs[oi].Frame)
		if err != nil {
			t.Fatalf("cell %d frame: %v", i, err)
		}
		if key != plan.Key(i) {
			t.Fatalf("cell %d frame keyed %q, want %q", i, key.Canonical(), plan.Key(i).Canonical())
		}
		if len(payload) == 0 {
			t.Fatalf("cell %d frame has empty payload", i)
		}
	}
	if runs[2].Err == nil {
		t.Fatal("out-of-range index did not error")
	}
	// A failing cell fails its own slot, named builder/workload like a
	// matrix cell: a trace too short for one oracle interval.
	short := c
	short.Requests = 1000
	shortPlan, err := BuildPlan([]Job{{Experiment: "fig1", Params: short.Params()}})
	if err != nil {
		t.Fatal(err)
	}
	failed := shortPlan.RunCells([]int{0}, RunCellsOptions{})
	if err := failed[0].Err; err == nil || !strings.Contains(err.Error(), "oracle/cactus: ") {
		t.Fatalf("failing cell error %v does not name oracle/cactus", err)
	}
	// A second pass answers entirely from the cache: same frames, no new
	// misses.
	before := cache.Stats().Misses
	again := plan.RunCells(indices[:2], RunCellsOptions{Results: cache})
	if cache.Stats().Misses != before {
		t.Fatal("warm RunCells recomputed")
	}
	for oi := range again {
		if string(again[oi].Frame) != string(runs[oi].Frame) {
			t.Fatalf("warm frame %d differs from cold frame", oi)
		}
	}
}
