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

// TestPlanFingerprintsPinned pins every experiment's cell identity: the
// plan fingerprint (a hash of every cell's canonical result-cache key, in
// order) of each ExperimentIDs id at its standard quick and full
// configuration. A persistent result store is addressed by exactly these
// keys, so a change to how a builder, Cell.Key or CellKey renders a cell
// silently orphans every user's store. An intended key change must update
// these values together with a decision about sim.Version and the store
// (bump the version, or document that old entries are abandoned).
func TestPlanFingerprintsPinned(t *testing.T) {
	want := []struct {
		id   string
		full bool
		fp   uint64
	}{
		{"fig1", false, 0x50c8b86f1001b115},
		{"fig2", false, 0x50c8b86f1001b115},
		{"fig3", false, 0x50c8b86f1001b115},
		{"table1", false, 0xce481b57a021c5f2},
		{"table2", false, 0xce481b57a021c5f2},
		{"table3", false, 0xce481b57a021c5f2},
		{"fig6", false, 0x653595ad21869438},
		{"fig7", false, 0x4e4942b4d6f2623c},
		{"fig8", false, 0x27775030603189f6},
		{"fig9", false, 0x11e13929cc575512},
		{"fig10", false, 0x3c0559f6a9e6ae6d},
		{"specgrid", false, 0x90c117bca3ff7eb6},
		{"ablation-pods", false, 0xed25053a88dd293a},
		{"ablation-tracker", false, 0x9ee5a657507b1717},
		{"energy", false, 0x27775030603189f6},
		{"fig1", true, 0xc366f824b2a5aa87},
		{"fig2", true, 0xc366f824b2a5aa87},
		{"fig3", true, 0xc366f824b2a5aa87},
		{"table1", true, 0xce481b57a021c5f2},
		{"table2", true, 0xce481b57a021c5f2},
		{"table3", true, 0xce481b57a021c5f2},
		{"fig6", true, 0xa990640c73355aa4},
		{"fig7", true, 0xe94c24534d27f68c},
		{"fig8", true, 0x869028b7e2d85891},
		{"fig9", true, 0x5ae826fac742e744},
		{"fig10", true, 0xce7844e000002f93},
		{"specgrid", true, 0x83aad5b2b9a7deda},
		{"ablation-pods", true, 0x36243f347f2c9cb4},
		{"ablation-tracker", true, 0xb4b1fe1e3803e119},
		{"energy", true, 0x869028b7e2d85891},
	}
	for _, w := range want {
		p, err := BuildPlan([]Job{{Experiment: w.id, Params: ConfigFor(w.id, w.full).Params()}})
		if err != nil {
			t.Fatalf("%s (full=%v): %v", w.id, w.full, err)
		}
		if got := p.Fingerprint(); got != w.fp {
			t.Errorf("%s (full=%v): plan fingerprint %016x, want %016x", w.id, w.full, got, w.fp)
		}
	}
	if len(want) != 2*len(ExperimentIDs()) {
		t.Errorf("pinned %d fingerprints, want quick and full for all %d experiments", len(want), len(ExperimentIDs()))
	}
}
