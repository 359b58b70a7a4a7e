package mempod

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestWorkloadsList(t *testing.T) {
	ws := Workloads()
	if len(ws) != 27 {
		t.Fatalf("Workloads() = %d names, want 27", len(ws))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		if seen[w] {
			t.Fatalf("duplicate workload %q", w)
		}
		seen[w] = true
	}
	for _, want := range []string{"mcf", "libquantum", "mix1", "mix12"} {
		if !seen[want] {
			t.Errorf("missing workload %q", want)
		}
	}
}

func TestRunDefaultsToMemPod(t *testing.T) {
	res, err := Run("gcc", Options{Requests: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mechanism != "MemPod" {
		t.Errorf("default mechanism %q", res.Mechanism)
	}
	if res.Requests != 30_000 || res.AMMAT() <= 0 {
		t.Errorf("bad result: %+v", res)
	}
}

func TestRunEveryMechanism(t *testing.T) {
	for _, m := range Mechanisms() {
		o := Options{Mechanism: m, Requests: 20_000}
		if m == MechHMA {
			o.HMA = HMAOptions{Interval: Millisecond, SortStall: 70 * Microsecond, MaxMigrations: 256}
		}
		res, err := Run("mix2", o)
		if err != nil {
			t.Errorf("%s: %v", m, err)
			continue
		}
		if res.AMMAT() <= 0 {
			t.Errorf("%s: non-positive AMMAT", m)
		}
	}
}

func TestRunFutureMemoriesFaster(t *testing.T) {
	base, err := Run("cactus", Options{Mechanism: MechTLM, Requests: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	fut, err := Run("cactus", Options{Mechanism: MechTLM, Requests: 40_000, FutureMemories: true})
	if err != nil {
		t.Fatal(err)
	}
	if fut.AMMAT() >= base.AMMAT() {
		t.Errorf("future memories (%.2f ns) not faster than baseline (%.2f ns)",
			fut.AMMAT(), base.AMMAT())
	}
}

func TestRunRejectsUnknown(t *testing.T) {
	if _, err := Run("nonesuch", Options{}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := Run("gcc", Options{Mechanism: "bogus"}); err == nil {
		t.Error("unknown mechanism accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run("mix7", Options{Requests: 25_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("mix7", Options{Requests: 25_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical runs differ")
	}
}

func TestRunMemPodOptionsApplied(t *testing.T) {
	// A MemPod with one counter migrates far less than the default 64.
	small, err := Run("cactus", Options{Requests: 60_000, MemPod: MemPodOptions{Counters: 1}})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run("cactus", Options{Requests: 60_000, MemPod: MemPodOptions{Counters: 256}})
	if err != nil {
		t.Fatal(err)
	}
	if small.Mig.PageMigrations >= big.Mig.PageMigrations {
		t.Errorf("1-counter MemPod migrated %d >= 256-counter %d",
			small.Mig.PageMigrations, big.Mig.PageMigrations)
	}
}

func TestExperimentsEnumeration(t *testing.T) {
	es := Experiments()
	if len(es) != 12 {
		t.Fatalf("Experiments() = %d entries, want 12", len(es))
	}
}

func TestRunExperimentStaticTables(t *testing.T) {
	for _, e := range []Experiment{Table1, Table2, Table3} {
		tab, err := RunExperiment(e, Quick)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if tab.Text == "" || tab.CSV == "" || len(tab.Rows) == 0 {
			t.Errorf("%s: empty rendering", e)
		}
	}
}

func TestRunExperimentQuickOracle(t *testing.T) {
	tab, err := RunExperiment(Fig2, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.Text, "MEA") || !strings.Contains(tab.Text, "FC") {
		t.Errorf("fig2 text missing schemes:\n%s", tab.Text)
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("fig99", Quick); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunCustomWorkload(t *testing.T) {
	def := `{
	  "name": "kv-store",
	  "profiles": [{
	    "name": "kv",
	    "footprint_pages": 65536,
	    "hot_pages": 4096, "hot_frac": 0.85, "zipf_s": 1.2,
	    "lines_per_touch": 2, "write_frac": 0.4, "gap_mean_ns": 70
	  }],
	  "cores": ["kv"]
	}`
	res, err := RunCustom(strings.NewReader(def), Options{Requests: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "kv-store" || res.AMMAT() <= 0 {
		t.Fatalf("custom run result %+v", res)
	}
	if _, err := RunCustom(strings.NewReader("not json"), Options{}); err == nil {
		t.Error("garbage definition accepted")
	}
}

// TestRunTraceMappedMatchesHeap replays one saved trace under every
// mechanism three ways: from the heap recording, from a first mapped open
// (which streams the decode sidecars into place) and from a second mapped
// open (which adopts them). The Results must be identical, and the second
// open must serve its time column from the mapped .times sidecar.
func TestRunTraceMappedMatchesHeap(t *testing.T) {
	heap, err := RecordTrace("mix5", 30_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mix5.mps")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := heap.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want := map[Mechanism]Result{}
	for _, m := range Mechanisms() {
		if want[m], err = RunTrace(heap, Options{Mechanism: m}); err != nil {
			t.Fatal(err)
		}
	}
	for open := 1; open <= 2; open++ {
		tr, err := OpenTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		// The snapshot's sidecar mappings are private to it; on Linux the
		// process's own mapping list shows whether the adopted time
		// column is the mapped .times file.
		if open == 2 && trace.MapSupported() && runtime.GOOS == "linux" {
			maps, err := os.ReadFile("/proc/self/maps")
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(maps), path+".times") {
				t.Error("second open does not serve its time column from the mapped .times sidecar")
			}
		}
		for _, m := range Mechanisms() {
			got, err := RunTrace(tr, Options{Mechanism: m})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[m]) {
				t.Errorf("open %d, %s: mapped replay differs from the heap replay:\n got %+v\nwant %+v", open, m, got, want[m])
			}
		}
		tr.Close()
	}
}

// TestPodShardsBitIdentical replays one trace under MemPod serially
// (PodShards 1) and on two and four pod workers, from the heap recording
// and from a mapped open of its saved file: every replay must reproduce
// the serial Result.
func TestPodShardsBitIdentical(t *testing.T) {
	tr, err := RecordTrace("mix5", 30_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mix5.mps")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	ref, err := RunTrace(tr, Options{PodShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, trace := range map[string]*Trace{"heap": tr, "mapped": mapped} {
		for _, shards := range []int{0, 2, 4} {
			got, err := RunTrace(trace, Options{PodShards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s PodShards=%d:\n got %+v\nwant %+v", name, shards, got, ref)
			}
		}
	}
}
