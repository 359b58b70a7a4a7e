package workload

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

const customDef = `{
  "name": "mydb",
  "profiles": [
    {
      "name": "oltp",
      "footprint_pages": 131072,
      "hot_pages": 8192, "hot_frac": 0.8, "zipf_s": 1.2,
      "lines_per_touch": 2, "write_frac": 0.3, "gap_mean_ns": 80
    },
    {
      "name": "scan",
      "footprint_pages": 262144,
      "stream_frac": 0.95, "sweep_window": 4, "sweep_advance": 4,
      "lines_per_touch": 8, "write_frac": 0.1, "gap_mean_ns": 60
    }
  ],
  "cores": ["oltp", "oltp", "oltp", "oltp", "scan", "scan", "scan", "scan"]
}`

func TestLoadCustom(t *testing.T) {
	w, err := LoadCustom(strings.NewReader(customDef))
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "mydb" {
		t.Fatalf("name %q", w.Name)
	}
	s, err := w.Stream(5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	reqs := trace.Collect(s)
	if len(reqs) != 5000 {
		t.Fatalf("stream %d requests", len(reqs))
	}
	cores := map[uint8]bool{}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Time < reqs[i-1].Time {
			t.Fatal("custom trace out of order")
		}
		cores[reqs[i].Core] = true
	}
	if len(cores) != 8 {
		t.Fatalf("%d cores active", len(cores))
	}
}

func TestLoadCustomSingleCoreReplicates(t *testing.T) {
	def := strings.Replace(customDef,
		`"cores": ["oltp", "oltp", "oltp", "oltp", "scan", "scan", "scan", "scan"]`,
		`"cores": ["oltp"]`, 1)
	w, err := LoadCustom(strings.NewReader(def))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := w.Stream(2000, 1)
	cores := map[uint8]bool{}
	var r trace.Request
	for s.Next(&r) {
		cores[r.Core] = true
	}
	if len(cores) != 8 {
		t.Fatalf("homogeneous replication gave %d cores", len(cores))
	}
}

func TestLoadCustomBuiltinFallback(t *testing.T) {
	def := `{"name":"w","profiles":[],"cores":["mcf"]}`
	if _, err := LoadCustom(strings.NewReader(def)); err != nil {
		t.Fatalf("built-in profile fallback failed: %v", err)
	}
}

func TestLoadCustomRejects(t *testing.T) {
	cases := []string{
		``,
		`{}`,
		`{"name":"w","profiles":[],"cores":["nope"]}`,
		`{"name":"w","profiles":[],"cores":["mcf","mcf"]}`, // 2 cores invalid
		`{"name":"w","profiles":[{"name":"p","footprint_pages":0,"lines_per_touch":1,"write_frac":0,"gap_mean_ns":50}],"cores":["p"]}`,
		`{"name":"w","unknown_field":1,"profiles":[],"cores":["mcf"]}`,
		// A gap whose touch budget overflows, one whose conversion to
		// femtoseconds overflows, and flash slots beyond the footprint.
		`{"name":"w","profiles":[{"name":"p","footprint_pages":1024,"lines_per_touch":2,"write_frac":0,"gap_mean_ns":900000000000}],"cores":["p"]}`,
		`{"name":"w","profiles":[{"name":"p","footprint_pages":1024,"lines_per_touch":2,"write_frac":0,"gap_mean_ns":18446744073789}],"cores":["p"]}`,
		`{"name":"w","profiles":[{"name":"p","footprint_pages":1024,"flash_pages":2048,"flash_frac":0.5,"flash_period":10,"lines_per_touch":2,"write_frac":0,"gap_mean_ns":50}],"cores":["p"]}`,
	}
	for i, c := range cases {
		if _, err := LoadCustom(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestLoadCustomRejectsHotFracWithoutHotPages is the regression test for
// a generator crash: a hot fraction with hot_pages omitted used to pass
// validation and then index an empty hot-rank table on the first hot
// touch.
func TestLoadCustomRejectsHotFracWithoutHotPages(t *testing.T) {
	def := `{"name":"w","profiles":[{"name":"p","footprint_pages":1024,"hot_frac":0.5,"zipf_s":1.2,` +
		`"lines_per_touch":2,"write_frac":0.1,"gap_mean_ns":80}],"cores":["p"]}`
	if _, err := LoadCustom(strings.NewReader(def)); err == nil || !strings.Contains(err.Error(), "hot pages") {
		t.Fatalf("hot fraction without hot pages: got error %v", err)
	}
}

func TestLoadCustomDuplicateProfile(t *testing.T) {
	def := `{"name":"w","profiles":[
	  {"name":"p","footprint_pages":1024,"lines_per_touch":1,"write_frac":0,"gap_mean_ns":50},
	  {"name":"p","footprint_pages":2048,"lines_per_touch":1,"write_frac":0,"gap_mean_ns":50}
	],"cores":["p"]}`
	if _, err := LoadCustom(strings.NewReader(def)); err == nil {
		t.Error("duplicate profile accepted")
	}
}
