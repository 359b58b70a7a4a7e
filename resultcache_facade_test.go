package mempod

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestResultCacheRunDifferential is the facade-level correctness check:
// for every registered mechanism over two spec pairs, Run through a cache
// (cold, then warm from a fresh instance over the same store — a second
// process) must equal an uncached Run field by field.
func TestResultCacheRunDifferential(t *testing.T) {
	pairs := [][2]string{{"", ""}, {"HBM2", "DDR5-4800"}}
	for _, pair := range pairs {
		for _, m := range Mechanisms() {
			m := m
			name := string(m)
			if pair[0] != "" {
				name = pair[0] + "+" + pair[1] + "/" + name
			}
			t.Run(name, func(t *testing.T) {
				o := Options{Mechanism: m, Requests: 20_000,
					FastSpec: pair[0], SlowSpec: pair[1]}
				want, err := Run("mix5", o)
				if err != nil {
					t.Fatal(err)
				}

				dir := t.TempDir()
				cold, err := NewResultCache(dir)
				if err != nil {
					t.Fatal(err)
				}
				o.Results = cold
				got, err := Run("mix5", o)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("cold cached Run differs:\nfresh:  %+v\ncached: %+v", want, got)
				}
				if s := cold.Stats(); s.Misses != 1 || s.Hits != 0 {
					t.Fatalf("cold stats: %+v", s)
				}

				warm, err := NewResultCache(dir)
				if err != nil {
					t.Fatal(err)
				}
				o.Results = warm
				got, err = Run("mix5", o)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("warm cached Run differs:\nfresh:  %+v\ncached: %+v", want, got)
				}
				if s := warm.Stats(); s.Hits != 1 || s.Misses != 0 || s.DiskLoads != 1 {
					t.Fatalf("warm stats: %+v", s)
				}
			})
		}
	}
}

// TestResultCacheTraceReplayHits pins the trace half of the key: a replay
// is keyed by snapshot content, so the same trace — even saved to a file
// and reloaded, where the generating recipe is gone — hits the cells a
// previous replay cached.
func TestResultCacheTraceReplayHits(t *testing.T) {
	tr, err := RecordTrace("mix5", 20_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewResultCache("")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Requests: 20_000, Seed: 42, Results: rc}
	want, err := RunTrace(tr, o)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "mix5.snap")
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
	loaded, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunTrace(loaded, o)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("reloaded replay differs:\nfirst:  %+v\nsecond: %+v", want, got)
	}
	if s := rc.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats after reloaded replay: %+v", s)
	}
}

// TestResultCacheRunCustomBypassed: custom workload definitions have no
// exact identity (the JSON's name doesn't pin its content), so RunCustom
// must never consult the cache.
func TestResultCacheRunCustomBypassed(t *testing.T) {
	rc, err := NewResultCache("")
	if err != nil {
		t.Fatal(err)
	}
	def := `{
	  "name": "custom1",
	  "profiles": [{
	    "name": "p",
	    "footprint_pages": 4096,
	    "hot_pages": 256, "hot_frac": 0.85, "zipf_s": 1.2,
	    "lines_per_touch": 2, "write_frac": 0.4, "gap_mean_ns": 70
	  }],
	  "cores": ["p"]
	}`
	o := Options{Requests: 10_000, Results: rc}
	if _, err := RunCustom(strings.NewReader(def), o); err != nil {
		t.Fatal(err)
	}
	if _, err := RunCustom(strings.NewReader(def), o); err != nil {
		t.Fatal(err)
	}
	if s := rc.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("RunCustom touched the cache: %+v", s)
	}
}

// TestResultCacheKeysSeparateOptions: any option that changes what is
// simulated must miss, not alias — seed, length, specs, mechanism
// parameters and the interval window all participate in the key.
func TestResultCacheKeysSeparateOptions(t *testing.T) {
	rc, err := NewResultCache("")
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Requests: 10_000, Seed: 1, Results: rc}
	variants := []Options{
		base,
		{Requests: 10_000, Seed: 2, Results: rc},
		{Requests: 12_000, Seed: 1, Results: rc},
		{Requests: 10_000, Seed: 1, FastSpec: "HBM2", Results: rc},
		{Requests: 10_000, Seed: 1, SlowSpec: "DDR5-4800", Results: rc},
		{Requests: 10_000, Seed: 1, MemPod: MemPodOptions{Counters: 32}, Results: rc},
		{Requests: 10_000, Seed: 1, Window: 2048, Results: rc},
		{Requests: 10_000, Seed: 1, FutureMemories: true, Results: rc},
	}
	for i, o := range variants {
		if _, err := Run("mcf", o); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
	}
	if s := rc.Stats(); s.Misses != len(variants) || s.Hits != 0 {
		t.Fatalf("option variants aliased: %+v", s)
	}
	// And the exact same options do alias.
	if _, err := Run("mcf", base); err != nil {
		t.Fatal(err)
	}
	if s := rc.Stats(); s.Hits != 1 {
		t.Fatalf("identical rerun missed: %+v", s)
	}
}

// TestResultCacheFacadeSharesMatrixCells checks that the facade and the
// experiment matrix key a design point identically (both derive it from
// one exp.Cell): after a quick Fig8 populates a cache, single Runs of the
// same workload, length and seed under Fig8's mechanisms are all served
// from it — and equal what a fresh uncached Run computes.
func TestResultCacheFacadeSharesMatrixCells(t *testing.T) {
	rc, err := NewResultCache("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunExperimentOpts(Fig8, RunOptions{Scale: Quick, Results: rc}); err != nil {
		t.Fatal(err)
	}
	before := rc.Stats()
	mechs := []Mechanism{MechTLM, MechMemPod, MechTHM, MechCAMEO, MechHBMOnly}
	for _, m := range mechs {
		o := Options{Mechanism: m, Requests: 150_000, Seed: 42}
		want, err := Run("cactus", o)
		if err != nil {
			t.Fatal(err)
		}
		o.Results = rc
		got, err := Run("cactus", o)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: matrix-cached result differs from a fresh Run:\nfresh:  %+v\ncached: %+v", m, want, got)
		}
	}
	after := rc.Stats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != len(mechs) || misses != 0 {
		t.Errorf("facade runs after Fig8: %d hits, %d misses; want %d hits, 0 misses", hits, misses, len(mechs))
	}
}
