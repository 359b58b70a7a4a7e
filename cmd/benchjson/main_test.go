package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/exp
cpu: AMD EPYC 7B13
BenchmarkMatrix/j=1-8         	      21	  51700042 ns/op	       0 B/op	       0 allocs/op
BenchmarkMatrix/j=4-8         	      80	  14210000 ns/op
PASS
ok  	repro/internal/exp	3.211s
pkg: repro/internal/trace
BenchmarkSnapshotReplay       	138000000	         8.612 ns/op	       0 B/op	       0 allocs/op
BenchmarkVerbose
BenchmarkVerbose-8            	     100	    123456 ns/op	        42.50 custom/op
PASS
`

func TestParse(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU != "AMD EPYC 7B13" {
		t.Errorf("headers wrong: %+v", rep)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}

	m := rep.Benchmarks[0]
	if m.Pkg != "repro/internal/exp" || m.Name != "BenchmarkMatrix/j=1" || m.Procs != 8 {
		t.Errorf("first benchmark identity wrong: %+v", m)
	}
	if m.Iterations != 21 || m.Metrics["ns/op"] != 51700042 || m.Metrics["allocs/op"] != 0 {
		t.Errorf("first benchmark numbers wrong: %+v", m)
	}
	if len(m.Metrics) != 3 {
		t.Errorf("first benchmark has %d metrics, want 3", len(m.Metrics))
	}

	if j4 := rep.Benchmarks[1]; j4.Name != "BenchmarkMatrix/j=4" || len(j4.Metrics) != 1 {
		t.Errorf("second benchmark wrong: %+v", j4)
	}

	// An un-suffixed name (GOMAXPROCS=1 runs print none) keeps Procs=1 and
	// picks up the later pkg header.
	r := rep.Benchmarks[2]
	if r.Pkg != "repro/internal/trace" || r.Name != "BenchmarkSnapshotReplay" || r.Procs != 1 {
		t.Errorf("replay benchmark wrong: %+v", r)
	}
	if r.Metrics["ns/op"] != 8.612 {
		t.Errorf("fractional ns/op lost: %+v", r.Metrics)
	}

	// -v mode echoes the bare name before the result line; only the result
	// counts, and custom ReportMetric units survive.
	v := rep.Benchmarks[3]
	if v.Name != "BenchmarkVerbose" || v.Metrics["custom/op"] != 42.5 {
		t.Errorf("verbose benchmark wrong: %+v", v)
	}
}

func TestParseRejectsMangledValues(t *testing.T) {
	_, err := Parse(strings.NewReader("BenchmarkX-8 10 abc ns/op\n"))
	if err == nil {
		t.Fatal("mangled value accepted")
	}
}

func TestParseEmptyInput(t *testing.T) {
	rep, err := Parse(strings.NewReader("random chatter\nPASS\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Fatalf("benchmarks from chatter: %+v", rep.Benchmarks)
	}
}

// report builds a one-metric report for diff tests.
func report(ns map[string]float64) *Report {
	rep := &Report{}
	for _, name := range []string{"BenchmarkMatrix/j=1", "BenchmarkMatrix/j=4", "BenchmarkReplay"} {
		if v, ok := ns[name]; ok {
			rep.Benchmarks = append(rep.Benchmarks, Benchmark{
				Pkg: "repro/internal/exp", Name: name, Procs: 8,
				Metrics: map[string]float64{"ns/op": v},
			})
		}
	}
	return rep
}

func TestDiff(t *testing.T) {
	oldRep := report(map[string]float64{
		"BenchmarkMatrix/j=1": 33_100_000,
		"BenchmarkMatrix/j=4": 10_000_000,
		"BenchmarkReplay":     100,
	})
	newRep := report(map[string]float64{
		"BenchmarkMatrix/j=1": 25_300_000, // improved
		"BenchmarkMatrix/j=4": 11_000_000, // +10.0%: at threshold, not over
		"BenchmarkReplay":     120,        // +20%: regression
	})
	deltas, onlyOld, onlyNew := Diff(oldRep, newRep, 10)
	if len(deltas) != 3 || len(onlyOld) != 0 || len(onlyNew) != 0 {
		t.Fatalf("deltas=%d onlyOld=%v onlyNew=%v", len(deltas), onlyOld, onlyNew)
	}
	if deltas[0].Regressed || deltas[0].Pct >= 0 {
		t.Errorf("improvement flagged: %+v", deltas[0])
	}
	if deltas[1].Regressed {
		t.Errorf("exactly-at-threshold flagged as regression: %+v", deltas[1])
	}
	if !deltas[2].Regressed || deltas[2].Pct != 20 {
		t.Errorf("regression missed: %+v", deltas[2])
	}
}

func TestDiffUnpairedBenchmarks(t *testing.T) {
	oldRep := report(map[string]float64{"BenchmarkMatrix/j=1": 100, "BenchmarkReplay": 50})
	newRep := report(map[string]float64{"BenchmarkMatrix/j=1": 90, "BenchmarkMatrix/j=4": 10})
	deltas, onlyOld, onlyNew := Diff(oldRep, newRep, 10)
	if len(deltas) != 1 {
		t.Fatalf("deltas: %+v", deltas)
	}
	if len(onlyOld) != 1 || onlyOld[0] != "BenchmarkReplay" {
		t.Errorf("onlyOld = %v", onlyOld)
	}
	if len(onlyNew) != 1 || onlyNew[0] != "BenchmarkMatrix/j=4" {
		t.Errorf("onlyNew = %v", onlyNew)
	}
}

// writeReport marshals a report to a temp file for the CLI-level test.
func writeReport(t *testing.T, dir, name string, rep *Report) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunDiffExitCodes(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", report(map[string]float64{"BenchmarkMatrix/j=1": 100}))
	slower := writeReport(t, dir, "slow.json", report(map[string]float64{"BenchmarkMatrix/j=1": 150}))
	faster := writeReport(t, dir, "fast.json", report(map[string]float64{"BenchmarkMatrix/j=1": 80}))

	var out strings.Builder
	// The issue's documented shape: files first, threshold after.
	if code := runDiff([]string{oldPath, slower, "-threshold", "10"}, &out); code != 1 {
		t.Errorf("regression exit code %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Errorf("regression not marked FAIL:\n%s", out.String())
	}
	out.Reset()
	if code := runDiff([]string{oldPath, faster, "-threshold", "10"}, &out); code != 0 {
		t.Errorf("improvement exit code %d, want 0\n%s", code, out.String())
	}
	// A generous threshold tolerates the slowdown.
	out.Reset()
	if code := runDiff([]string{oldPath, slower, "-threshold=60"}, &out); code != 0 {
		t.Errorf("within-threshold exit code %d, want 0\n%s", code, out.String())
	}
	// Usage and file errors are distinct from regressions.
	if code := runDiff([]string{oldPath}, io.Discard); code != 2 {
		t.Errorf("missing file arg exit code %d, want 2", code)
	}
	if code := runDiff([]string{oldPath, filepath.Join(dir, "absent.json")}, io.Discard); code != 2 {
		t.Errorf("unreadable report exit code %d, want 2", code)
	}
	if code := runDiff([]string{oldPath, slower, "-threshold", "bogus"}, io.Discard); code != 2 {
		t.Errorf("bad threshold exit code %d, want 2", code)
	}
}

// TestRunDiffHardGate pins the -hard semantics: only regressions whose
// name matches the regexp fail the diff; the rest are reported as "warn"
// and keep exit code 0. This is the CI shape — BenchmarkMatrix/j=1 is the
// hard gate, the parallel-pool matrix variants stay warn-only.
func TestRunDiffHardGate(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", report(map[string]float64{
		"BenchmarkMatrix/j=1": 100,
		"BenchmarkMatrix/j=4": 100,
	}))
	parallelSlower := writeReport(t, dir, "pslow.json", report(map[string]float64{
		"BenchmarkMatrix/j=1": 100,
		"BenchmarkMatrix/j=4": 200, // noise cell regressed
	}))
	serialSlower := writeReport(t, dir, "sslow.json", report(map[string]float64{
		"BenchmarkMatrix/j=1": 200, // gated cell regressed
		"BenchmarkMatrix/j=4": 200,
	}))

	var out strings.Builder
	// Non-matching regression: warn, exit 0.
	if code := runDiff([]string{oldPath, parallelSlower, "-hard", `^BenchmarkMatrix/j=1$`}, &out); code != 0 {
		t.Errorf("warn-only regression exit code %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "warn") || strings.Contains(out.String(), "FAIL") {
		t.Errorf("non-matching regression not downgraded to warn:\n%s", out.String())
	}
	// Matching regression: FAIL, exit 1 (the = form must parse too).
	out.Reset()
	if code := runDiff([]string{oldPath, serialSlower, `-hard=^BenchmarkMatrix/j=1$`}, &out); code != 1 {
		t.Errorf("gated regression exit code %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Errorf("gated regression not marked FAIL:\n%s", out.String())
	}
	// Without -hard every regression still fails — the flag must not
	// weaken the default.
	if code := runDiff([]string{oldPath, parallelSlower}, io.Discard); code != 1 {
		t.Errorf("default regression exit code %d, want 1", code)
	}
	// Flag errors are usage errors.
	if code := runDiff([]string{oldPath, serialSlower, "-hard", "("}, io.Discard); code != 2 {
		t.Errorf("bad regexp exit code %d, want 2", code)
	}
	if code := runDiff([]string{oldPath, serialSlower, "-hard"}, io.Discard); code != 2 {
		t.Errorf("missing regexp exit code %d, want 2", code)
	}
}

// TestDiffEdgeCases pins down the comparisons that used to pass silently:
// zero-ns/op baselines and entries missing the ns/op metric entirely.
func TestDiffEdgeCases(t *testing.T) {
	bench := func(name string, metrics map[string]float64) Benchmark {
		return Benchmark{Pkg: "repro/internal/exp", Name: name, Procs: 8, Metrics: metrics}
	}
	cases := []struct {
		name          string
		oldB, newB    []Benchmark
		wantDeltas    int
		wantRegressed bool
		wantInf       bool
		wantOnlyOld   []string
		wantOnlyNew   []string
	}{
		{
			name:          "zero baseline nonzero new is a regression",
			oldB:          []Benchmark{bench("BenchmarkX", map[string]float64{"ns/op": 0})},
			newB:          []Benchmark{bench("BenchmarkX", map[string]float64{"ns/op": 5})},
			wantDeltas:    1,
			wantRegressed: true,
			wantInf:       true,
		},
		{
			name:       "zero baseline zero new is fine",
			oldB:       []Benchmark{bench("BenchmarkX", map[string]float64{"ns/op": 0})},
			newB:       []Benchmark{bench("BenchmarkX", map[string]float64{"ns/op": 0})},
			wantDeltas: 1,
		},
		{
			name:        "old entry without ns/op is incomparable, not a zero baseline",
			oldB:        []Benchmark{bench("BenchmarkX", map[string]float64{"cells/s": 900})},
			newB:        []Benchmark{bench("BenchmarkX", map[string]float64{"ns/op": 5})},
			wantOnlyOld: []string{"BenchmarkX"},
			wantOnlyNew: []string{"BenchmarkX"},
		},
		{
			name:        "new entry without ns/op is incomparable, not an improvement",
			oldB:        []Benchmark{bench("BenchmarkX", map[string]float64{"ns/op": 100})},
			newB:        []Benchmark{bench("BenchmarkX", map[string]float64{"cells/s": 900})},
			wantOnlyOld: []string{"BenchmarkX"},
			wantOnlyNew: []string{"BenchmarkX"},
		},
		{
			name:        "missing benchmark stays informational",
			oldB:        []Benchmark{bench("BenchmarkGone", map[string]float64{"ns/op": 100})},
			newB:        []Benchmark{bench("BenchmarkNew", map[string]float64{"ns/op": 100})},
			wantOnlyOld: []string{"BenchmarkGone"},
			wantOnlyNew: []string{"BenchmarkNew"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			deltas, onlyOld, onlyNew := Diff(&Report{Benchmarks: tc.oldB}, &Report{Benchmarks: tc.newB}, 10)
			if len(deltas) != tc.wantDeltas {
				t.Fatalf("deltas = %+v, want %d", deltas, tc.wantDeltas)
			}
			if tc.wantDeltas == 1 {
				if deltas[0].Regressed != tc.wantRegressed {
					t.Errorf("Regressed = %v, want %v (%+v)", deltas[0].Regressed, tc.wantRegressed, deltas[0])
				}
				if tc.wantInf && !math.IsInf(deltas[0].Pct, 1) {
					t.Errorf("Pct = %v, want +Inf", deltas[0].Pct)
				}
			}
			if !slices.Equal(onlyOld, tc.wantOnlyOld) {
				t.Errorf("onlyOld = %v, want %v", onlyOld, tc.wantOnlyOld)
			}
			if !slices.Equal(onlyNew, tc.wantOnlyNew) {
				t.Errorf("onlyNew = %v, want %v", onlyNew, tc.wantOnlyNew)
			}
		})
	}
}

// TestRunDiffZeroBaselineExitCode checks the +Inf regression reaches the
// CLI exit code, whatever the threshold.
func TestRunDiffZeroBaselineExitCode(t *testing.T) {
	dir := t.TempDir()
	zero := writeReport(t, dir, "zero.json", report(map[string]float64{"BenchmarkMatrix/j=1": 0}))
	some := writeReport(t, dir, "some.json", report(map[string]float64{"BenchmarkMatrix/j=1": 5}))
	var out strings.Builder
	if code := runDiff([]string{zero, some, "-threshold", "1000"}, &out); code != 1 {
		t.Errorf("zero-baseline regression exit code %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Errorf("zero-baseline regression not marked FAIL:\n%s", out.String())
	}
}
