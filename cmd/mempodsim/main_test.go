package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// TestCompareOrder pins the registry-derived -compare column set: the TLM
// normalization base leads, every migration mechanism (including Migrant)
// follows in registry order, HBM-only closes, and DDR-only stays out.
func TestCompareOrder(t *testing.T) {
	order := compareOrder()
	if len(order) == 0 || order[0] != mempod.MechTLM {
		t.Fatalf("compare order %v does not start with TLM", order)
	}
	if order[len(order)-1] != mempod.MechHBMOnly {
		t.Errorf("compare order %v does not end with HBM-only", order)
	}
	seen := map[mempod.Mechanism]int{}
	for _, m := range order {
		seen[m]++
		if seen[m] > 1 {
			t.Errorf("mechanism %s repeated in %v", m, order)
		}
	}
	for _, want := range []mempod.Mechanism{mempod.MechMemPod, mempod.MechHMA,
		mempod.MechTHM, mempod.MechCAMEO, mempod.MechMigrant} {
		if seen[want] == 0 {
			t.Errorf("mechanism %s missing from compare order %v", want, order)
		}
	}
	if seen[mempod.MechDDROnly] != 0 {
		t.Errorf("DDR-only must not appear in compare order %v", order)
	}
	// Registry-driven: every mechanism but DDR-only appears.
	if len(order) != len(mempod.Mechanisms())-1 {
		t.Errorf("compare order has %d mechanisms, registry has %d (expect registry-1)",
			len(order), len(mempod.Mechanisms()))
	}
}

// TestValidMechanism checks the pre-flight -mech validation: registry names
// pass, and an unknown name's error names both the typo and the valid set.
func TestValidMechanism(t *testing.T) {
	for _, m := range mempod.Mechanisms() {
		if err := validMechanism(string(m)); err != nil {
			t.Errorf("registry mechanism %s rejected: %v", m, err)
		}
	}
	err := validMechanism("MemPodd")
	if err == nil {
		t.Fatal("unknown mechanism accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "MemPodd") {
		t.Errorf("error %q does not name the bad mechanism", msg)
	}
	for _, m := range mempod.Mechanisms() {
		if !strings.Contains(msg, string(m)) {
			t.Errorf("error %q does not list valid mechanism %s", msg, m)
		}
	}
}

// TestParseSpecPair covers the -spec FAST+SLOW syntax: empty keeps the
// defaults, either side may be blank, malformed values and unknown preset
// names fail with errors that list the registry.
func TestParseSpecPair(t *testing.T) {
	fast, slow, err := parseSpecPair("")
	if err != nil || fast != "" || slow != "" {
		t.Errorf("empty -spec: got (%q, %q, %v)", fast, slow, err)
	}

	fast, slow, err = parseSpecPair("HBM2+DDR5-4800")
	if err != nil || fast != "HBM2" || slow != "DDR5-4800" {
		t.Errorf("HBM2+DDR5-4800: got (%q, %q, %v)", fast, slow, err)
	}

	fast, slow, err = parseSpecPair("+NVM")
	if err != nil || fast != "" || slow != "NVM" {
		t.Errorf("+NVM: got (%q, %q, %v)", fast, slow, err)
	}

	if _, _, err = parseSpecPair("HBM2"); err == nil {
		t.Error("missing '+' accepted")
	} else if !strings.Contains(err.Error(), "FAST+SLOW") {
		t.Errorf("format error %q does not describe the syntax", err)
	}

	_, _, err = parseSpecPair("HBM+GDDR7")
	if err == nil {
		t.Fatal("unknown preset accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "GDDR7") {
		t.Errorf("error %q does not name the bad preset", msg)
	}
	for _, name := range mempod.Specs() {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list valid preset %s", msg, name)
		}
	}
}

// TestAnalyzeSnapshotMatchesWorkload checks -analyze on both trace
// sources: a -trace-in snapshot prints exactly the summary its workload
// prints when generated, since replay is bit-identical to generation.
func TestAnalyzeSnapshotMatchesWorkload(t *testing.T) {
	analyze := func(tr *mempod.Trace) string {
		t.Helper()
		var buf bytes.Buffer
		if err := analyzeTrace(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	gen, err := resolveTrace("", "", true, "lbm", "", 20_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := analyze(gen)
	if !strings.HasPrefix(want, "workload lbm\nrequests            20000 ") {
		t.Fatalf("unexpected summary:\n%s", want)
	}

	path := filepath.Join(t.TempDir(), "lbm.snap")
	if _, err := resolveTrace("", path, true, "lbm", "", 20_000, 42); err != nil {
		t.Fatal(err)
	}
	snap, err := resolveTrace(path, "", true, "ignored", "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if got := analyze(snap); got != want {
		t.Errorf("snapshot summary differs from workload summary:\n%s\nwant:\n%s", got, want)
	}
}

// compareRow returns the AMMAT field of mechanism m's row in a -compare
// table.
func compareRow(t *testing.T, table string, m mempod.Mechanism) string {
	t.Helper()
	for _, line := range strings.Split(table, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == string(m) {
			return f[1]
		}
	}
	t.Fatalf("no %s row in:\n%s", m, table)
	return ""
}

// TestCompareAppliesOptions checks that every -compare row runs the
// command's options: the MemPod and cache-size flags reach the MemPod row
// (it reads what -mech MemPod reads under the same flags, not the default
// design point), the cache size reaches the THM row, and with default
// flags HMA runs at the trace-scaled 10 ms / 700 µs / 4096 point.
func TestCompareAppliesOptions(t *testing.T) {
	tr, err := mempod.RecordTrace("mix5", 40_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	table := func(o mempod.Options) string {
		t.Helper()
		var buf bytes.Buffer
		if err := runCompare(&buf, tr, o, 2); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	ammat := func(o mempod.Options) string {
		t.Helper()
		r, err := mempod.RunTrace(tr, o)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%.2f", r.AMMAT())
	}

	plain := table(mempod.Options{})
	if got, want := compareRow(t, plain, mempod.MechMemPod), ammat(mempod.Options{Mechanism: mempod.MechMemPod}); got != want {
		t.Errorf("default MemPod row %s, want %s", got, want)
	}
	hma := mempod.Options{Mechanism: mempod.MechHMA, HMA: mempod.HMAOptions{
		Interval: 10 * mempod.Millisecond, SortStall: 700 * mempod.Microsecond, MaxMigrations: 4096}}
	if got, want := compareRow(t, plain, mempod.MechHMA), ammat(hma); got != want {
		t.Errorf("default HMA row %s, want %s", got, want)
	}

	tuned := mempod.Options{
		MemPod: mempod.MemPodOptions{Counters: 16, CacheBytes: 32768},
		HMA:    mempod.HMAOptions{CacheBytes: 32768},
		THM:    mempod.THMOptions{CacheBytes: 32768},
	}
	flagged := table(tuned)
	single := tuned
	single.Mechanism = mempod.MechMemPod
	got, want := compareRow(t, flagged, mempod.MechMemPod), ammat(single)
	if got != want {
		t.Errorf("tuned MemPod row %s, want the -mech MemPod run's %s", got, want)
	}
	if got == compareRow(t, plain, mempod.MechMemPod) {
		t.Errorf("tuned MemPod row %s equals the default row: flags ignored", got)
	}
	single.Mechanism = mempod.MechTHM
	got, want = compareRow(t, flagged, mempod.MechTHM), ammat(single)
	if got != want {
		t.Errorf("tuned THM row %s, want the -mech THM run's %s", got, want)
	}
	if got == compareRow(t, plain, mempod.MechTHM) {
		t.Errorf("tuned THM row %s equals the default row: -cache-bytes ignored", got)
	}
}

// TestCompareKeepsFinishedRows: when one mechanism fails, -compare still
// prints every row that finished, exactly as a run without the failure
// prints it, gives the failed mechanism a row naming its error, and
// returns that error (the command exits 1). An out-of-range MemPod
// counter width fails the MemPod row alone.
func TestCompareKeepsFinishedRows(t *testing.T) {
	tr, err := mempod.RecordTrace("mix5", 20_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	var good, bad bytes.Buffer
	if err := runCompare(&good, tr, mempod.Options{}, 2); err != nil {
		t.Fatal(err)
	}
	err = runCompare(&bad, tr, mempod.Options{MemPod: mempod.MemPodOptions{CounterBits: 65}}, 2)
	if err == nil || !strings.Contains(err.Error(), "counter width 65") {
		t.Fatalf("error %v, want the MemPod row's counter-width error", err)
	}
	goodRows, badRows := strings.Split(good.String(), "\n"), strings.Split(bad.String(), "\n")
	if len(goodRows) != len(badRows) {
		t.Fatalf("failing table has %d lines, want %d:\n%s", len(badRows), len(goodRows), bad.String())
	}
	failed := 0
	for i := range goodRows {
		if f := strings.Fields(goodRows[i]); len(f) > 0 && f[0] == string(mempod.MechMemPod) {
			failed++
			if want := "MemPod     failed: mempod: counter width 65 bits"; badRows[i] != want {
				t.Errorf("MemPod row %q, want %q", badRows[i], want)
			}
			continue
		}
		if badRows[i] != goodRows[i] {
			t.Errorf("row %d = %q, want the unfailed run's %q", i, badRows[i], goodRows[i])
		}
	}
	if failed != 1 {
		t.Errorf("%d MemPod rows, want 1", failed)
	}
}
