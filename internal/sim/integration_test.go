package sim

import (
	"testing"

	"repro/internal/cameo"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/hma"
	"repro/internal/mech"
	"repro/internal/thm"
	"repro/internal/workload"
)

// Structural invariants must hold after driving each mechanism with a real
// multi-programmed workload: remap state is always a permutation, so no
// data is ever lost or duplicated by migration.

const invariantTraceLen = 80_000

func driveWorkload(t *testing.T, m mech.Mechanism, b *mech.Backend, seed int64) {
	t.Helper()
	w, err := workload.Mix(6) // streaming + hot-set blend drives heavy migration
	if err != nil {
		t.Fatal(err)
	}
	e := New(b, m)
	if _, err := e.Run(w.Name, w.MustStream(invariantTraceLen, seed)); err != nil {
		t.Fatal(err)
	}
}

func TestMemPodInvariantsUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	for seed := int64(1); seed <= 3; seed++ {
		b := newBackend()
		m := mustBuild(t, core.New, core.DefaultConfig(), b)
		driveWorkload(t, m, b, seed)
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if m.Stats().PageMigrations == 0 {
			t.Fatalf("seed %d: no migrations exercised", seed)
		}
	}
}

func TestMemPodFullCountersInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	b := newBackend()
	cfg := core.DefaultConfig()
	cfg.UseFullCounters = true
	m := mustBuild(t, core.New, cfg, b)
	driveWorkload(t, m, b, 1)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.Name() != "MemPod-FC" {
		t.Errorf("ablation name %q", m.Name())
	}
}

func TestHMAInvariantsUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	b := newBackend()
	cfg := hma.DefaultConfig()
	cfg.Interval = 200 * clock.Microsecond
	cfg.SortStall = 14 * clock.Microsecond
	m := mustBuild(t, hma.New, cfg, b)
	driveWorkload(t, m, b, 2)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().PageMigrations == 0 {
		t.Fatal("no migrations exercised")
	}
}

func TestTHMInvariantsUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	b := newBackend()
	m := mustBuild(t, thm.New, thm.DefaultConfig(), b)
	driveWorkload(t, m, b, 3)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().PageMigrations == 0 {
		t.Fatal("no migrations exercised")
	}
}

func TestCAMEOInvariantsUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	b := newBackend()
	m := mustBuild(t, cameo.New, cameo.DefaultConfig(), b)
	driveWorkload(t, m, b, 4)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().PageMigrations == 0 {
		t.Fatal("no migrations exercised")
	}
}

// Migration conservation: total accesses seen by the memory system equal
// demand requests plus injected migration/bookkeeping traffic.
func TestAccessConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	b := newBackend()
	m := mustBuild(t, core.New, core.DefaultConfig(), b)
	w, _ := workload.Homogeneous("cactus")
	res := New(b, m).MustRun("cactus", w.MustStream(invariantTraceLen, 9))

	total := b.Sys.FastStats().Accesses() + b.Sys.SlowStats().Accesses()
	expected := res.Requests + res.Mig.LineMigrations*2 // each moved line: read + write
	if total != expected {
		t.Fatalf("memory system saw %d accesses, want %d (requests %d + 2x%d moved lines)",
			total, expected, res.Requests, res.Mig.LineMigrations)
	}
}
