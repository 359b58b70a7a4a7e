package exp

import (
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/cameo"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/hma"
	"repro/internal/migrant"
	"repro/internal/thm"
)

// TestCellRunMatchesKey runs every config type (and every static layout)
// through Cell.Run on a short snapshot: the mechanism Run constructs must
// be the one Key names, so a cell can never simulate one system and cache
// under another.
func TestCellRunMatchesKey(t *testing.T) {
	snap, err := selectWorkloads("cactus")[0].Record(5_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		cfg    any
		layout addr.Layout
		tag    string // Key().Mech up to the config
		name   string // Result.Mechanism
	}{
		{core.DefaultConfig(), addr.DefaultLayout(), "mempod", "MemPod"},
		{hma.DefaultConfig(), addr.DefaultLayout(), "hma", "HMA"},
		{thm.DefaultConfig(), addr.DefaultLayout(), "thm", "THM"},
		{cameo.DefaultConfig(), addr.DefaultLayout(), "cameo", "CAMEO"},
		{migrant.DefaultConfig(), addr.DefaultLayout(), "migrant", "Migrant"},
		{nil, addr.DefaultLayout(), "static", "TLM"},
		{nil, addr.FastOnlyLayout(), "static", "HBM-only"},
		{nil, addr.SlowOnlyLayout(), "static", "DDR-only"},
	}
	for _, tc := range cases {
		cell := Cell{tc.cfg, tc.layout, dram.HBM(), dram.DDR4_1600()}
		mech := cell.Key().Mech
		if tag, _, _ := strings.Cut(mech, ":"); tag != tc.tag {
			t.Errorf("%s: key tag %q, want %q", tc.name, tag, tc.tag)
		}
		r, err := cell.Run("cactus", snap.Stream(), 0, 1)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if r.Mechanism != tc.name || r.Workload != "cactus" || r.Requests != 5_000 {
			t.Errorf("%s (key %q): ran %s on %s (%d requests)", tc.name, mech, r.Mechanism, r.Workload, r.Requests)
		}
	}
}

// TestCellRunUnknownConfig checks that a config type Cell cannot build
// fails the run with an error instead of a panic.
func TestCellRunUnknownConfig(t *testing.T) {
	snap, err := selectWorkloads("cactus")[0].Record(1_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	cell := Cell{struct{}{}, addr.DefaultLayout(), dram.HBM(), dram.DDR4_1600()}
	if _, err := cell.Run("cactus", snap.Stream(), 0, 1); err == nil {
		t.Fatal("Run accepted an unknown mechanism config")
	}
}
