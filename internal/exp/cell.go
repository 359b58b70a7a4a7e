package exp

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cameo"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/hma"
	"repro/internal/mech"
	"repro/internal/memsys"
	"repro/internal/migrant"
	"repro/internal/resultcache"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thm"
	"repro/internal/trace"
)

// Cell is one simulated system: a mechanism configuration over a memory
// layout and a pair of memory specs. It is a plain value — the one recipe
// both the experiment matrix and the facade's single runs construct,
// simulate and key — so a run and its result-cache entry are derived from
// the same fields and cannot drift apart.
type Cell struct {
	// Cfg is the mechanism's fully populated config: a core, hma, thm,
	// cameo or migrant Config, or nil for a static (no-migration) memory.
	Cfg    any
	Layout addr.Layout
	Fast   dram.Spec
	Slow   dram.Spec
}

// tag names the mechanism family in the cell's key. Static memories share
// one tag; their layout tells them apart.
func (c Cell) tag() string {
	switch c.Cfg.(type) {
	case nil:
		return "static"
	case core.Config:
		return "mempod"
	case hma.Config:
		return "hma"
	case thm.Config:
		return "thm"
	case cameo.Config:
		return "cameo"
	case migrant.Config:
		return "migrant"
	}
	return fmt.Sprintf("%T", c.Cfg)
}

// mechID is the cell's canonical mechanism identity: the tag plus the
// printed config struct.
func (c Cell) mechID() string { return resultcache.MechID(c.tag(), c.Cfg) }

// Key returns the cell's workload-independent result-cache identity: the
// engine version, canonical mechanism config, both memory-spec
// fingerprints and the layout geometry. Callers add the trace identity
// (and, for the facade, the window).
func (c Cell) Key() resultcache.CellKey {
	return resultcache.CellKey{
		SimVersion: sim.Version,
		Kind:       resultcache.KindResult,
		Mech:       c.mechID(),
		FastFP:     c.Fast.Fingerprint(),
		SlowFP:     c.Slow.Fingerprint(),
		Layout:     fmt.Sprintf("%+v", c.Layout),
	}
}

// staticName labels a static memory by its layout, the relation the
// paper's reference configurations define: both levels is the
// no-migration TLM, one level is HBM-only or DDR-only.
func staticName(l addr.Layout) string {
	switch {
	case l.SlowBytes == 0:
		return "HBM-only"
	case l.FastBytes == 0:
		return "DDR-only"
	}
	return "TLM"
}

// newMechanism constructs the cell's mechanism over b. An unknown config
// type is an error.
func (c Cell) newMechanism(b *mech.Backend) (mech.Mechanism, error) {
	switch cfg := c.Cfg.(type) {
	case nil:
		return mech.NewStatic(staticName(c.Layout), b), nil
	case core.Config:
		return core.New(cfg, b)
	case hma.Config:
		return hma.New(cfg, b)
	case thm.Config:
		return thm.New(cfg, b)
	case cameo.Config:
		return cameo.New(cfg, b)
	case migrant.Config:
		return migrant.New(cfg, b)
	}
	return nil, fmt.Errorf("exp: unknown mechanism config %T", c.Cfg)
}

// Run simulates s under the cell and labels the result with workload.
// Every piece of mutable state — memory system, backend, mechanism,
// engine — is built here, per call, so concurrent runs of one Cell value
// are independent. window caps outstanding requests as sim.Engine.Window
// does (0 selects sim.DefaultWindow), and shards is sim.Engine.Shards: 1
// for callers that already fill the cores with concurrent cells, 0 to let
// a MemPod snapshot replay spread its pods over every core. A snapshot
// replay (*trace.SnapshotStream) reads the snapshot's predecode plane for
// this layout and its absolute time column, built once per snapshot and
// shared by every cell replaying it (sim.Engine.Run).
func (c Cell) Run(workload string, s trace.Stream, window, shards int) (stats.Result, error) {
	sys, err := memsys.New(c.Layout, c.Fast, c.Slow)
	if err != nil {
		return stats.Result{}, err
	}
	backend := mech.NewBackend(sys)
	m, err := c.newMechanism(backend)
	if err != nil {
		return stats.Result{}, err
	}
	// Recycle the mechanism's large tables into the shared pools once the
	// run's stats are extracted; successive runs then reuse one another's
	// allocations instead of paying fresh multi-MB zeroing each.
	defer mech.Release(m)
	engine := sim.New(backend, m)
	engine.Window, engine.Shards = window, shards
	return engine.Run(workload, s)
}
