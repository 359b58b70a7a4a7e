// Package memsys composes DRAM channels into the two-level memory system of
// the paper: a set of fast (stacked) channels and a set of slow (off-chip)
// channels behind a shared flat address layout.
//
// The system services fully resolved physical locations (addr.Location);
// translation from flat addresses to locations is the job of the migration
// mechanisms, which is exactly the paper's hardware split — pods sit between
// the LLC and the memory controllers and re-encode requests before
// forwarding them.
package memsys

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/clock"
	"repro/internal/dram"
)

// System is a collection of DRAM channels with dense IDs per addr.Layout:
// channels [0, FastChannels) use the fast spec, the rest the slow spec.
// Channels are stored by value in one dense slice, so the per-request path
// indexes straight into channel state with no per-channel pointer chase.
// Not safe for general concurrent use; however channels share no state
// with each other, so callers that partition the channel ID space —
// MemPod's pods own disjoint channel sets — may access disjoint channels
// from different goroutines concurrently.
type System struct {
	layout   addr.Layout
	fast     dram.Spec
	slow     dram.Spec
	channels []dram.Channel
}

// LayoutFor returns the layout with its per-level row sizes filled in
// from the channel specs (for the populated levels). Row size is part of
// the physical address map — it decides how many page slots share a DRAM
// row — so carrying it in the layout makes trace predecode planes and
// their persisted sidecars spec-dependent: a plane computed under one
// spec's geometry is never silently reused under another's.
func LayoutFor(l addr.Layout, fast, slow dram.Spec) (addr.Layout, error) {
	set := func(level string, dst *uint64, channels int, spec dram.Spec) error {
		if channels == 0 {
			return nil
		}
		if *dst == 0 {
			*dst = uint64(spec.RowBytes)
		} else if *dst != uint64(spec.RowBytes) {
			return fmt.Errorf("memsys: layout %s row size %d != spec %s row size %d",
				level, *dst, spec.Name, spec.RowBytes)
		}
		return nil
	}
	if err := set("fast", &l.FastRowBytes, l.FastChannels, fast); err != nil {
		return addr.Layout{}, err
	}
	if err := set("slow", &l.SlowRowBytes, l.SlowChannels, slow); err != nil {
		return addr.Layout{}, err
	}
	return l, nil
}

// New builds the memory system for a layout. Single-level layouts (zero
// channels on one side) are allowed for the paper's HBM-only and DDR-only
// reference configurations. The stored layout is canonicalized through
// LayoutFor, so Layout() reflects the specs' row geometry.
func New(layout addr.Layout, fast, slow dram.Spec) (*System, error) {
	layout, err := LayoutFor(layout, fast, slow)
	if err != nil {
		return nil, err
	}
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	s := &System{layout: layout, fast: fast, slow: slow}
	n := layout.FastChannels + layout.SlowChannels
	if n == 0 {
		return nil, fmt.Errorf("memsys: layout has no channels")
	}
	s.channels = make([]dram.Channel, n)
	for i := 0; i < layout.FastChannels; i++ {
		s.channels[i] = dram.MakeChannel(fast)
	}
	for i := layout.FastChannels; i < n; i++ {
		s.channels[i] = dram.MakeChannel(slow)
	}
	return s, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(layout addr.Layout, fast, slow dram.Spec) *System {
	s, err := New(layout, fast, slow)
	if err != nil {
		panic(err)
	}
	return s
}

// Layout returns the system's address layout.
func (s *System) Layout() addr.Layout { return s.layout }

// Access services one 64-byte request at the given physical location and
// returns its completion time. The location's row index is presented to the
// channel directly: lines within one 8 KB row share a bank and row buffer,
// while consecutive rows interleave across banks.
func (s *System) Access(loc addr.Location, write bool, at clock.Time) clock.Time {
	return s.channels[loc.Channel].Access(loc.Row, write, at)
}

// AccessChannel services one 64-byte request on an already-resolved
// channel/row pair — the hot-path form of Access for callers (mech.Backend)
// that compute the channel index directly from precomputed pod bases.
func (s *System) AccessChannel(ch int, row uint64, write bool, at clock.Time) clock.Time {
	return s.channels[ch].Access(row, write, at)
}

// AccessChannelBatch services a per-channel request column through
// dram.Channel.AccessBatch, folding each completion into done[req.Idx] as
// a running max. It remains only for perfbench's DRAM rung; the
// simulation issues every request through AccessChannel or Access.
func (s *System) AccessChannelBatch(ch int, reqs []dram.BatchReq, done []clock.Time) {
	s.channels[ch].AccessBatch(reqs, done)
}

// Untouched reports whether no channel has serviced a request since New
// (or Reset).
func (s *System) Untouched() bool {
	for i := range s.channels {
		if s.channels[i].Stats().Accesses() != 0 {
			return false
		}
	}
	return true
}

// Reset returns every channel to its state at New: banks precharged, bus
// idle, counters zero.
func (s *System) Reset() {
	for i := range s.channels {
		s.channels[i] = dram.MakeChannel(s.channels[i].Spec())
	}
}

// LevelStats aggregates the channel counters of one memory level.
type LevelStats struct {
	dram.Stats
	Channels int
}

// FastStats returns aggregated counters over the fast channels.
func (s *System) FastStats() LevelStats { return s.aggregate(0, s.layout.FastChannels) }

// SlowStats returns aggregated counters over the slow channels.
func (s *System) SlowStats() LevelStats {
	return s.aggregate(s.layout.FastChannels, len(s.channels))
}

func (s *System) aggregate(lo, hi int) LevelStats {
	var out LevelStats
	out.Channels = hi - lo
	for i := lo; i < hi; i++ {
		out.Stats.Merge(s.channels[i].Stats())
	}
	return out
}

// ChannelStats returns the counters of one channel, for diagnostics.
func (s *System) ChannelStats(ch int) dram.Stats { return s.channels[ch].Stats() }

// NumChannels returns the number of channels in the system.
func (s *System) NumChannels() int { return len(s.channels) }
