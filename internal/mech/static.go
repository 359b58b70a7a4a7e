package mech

import (
	"repro/internal/clock"
	"repro/internal/trace"
)

// Static is a mechanism that performs no migration: every request is
// serviced at its home location. With a two-level layout it is the paper's
// "TLM / no-migration" baseline; with a single-level layout it models the
// HBM-only and DDR-only reference points of Figures 8 and 10.
type Static struct {
	name    string
	backend *Backend
}

// NewStatic returns a no-migration mechanism over the backend.
func NewStatic(name string, b *Backend) *Static {
	return &Static{name: name, backend: b}
}

// Name implements Mechanism.
func (s *Static) Name() string { return s.name }

// Access implements Mechanism: with no migration, the decoded home
// location is the final location — the access needs no address math.
func (s *Static) Access(d *trace.Decoded, _, at clock.Time, _ bool) clock.Time {
	return s.backend.LineAt(d.Chan, d.Row, d.Write, at)
}

// Stats implements Mechanism. Static never migrates.
func (s *Static) Stats() MigStats { return MigStats{} }

var _ Mechanism = (*Static)(nil)
