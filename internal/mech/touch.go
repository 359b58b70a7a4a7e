package mech

import "repro/internal/trace"

// TouchFilter collapses the line bursts of one page touch into a single
// tracking observation. An out-of-order core's LLC misses arrive as short
// bursts of consecutive lines from one page; counting every line would let
// a single streaming touch saturate small activity counters and look as
// hot as genuinely reused data. The filter keeps one last-page register
// per core (trivial hardware at the pod's front end) and reports a touch
// only when a core moves to a different page.
//
// The filter applies identically to every tracking scheme in the
// comparison (MEA, THM's competing counters, HMA's full counters), so it
// never biases the mechanism comparison.
type TouchFilter struct {
	last [256]uint64 // per-core last page + 1 (0 = none)
}

// Touch reports whether this access begins a new page touch for the core.
func (f *TouchFilter) Touch(core uint8, page uint64) bool {
	if f.last[core] == page+1 {
		return false
	}
	f.last[core] = page + 1
	return true
}

// Scan is Touch over a batch: request i, decoded as dec[i], sets
// touched[i]. It is branch-free, because whether a request continues its
// core's touch is close to a coin flip over a whole trace.
func (f *TouchFilter) Scan(dec []trace.Decoded, touched []bool) {
	touched = touched[:len(dec)]
	for i := range dec {
		d := &dec[i]
		v := d.Page + 1
		touched[i] = f.last[d.Core] != v
		f.last[d.Core] = v
	}
}

// Prime makes the next Touch(core, page) report touched, whatever the
// filter saw before; that Touch leaves the filter as it would any other.
func (f *TouchFilter) Prime(core uint8, page uint64, touched bool) {
	v := page + 1
	if touched {
		v = 0 // no page: the next Touch starts a new one
	}
	f.last[core] = v
}
