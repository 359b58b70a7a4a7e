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
// never biases the mechanism comparison. It lives in the engine, not in
// the mechanisms: each engine worker keeps one, sees every request of
// the trace through Scan, and hands each request's verdict to
// Mechanism.Access as its touched argument.
type TouchFilter struct {
	last [256]uint64 // per-core last page + 1 (0 = none)
}

// Scan passes a batch of the trace through the filter: request i, decoded
// as dec[i], sets touched[i] when it begins a new page touch for its core.
// It is branch-free, because whether a request continues its core's touch
// is close to a coin flip over a whole trace.
func (f *TouchFilter) Scan(dec []trace.Decoded, touched []bool) {
	touched = touched[:len(dec)]
	for i := range dec {
		d := &dec[i]
		v := d.Page + 1
		touched[i] = f.last[d.Core] != v
		f.last[d.Core] = v
	}
}
