// Package stats defines the metrics the evaluation reports, chiefly AMMAT
// (Average Main Memory Access Time), computed exactly as §6.2 of the paper
// prescribes: total memory stall time over the number of original trace
// requests. Migration and bookkeeping traffic inflate the numerator
// (through contention and locking) but never the denominator.
package stats

import (
	"fmt"
	"math"

	"repro/internal/clock"
	"repro/internal/energy"
	"repro/internal/mech"
)

// Result summarizes one simulation run.
type Result struct {
	Workload  string
	Mechanism string

	Requests   uint64         // original trace requests (AMMAT denominator)
	TotalStall clock.Duration // Σ (completion − trace arrival)
	Span       clock.Duration // last completion time

	// Per-level service counts and row-buffer behaviour, including
	// migration and bookkeeping traffic.
	FastAccesses    uint64
	SlowAccesses    uint64
	FastActivations uint64 // row activations in fast memory
	SlowActivations uint64 // row activations in slow memory
	FastRowHitRate  float64
	SlowRowHitRate  float64
	RowHitRate      float64 // combined

	Mig mech.MigStats
}

// AMMAT returns the average main-memory access time in nanoseconds.
func (r Result) AMMAT() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.TotalStall) / float64(r.Requests) / float64(clock.Nanosecond)
}

// FastServiceFraction returns the fraction of all serviced accesses that
// hit fast memory.
func (r Result) FastServiceFraction() float64 {
	total := r.FastAccesses + r.SlowAccesses
	if total == 0 {
		return 0
	}
	return float64(r.FastAccesses) / float64(total)
}

// Energy evaluates the data-movement energy model (§5.3) over the run.
func (r Result) Energy() energy.Breakdown {
	return energy.Compute(energy.Counts{
		FastAccesses:    r.FastAccesses,
		SlowAccesses:    r.SlowAccesses,
		FastActivations: r.FastActivations,
		SlowActivations: r.SlowActivations,
		DemandLines:     r.Requests,
		GlobalMigLines:  r.Mig.GlobalMoveLines,
	})
}

// Normalized returns this result's AMMAT relative to a baseline run
// (typically the no-migration TLM configuration, as in Figures 8–10).
func (r Result) Normalized(baseline Result) float64 {
	b := baseline.AMMAT()
	if b == 0 {
		return 0
	}
	return r.AMMAT() / b
}

// String gives a one-line summary for logs.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s: AMMAT %.2fns, %d reqs, fast %.0f%%, moved %dMB",
		r.Workload, r.Mechanism, r.AMMAT(), r.Requests,
		100*r.FastServiceFraction(), r.Mig.BytesMoved>>20)
}

// Mean averages a metric over results.
func Mean(rs []Result, f func(Result) float64) float64 {
	if len(rs) == 0 {
		return 0
	}
	var sum float64
	for _, r := range rs {
		sum += f(r)
	}
	return sum / float64(len(rs))
}

// GeoMeanNormalized returns the geometric mean of rs[i].Normalized(bs[i]).
// The slices must be parallel. Geometric means are the standard way to
// average normalized performance across workloads.
func GeoMeanNormalized(rs, bs []Result) (float64, error) {
	if len(rs) != len(bs) || len(rs) == 0 {
		return 0, fmt.Errorf("stats: mismatched result sets (%d vs %d)", len(rs), len(bs))
	}
	logSum := 0.0
	for i := range rs {
		n := rs[i].Normalized(bs[i])
		if n <= 0 {
			return 0, fmt.Errorf("stats: non-positive normalized AMMAT for %s", rs[i].Workload)
		}
		logSum += math.Log(n)
	}
	return math.Exp(logSum / float64(len(rs))), nil
}
