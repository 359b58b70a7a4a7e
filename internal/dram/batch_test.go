package dram

import (
	"math/rand"
	"testing"

	"repro/internal/clock"
)

// batchSpecs are the channel shapes the batch kernel must reproduce
// exactly: both paper specs, refresh enabled, closed-page policy, and a
// non-power-of-two bank count (divisor fallback in the bank decode).
func batchSpecs() []Spec {
	nonPow2 := HBM()
	nonPow2.Name = "HBM-12banks"
	nonPow2.Banks = 12
	closed := DDR4_1600()
	closed.Name = "DDR4-closed"
	closed.Policy = ClosedPage
	return []Spec{
		HBM(),
		DDR4_1600(),
		HBM().WithRefresh(),
		DDR4_1600().WithRefresh(),
		closed,
		nonPow2,
		// Registry presets with behavior the paper pair never exercises:
		// write asymmetry (NVM), a serial link in front of the channel
		// (CXL), both together with refresh, and the small-row mobile part.
		NVMPCM(),
		CXLDDR5(),
		NVMPCM().WithRefresh(),
		CXLDDR5().WithRefresh(),
		LPDDR5_6400(),
		HBM3(),
	}
}

// randomColumn builds a column of n requests with nondecreasing issue
// times (the order AccessBatch is specified for), rows drawn from a small
// range so hits, closed-row activations and conflicts all occur, and
// occasional long gaps so refresh catch-up spans multiple tREFI windows.
func randomColumn(rng *rand.Rand, n int) []BatchReq {
	reqs := make([]BatchReq, n)
	var t clock.Time
	for i := range reqs {
		switch rng.Intn(10) {
		case 0: // long idle gap: several refresh windows pass
			t += clock.Duration(rng.Intn(40_000)) * clock.Nanosecond
		case 1, 2, 3: // short gap
			t += clock.Duration(rng.Intn(50)) * clock.Nanosecond
		}
		reqs[i] = BatchReq{
			Row:   uint64(rng.Intn(64)),
			At:    t,
			Idx:   int32(i),
			Write: rng.Intn(3) == 0,
		}
	}
	return reqs
}

// TestAccessBatchMatchesAccess is the kernel's differential guarantee:
// for every spec shape, a column serviced by AccessBatch leaves the
// channel in the same observable state (counters, completion times,
// LastFinish) as the equivalent sequence of Access calls, including the
// done-as-running-max contract with preloaded completion floors.
func TestAccessBatchMatchesAccess(t *testing.T) {
	for _, spec := range batchSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			ref := NewChannel(spec)
			got := NewChannel(spec)
			// Several columns in a row, with direct Access calls between
			// them, so carried state (bus-free time, refresh horizon, open
			// rows) is exercised across batch boundaries too.
			var t0 clock.Time
			for round := 0; round < 5; round++ {
				reqs := randomColumn(rng, 300)
				for i := range reqs {
					reqs[i].At += t0
				}
				wantDone := make([]clock.Time, len(reqs))
				gotDone := make([]clock.Time, len(reqs))
				for i := range reqs {
					// A nonzero floor on every third slot models the
					// migration-lock release times mechanisms preload.
					if i%3 == 0 {
						floor := reqs[i].At + clock.Duration(rng.Intn(30))*clock.Nanosecond
						wantDone[i] = floor
						gotDone[i] = floor
					}
				}
				for i := range reqs {
					r := &reqs[i]
					if d := ref.Access(r.Row, r.Write, r.At); d > wantDone[r.Idx] {
						wantDone[r.Idx] = d
					}
				}
				got.AccessBatch(reqs, gotDone)
				for i := range wantDone {
					if gotDone[i] != wantDone[i] {
						t.Fatalf("round %d req %d: done %v, want %v", round, i, gotDone[i], wantDone[i])
					}
				}
				if rs, gs := ref.Stats(), got.Stats(); rs != gs {
					t.Fatalf("round %d: stats diverged\nbatch:  %+v\nserial: %+v", round, gs, rs)
				}
				// Interleave a few identical direct accesses before the next
				// column, so LastFinish monotonicity and carried bus state
				// are checked across mixed batch/direct use.
				t0 = wantDone[len(wantDone)-1]
				for i := 0; i < 10; i++ {
					row := uint64(rng.Intn(64))
					at := t0
					t0 = ref.Access(row, i%2 == 0, at)
					if d := got.Access(row, i%2 == 0, at); d != t0 {
						t.Fatalf("round %d: interleaved access diverged (%v != %v)", round, d, t0)
					}
				}
			}
		})
	}
}

// TestAccessBatchEmptyColumn pins the empty-column edge: no state moves,
// and in particular LastFinish is not zeroed.
func TestAccessBatchEmptyColumn(t *testing.T) {
	c := NewChannel(HBM())
	c.Access(5, false, 100)
	before := c.Stats()
	c.AccessBatch(nil, nil)
	if after := c.Stats(); after != before {
		t.Errorf("empty batch changed stats: %+v -> %+v", before, after)
	}
}
