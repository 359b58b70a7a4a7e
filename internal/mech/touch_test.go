package mech

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// TestTouchFilterScanMatchesReference holds TouchFilter.Scan to a
// reference loop with one last-page register per core. Random (core,
// page) sequences, cut into batches of random size (down to one request),
// must give the reference's verdict for every request. A few cores and
// pages make the cases that matter common: a touch carried across a
// batch boundary, the same page on two cores, page 0 (which the filter
// stores as 1) and the last core register.
func TestTouchFilterScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(1000)
		cores, pages := 1+rng.Intn(4), 1+rng.Intn(5)
		dec := make([]trace.Decoded, n)
		for i := range dec {
			core := uint8(rng.Intn(cores))
			if core == 3 {
				core = 255
			}
			dec[i] = trace.Decoded{Core: core, Page: uint64(rng.Intn(pages))}
		}

		want := make([]bool, n)
		var last [256]struct {
			page uint64
			set  bool
		}
		for i, d := range dec {
			r := &last[d.Core]
			want[i] = !r.set || r.page != d.Page
			r.page, r.set = d.Page, true
		}

		var f TouchFilter
		got := make([]bool, n)
		for lo := 0; lo < n; {
			hi := min(n, lo+1+rng.Intn(64))
			f.Scan(dec[lo:hi], got[lo:hi])
			lo = hi
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: request %d (core %d, page %d): touched %v, want %v",
					trial, i, dec[i].Core, dec[i].Page, got[i], want[i])
			}
		}
	}
}
