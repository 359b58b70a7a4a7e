package mech

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/clock"
)

// TestLockTableMatchesMap drives a LockTable and the map[uint64]clock.Time
// idiom it replaces through identical random operation streams and
// requires identical observable behaviour at every step: same Get answers,
// same post-Sweep contents.
func TestLockTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var lt LockTable
	ref := make(map[uint64]clock.Time)

	checkGet := func(k uint64) {
		t.Helper()
		want := ref[k] // zero when absent, exactly LockTable's convention
		if got := lt.Get(k); got != want {
			t.Fatalf("Get(%d) = %d, want %d", k, got, want)
		}
	}

	const keys = 40
	for step := 0; step < 50000; step++ {
		k := uint64(rng.Intn(keys))
		switch rng.Intn(5) {
		case 0, 1: // Raise, as the CopyQueue's copy step does
			end := clock.Time(1 + rng.Intn(1000))
			if end > ref[k] {
				ref[k] = end
			}
			lt.Raise(k, end)
		case 2: // access-path expiry: Get then Drop if expired
			start := clock.Time(rng.Intn(1000))
			checkGet(k)
			if end, ok := ref[k]; ok && end <= start {
				delete(ref, k)
				lt.Drop(k)
			}
		case 3: // boundary sweep
			b := clock.Time(rng.Intn(1000))
			for k, end := range ref {
				if end <= b {
					delete(ref, k)
				}
			}
			lt.Sweep(b)
		case 4:
			checkGet(k)
		}
		if lt.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, map has %d", step, lt.Len(), len(ref))
		}
	}
	for k := uint64(0); k < keys; k++ {
		checkGet(k)
	}
}

// TestLockTableCompact checks that MaybeCompact prunes only entries at or
// below the floor and leaves future-relevant locks intact.
func TestLockTableCompact(t *testing.T) {
	var lt LockTable
	for k := uint64(0); k < 200; k++ {
		lt.Raise(k, clock.Time(k+1))
	}
	lt.MaybeCompact(100) // len 200 >= initial threshold 64
	if lt.Len() != 100 {
		t.Fatalf("after compact at floor 100: Len = %d, want 100", lt.Len())
	}
	for k := uint64(0); k < 200; k++ {
		want := clock.Time(0)
		if k+1 > 100 {
			want = clock.Time(k + 1)
		}
		if got := lt.Get(k); got != want {
			t.Fatalf("Get(%d) = %d, want %d", k, got, want)
		}
	}
	// Below the (doubled) threshold nothing is pruned.
	lt.MaybeCompact(1000)
	if lt.Len() != 100 {
		t.Fatalf("compact fired below threshold: Len = %d", lt.Len())
	}
}

// TestLockTableRaiseKeepsLaterEnd pins the read-modify-write semantics:
// raising to an earlier end must not shorten a lock.
func TestLockTableRaiseKeepsLaterEnd(t *testing.T) {
	var lt LockTable
	lt.Raise(5, 100)
	lt.Raise(5, 50)
	if got := lt.Get(5); got != 100 {
		t.Fatalf("Get(5) = %d, want 100", got)
	}
	lt.Raise(5, 150)
	if got := lt.Get(5); got != 150 {
		t.Fatalf("Get(5) = %d, want 150", got)
	}
}

// TestLockTableGetActiveMatchesIdiom drives GetActive against the
// Get-then-Drop-if-expired idiom it fuses, running on a reference map.
// Both the stall answer and the table contents must match the idiom
// exactly at every step: the lazy drop is observable (a dropped entry and
// a kept-expired one answer differently to a later, earlier-timed probe),
// so GetActive must perform it at exactly the probes the idiom does.
func TestLockTableGetActiveMatchesIdiom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var lt LockTable
	ref := make(map[uint64]clock.Time)

	const keys = 40
	for step := 0; step < 50000; step++ {
		k := uint64(rng.Intn(keys))
		switch rng.Intn(4) {
		case 0, 1: // the access-path probe
			at := clock.Time(rng.Intn(1000))
			var want clock.Time
			if end, ok := ref[k]; ok {
				if end > at {
					want = end
				} else {
					delete(ref, k)
				}
			}
			if got := lt.GetActive(k, at); got != want {
				t.Fatalf("step %d: GetActive(%d, %d) = %d, want %d", step, k, at, got, want)
			}
		case 2: // swap-chunk lock raise
			end := clock.Time(1 + rng.Intn(1000))
			if end > ref[k] {
				ref[k] = end
			}
			lt.Raise(k, end)
		case 3: // interval-boundary sweep
			b := clock.Time(rng.Intn(1000))
			for k, end := range ref {
				if end <= b {
					delete(ref, k)
				}
			}
			lt.Sweep(b)
		}
		if lt.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, map has %d", step, lt.Len(), len(ref))
		}
		for k, end := range ref {
			if lt.Get(k) != end {
				t.Fatalf("step %d: map entry {%d,%d} missing from table", step, k, end)
			}
		}
	}
}

// TestLockTablePropertyBackwardShiftDelete is the delete-heavy adversary
// for the open-addressing layout. The "clustered" universes are built from
// the modular inverse of the Fibonacci multiplier, so every key hashes to
// the same preferred slot whatever the table capacity — probe chains reach
// maximum length and nearly every deletion backward-shifts a chain. The
// reference map checks observable semantics (Get answers, GetActive's lazy
// drop, sizes); the probe-reachability invariant checks the layout itself:
// after any interleaving of inserts and deletions, every live key must
// still be reachable from its preferred slot without crossing an empty
// slot, or a later Get would miss a present key.
func TestLockTablePropertyBackwardShiftDelete(t *testing.T) {
	// fibInv * 0x9E3779B97F4A7C15 == 1 (mod 2^64), by Newton iteration.
	const fib = 0x9E3779B97F4A7C15
	fibInv := uint64(fib)
	for i := 0; i < 5; i++ {
		fibInv *= 2 - fib*fibInv
	}
	if fibInv*fib != 1 {
		t.Fatalf("bad modular inverse")
	}

	universes := map[string]func(rng *rand.Rand, n int) []uint64{
		"clustered": func(rng *rand.Rand, n int) []uint64 {
			// key*fib == i: preferred slot (i >> shift) is 0 for all of
			// them, at every capacity the test reaches.
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = uint64(i+1) * fibInv
			}
			return keys
		},
		"dense": func(rng *rand.Rand, n int) []uint64 {
			base := rng.Uint64() >> 20 // page-number-like density
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = base + uint64(i)
			}
			return keys
		},
	}

	for name, gen := range universes {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				keys := gen(rng, 48)
				var lt LockTable
				ref := make(map[uint64]clock.Time)

				checkInvariant := func(step int) {
					t.Helper()
					live := 0
					for i := range lt.ends {
						if lt.ends[i] == 0 {
							continue
						}
						live++
						j := lt.slot(lt.keys[i])
						for j != uint64(i) {
							if lt.ends[j] == 0 {
								t.Fatalf("step %d: key %d at slot %d unreachable (empty slot %d in its probe chain)",
									step, lt.keys[i], i, j)
							}
							j = (j + 1) & lt.mask
						}
					}
					if live != lt.n {
						t.Fatalf("step %d: %d occupied slots but n = %d", step, live, lt.n)
					}
				}

				for step := 0; step < 30000; step++ {
					k := keys[rng.Intn(len(keys))]
					// Delete-heavy mix: half the operations remove entries,
					// directly (Drop) or via GetActive's lazy expiry drop.
					switch rng.Intn(8) {
					case 0, 1:
						delete(ref, k)
						lt.Drop(k)
					case 2, 3:
						// A late probe time makes most hits expire in place.
						at := clock.Time(700 + rng.Intn(300))
						var want clock.Time
						if end, ok := ref[k]; ok {
							if end > at {
								want = end
							} else {
								delete(ref, k)
							}
						}
						if got := lt.GetActive(k, at); got != want {
							t.Fatalf("step %d: GetActive(%d, %d) = %d, want %d", step, k, at, got, want)
						}
					case 4, 5, 6:
						end := clock.Time(1 + rng.Intn(1000))
						if end > ref[k] {
							ref[k] = end
						}
						lt.Raise(k, end)
					case 7:
						if got, want := lt.Get(k), ref[k]; got != want {
							t.Fatalf("step %d: Get(%d) = %d, want %d", step, k, got, want)
						}
					}
					if lt.Len() != len(ref) {
						t.Fatalf("step %d: Len = %d, map has %d", step, lt.Len(), len(ref))
					}
					if step%64 == 0 {
						checkInvariant(step)
						for _, k := range keys {
							if got, want := lt.Get(k), ref[k]; got != want {
								t.Fatalf("step %d: full check: Get(%d) = %d, want %d", step, k, got, want)
							}
						}
					}
				}
				checkInvariant(30000)
			})
		}
	}
}
