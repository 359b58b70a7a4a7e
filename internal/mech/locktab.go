package mech

import (
	"math/bits"

	"repro/internal/clock"
)

// LockTable tracks in-flight migration locks: page (or line) keys mapped
// to the completion time of the copy that locks them. It replaces the
// map[key]clock.Time the mechanisms used to carry, with semantics proven
// equivalent (TestLockTableMatchesMap) and a representation sized to the
// access pattern: an open-addressing hash table with linear probing whose
// few dozen live entries stay L1-resident, answering the per-request
// probe in one multiply and (almost always) one slot inspection — against
// the handful of dependent-load iterations a sorted-slice binary search
// pays. It allocates nothing in steady state; slot occupancy is marked by
// the end time itself (lock ends are completion times, always positive),
// and deletion backward-shifts the probe chain so there are no
// tombstones to accumulate.
//
// The map semantics being preserved, entry by entry:
//
//	end, ok := locks[k]          ->  end := t.Get(k)   (0 means absent;
//	                                 real ends are completion times > 0)
//	delete(locks, k)             ->  t.Drop(k)
//	if e > locks[k] {locks[k]=e} ->  t.Raise(k, e)
//	range + delete if end <= b   ->  t.Sweep(b)
type LockTable struct {
	keys []uint64
	ends []clock.Time // ends[i] != 0 marks slot i occupied
	n    int          // live entries
	mask uint64       // len(ends)-1; capacity is a power of two
	// shift maps the 64-bit hash product onto the table: 64-log2(cap).
	shift uint8
	// compactAt triggers MaybeCompact's pruning; it doubles with the live
	// size so compaction is amortized O(1) per insert.
	compactAt int
	// Sweep's rebuild buffers, reused across sweeps.
	scratchK []uint64
	scratchE []clock.Time
}

// lockTableMinCap is the smallest table capacity; sized so a mechanism
// with a handful of in-flight swaps never rehashes.
const lockTableMinCap = 16

// slot returns key's preferred slot: Fibonacci multiplicative hashing,
// which spreads the dense low bits page and line keys arrive with.
func (t *LockTable) slot(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> t.shift
}

// Get returns the lock completion time for key, or 0 when the key is not
// locked.
func (t *LockTable) Get(key uint64) clock.Time {
	if t.n == 0 {
		return 0
	}
	i := t.slot(key)
	for t.ends[i] != 0 {
		if t.keys[i] == key {
			return t.ends[i]
		}
		i = (i + 1) & t.mask
	}
	return 0
}

// GetActive is the mechanisms' per-access lock probe, fusing the idiom
//
//	if end := locks.Get(k); end != 0 {
//	    if end > at { stall until end } else { locks.Drop(k) }
//	}
//
// into one search: it returns key's end when it is still in the future of
// `at` (the caller stalls), or 0 — removing the entry when it is present
// but expired, exactly like the idiom's lazy drop, which would otherwise
// pay a second search inside Drop.
//
// (A tempting shortcut — skip the search entirely when a cached
// max-of-all-ends has passed — is NOT taken: probe times are not monotone
// per table (ring-gated issue times fluctuate), so an entry the idiom
// would have lazily dropped at a late probe can come back to stall an
// earlier-timed later probe. The lazy drop is observable; it must happen
// at exactly the probes the idiom performs it at.)
func (t *LockTable) GetActive(key uint64, at clock.Time) clock.Time {
	if t.n == 0 {
		return 0
	}
	i := t.slot(key)
	for t.ends[i] != 0 {
		if t.keys[i] == key {
			if end := t.ends[i]; end > at {
				return end
			}
			t.del(i)
			return 0
		}
		i = (i + 1) & t.mask
	}
	return 0
}

// del vacates slot i and backward-shifts the probe chain behind it so
// linear probing never needs tombstones: each following entry that is not
// anchored between the hole and itself moves into the hole, opening a new
// hole at its old slot.
func (t *LockTable) del(i uint64) {
	t.n--
	j := i
	for {
		t.ends[i] = 0
		for {
			j = (j + 1) & t.mask
			if t.ends[j] == 0 {
				return
			}
			k := t.slot(t.keys[j])
			// If k lies cyclically in (i, j], entry j is anchored past
			// the hole and must stay; keep scanning.
			if i <= j {
				if i < k && k <= j {
					continue
				}
			} else if i < k || k <= j {
				continue
			}
			break
		}
		t.keys[i], t.ends[i] = t.keys[j], t.ends[j]
		i = j
	}
}

// Drop removes key's lock if present.
func (t *LockTable) Drop(key uint64) {
	if t.n == 0 {
		return
	}
	i := t.slot(key)
	for t.ends[i] != 0 {
		if t.keys[i] == key {
			t.del(i)
			return
		}
		i = (i + 1) & t.mask
	}
}

// Raise extends key's lock to end if that is later than its current end
// (inserting the key if absent), mirroring the read-modify-write the
// mechanisms perform per swap chunk.
func (t *LockTable) Raise(key uint64, end clock.Time) {
	if t.ends != nil {
		i := t.slot(key)
		for t.ends[i] != 0 {
			if t.keys[i] == key {
				if end > t.ends[i] {
					t.ends[i] = end
				}
				return
			}
			i = (i + 1) & t.mask
		}
	}
	if end <= 0 {
		return // matches `if end > locks[key]` against the map's zero value
	}
	t.insert(key, end)
}

// insert adds a key known to be absent, growing at 3/4 load so probe
// chains stay short.
func (t *LockTable) insert(key uint64, end clock.Time) {
	if len(t.ends) == 0 || (t.n+1)*4 > len(t.ends)*3 {
		t.grow()
	}
	i := t.slot(key)
	for t.ends[i] != 0 {
		i = (i + 1) & t.mask
	}
	t.keys[i], t.ends[i] = key, end
	t.n++
}

// grow doubles the capacity (or allocates the initial table) and rehashes
// the live entries.
func (t *LockTable) grow() {
	newCap := lockTableMinCap
	if len(t.ends) > 0 {
		newCap = 2 * len(t.ends)
	}
	oldK, oldE := t.keys, t.ends
	t.keys = make([]uint64, newCap)
	t.ends = make([]clock.Time, newCap)
	t.mask = uint64(newCap - 1)
	t.shift = uint8(64 - bits.Len(uint(newCap-1)))
	for idx, e := range oldE {
		if e != 0 {
			i := t.slot(oldK[idx])
			for t.ends[i] != 0 {
				i = (i + 1) & t.mask
			}
			t.keys[i], t.ends[i] = oldK[idx], e
		}
	}
}

// Sweep removes every lock whose end is at or before boundary — the
// interval-boundary expiry pass. The table is rebuilt from the survivors
// (into reused scratch buffers), which re-tightens every probe chain.
func (t *LockTable) Sweep(boundary clock.Time) {
	if t.n == 0 {
		return
	}
	sk, se := t.scratchK[:0], t.scratchE[:0]
	for i, e := range t.ends {
		if e > boundary {
			sk = append(sk, t.keys[i])
			se = append(se, e)
		}
		t.ends[i] = 0
	}
	t.scratchK, t.scratchE = sk, se
	t.n = len(sk)
	for idx, k := range sk {
		i := t.slot(k)
		for t.ends[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.keys[i], t.ends[i] = k, se[idx]
	}
}

// Len returns the number of locks held (for tests).
func (t *LockTable) Len() int { return t.n }

// MaybeCompact prunes locks that can never stall again, keeping the table
// small for mechanisms with no interval boundary to sweep at (THM, CAMEO,
// whose maps only shed an entry when its page happened to be re-accessed).
//
// floor must be a lower bound on every future lock query time; the
// engine's trace-order check makes the current request's trace timestamp
// exactly that (every future access starts at or after its own, later,
// trace time). A pruned entry has end <= floor <= every future query
// start, so the map would never stall on it again either — its only
// remaining effect would be its own lazy deletion, which is unobservable.
func (t *LockTable) MaybeCompact(floor clock.Time) {
	if t.compactAt == 0 {
		t.compactAt = 64
	}
	if t.n < t.compactAt {
		return
	}
	t.Sweep(floor)
	t.compactAt = 2 * t.n
	if t.compactAt < 64 {
		t.compactAt = 64
	}
}
