package tab

import (
	"math/rand"
	"testing"
)

// TestU32RecycleIsIdentity checks the package's core contract: a recycled
// table is indistinguishable from a fresh one.
func TestU32RecycleIsIdentity(t *testing.T) {
	const n = 1 << 12
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 5; round++ {
		u := NewU32(n)
		for i := range u.A {
			if u.A[i] != uint32(i) {
				t.Fatalf("round %d: A[%d] = %d on acquisition, want identity", round, i, u.A[i])
			}
		}
		for w, bits := range u.written {
			if bits != 0 {
				t.Fatalf("round %d: written word %d = %#x on acquisition, want empty", round, w, bits)
			}
		}
		for k := 0; k < 500; k++ {
			u.Set(uint32(rng.Intn(n)), rng.Uint32())
		}
		u.Release()
	}
}

// TestU32GetMatchesSlice drives random Set/Get sequences against a plain
// slice model across Release and pool reuse: Get must always return what
// the identity-initialized slice holds, whether or not the written set
// lets it skip loading A.
func TestU32GetMatchesSlice(t *testing.T) {
	const n = 1000 // not a multiple of 64: the last written-set word is partial
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 6; round++ {
		u := NewU32(n)
		ref := make([]uint32, n)
		for i := range ref {
			ref[i] = uint32(i)
		}
		for k := 0; k < 400; k++ {
			i := uint32(rng.Intn(n))
			switch rng.Intn(3) {
			case 0:
				u.Set(i, i) // an identity write keeps Get exact
				ref[i] = i
			case 1:
				v := rng.Uint32()
				u.Set(i, v)
				ref[i] = v
			}
			for _, j := range []uint32{i, uint32(rng.Intn(n))} {
				if got := u.Get(j); got != ref[j] {
					t.Fatalf("round %d step %d: Get(%d) = %d, want %d", round, k, j, got, ref[j])
				}
			}
		}
		for j := range ref {
			if got := u.Get(uint32(j)); got != ref[j] {
				t.Fatalf("round %d: Get(%d) = %d, want %d", round, j, got, ref[j])
			}
		}
		u.Release()
	}
}

func TestU16ZeroJournal(t *testing.T) {
	const n = 1 << 12
	rng := rand.New(rand.NewSource(2))
	u := NewU16Zero(n)
	ref := make(map[uint32]uint16)
	for k := 0; k < 2000; k++ {
		i := uint32(rng.Intn(n))
		c := u.A[i]
		if c != ref[i] {
			t.Fatalf("A[%d] = %d, want %d", i, c, ref[i])
		}
		u.Set(i, c, c+1)
		ref[i] = c + 1
	}
	// The journal holds exactly the nonzero entries, each once.
	seen := make(map[uint32]bool)
	for _, i := range u.Touched() {
		if seen[i] {
			t.Fatalf("journal lists %d twice", i)
		}
		seen[i] = true
	}
	if len(seen) != len(ref) {
		t.Fatalf("journal has %d entries, want %d", len(seen), len(ref))
	}
	u.Clear()
	for i := range u.A {
		if u.A[i] != 0 {
			t.Fatalf("A[%d] = %d after Clear", i, u.A[i])
		}
	}
	if len(u.Touched()) != 0 {
		t.Fatalf("journal not empty after Clear")
	}
	u.Release()
	u2 := NewU16Zero(n)
	for i := range u2.A {
		if u2.A[i] != 0 {
			t.Fatalf("recycled table A[%d] = %d, want 0", i, u2.A[i])
		}
	}
}

func TestU64ZeroJournalAndRecycle(t *testing.T) {
	const n = 1 << 10
	rng := rand.New(rand.NewSource(3))
	u := NewU64Zero(n)
	ref := make(map[uint32]uint64)
	for k := 0; k < 3000; k++ {
		i := uint32(rng.Intn(n))
		c := u.A[i]
		if c != ref[i] {
			t.Fatalf("A[%d] = %d, want %d", i, c, ref[i])
		}
		v := uint64(rng.Intn(5)) // zero re-writes exercise the journal guard
		u.Set(i, c, v)
		if v == 0 {
			delete(ref, i)
		} else {
			ref[i] = v
		}
	}
	u.Release()
	u2 := NewU64Zero(n)
	for i := range u2.A {
		if u2.A[i] != 0 {
			t.Fatalf("recycled table A[%d] = %d, want 0", i, u2.A[i])
		}
	}
}

func TestEpochSet(t *testing.T) {
	s := NewEpochSet(64)
	s.Add(3)
	s.Add(7)
	if !s.Has(3) || !s.Has(7) || s.Has(4) {
		t.Fatal("membership wrong")
	}
	s.BeginEpoch()
	if s.Has(3) || s.Has(7) {
		t.Fatal("BeginEpoch did not empty the set")
	}
	s.Add(4)
	s.Release()
	s2 := NewEpochSet(64)
	for i := uint32(0); i < 64; i++ {
		if s2.Has(i) {
			t.Fatalf("recycled set contains %d", i)
		}
	}
}

// TestEpochSetWraparound forces the uint32 epoch wrap and checks the
// explicit rewind keeps membership correct.
func TestEpochSetWraparound(t *testing.T) {
	s := &EpochSet{stamp: make([]uint32, 8), cur: ^uint32(0) - 1}
	s.Add(1)
	s.BeginEpoch() // cur -> max
	if s.Has(1) {
		t.Fatal("stale member visible")
	}
	s.Add(2)
	s.BeginEpoch() // wraps: stamps cleared, cur = 1
	if s.Has(2) || s.cur != 1 {
		t.Fatalf("wraparound mishandled: cur=%d", s.cur)
	}
	s.Add(3)
	if !s.Has(3) {
		t.Fatal("post-wrap add lost")
	}
}

func TestPoolSizeKeying(t *testing.T) {
	a := NewU32(16)
	a.Set(5, 99)
	a.Release()
	b := NewU32(32)
	if len(b.A) != 32 {
		t.Fatalf("got table of %d entries, want 32", len(b.A))
	}
	c := NewU32(16)
	if len(c.A) != 16 || c.A[5] != 5 {
		t.Fatalf("recycled 16-entry table corrupt: len=%d A[5]=%d", len(c.A), c.A[5])
	}
}
