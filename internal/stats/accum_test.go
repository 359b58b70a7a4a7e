package stats

import (
	"math/rand"
	"testing"

	"repro/internal/clock"
)

// randPairs builds n random (arrival, done) pairs with done >= arrival,
// the only shape the engine ever produces.
func randPairs(rng *rand.Rand, n int) (arrivals, done []clock.Time) {
	arrivals = make([]clock.Time, n)
	done = make([]clock.Time, n)
	for i := range arrivals {
		a := clock.Time(rng.Int63n(1 << 40))
		arrivals[i] = a
		done[i] = a + clock.Time(rng.Int63n(1<<20))
	}
	return arrivals, done
}

// noteAll is the per-request reference accumulation.
func noteAll(arrivals, done []clock.Time) Accum {
	var a Accum
	for i := range arrivals {
		a.Note(arrivals[i], done[i])
	}
	return a
}

// TestNoteColumnChunkInvariance pins the property the batched engine
// paths rely on: splitting a request sequence into arbitrary NoteColumn
// chunks (including empty ones) and interleaving per-request Note calls
// yields tallies identical to noting every pair individually. Requests
// and TotalStall are exact integer sums and Span a running max, so no
// grouping can perturb them.
func TestNoteColumnChunkInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(400)
		arrivals, done := randPairs(rng, n)
		want := noteAll(arrivals, done)

		var got Accum
		for lo := 0; lo < n; {
			switch rng.Intn(3) {
			case 0: // per-request
				got.Note(arrivals[lo], done[lo])
				lo++
			case 1: // empty column, then a chunk
				got.NoteColumn(nil, nil)
				fallthrough
			default:
				hi := lo + 1 + rng.Intn(n-lo)
				got.NoteColumn(arrivals[lo:hi], done[lo:hi])
				lo = hi
			}
		}
		if got != want {
			t.Fatalf("trial %d (n=%d): chunked %+v, want %+v", trial, n, got, want)
		}
	}
}

// TestFlushToWritesWithoutReset checks that FlushTo copies the tallies
// into the Result without consuming the Accum: accumulation can continue
// and a later flush reflects the extra requests.
func TestFlushToWritesWithoutReset(t *testing.T) {
	var a Accum
	a.Note(100, 700)
	a.Note(200, 500)

	var r Result
	a.FlushTo(&r)
	if r.Requests != 2 || r.TotalStall != 600+300 || r.Span != 700 {
		t.Fatalf("flushed %+v", r)
	}
	if (a != Accum{Requests: 2, TotalStall: 900, Span: 700}) {
		t.Fatalf("FlushTo mutated the accumulator: %+v", a)
	}

	a.Note(300, 1300)
	a.FlushTo(&r)
	if r.Requests != 3 || r.TotalStall != 900+1000 || r.Span != 1300 {
		t.Fatalf("reflushed %+v", r)
	}
}

// TestNoteColumnLengthMismatchPanics pins the guard: ragged columns are
// an engine bug, not data, and must fail loudly.
func TestNoteColumnLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NoteColumn accepted mismatched column lengths")
		}
	}()
	var a Accum
	a.NoteColumn(make([]clock.Time, 3), make([]clock.Time, 2))
}
