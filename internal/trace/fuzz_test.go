package trace

import (
	"bytes"

	"repro/internal/clock"
	"testing"
)

// FuzzSnapshotDecode hardens the packed snapshot reader (the
// -trace-in/-trace-out persistence format): arbitrary input must either
// decode into a well-formed snapshot or return an error — never panic,
// never index past a column, and never allocate absurd amounts for a
// corrupt header.
func FuzzSnapshotDecode(f *testing.F) {
	// Seed with a valid three-record snapshot and targeted corruptions of
	// each header field and column boundary.
	snap := Record(NewSliceStream([]Request{
		{Addr: 64, Time: 10, Write: true, Core: 1},
		{Addr: 128, Time: 10, Core: 7},
		{Addr: 4096, Time: 300},
	}), 3)
	defer snap.Release()
	var good bytes.Buffer
	if err := WriteSnapshot(&good, "mix5", snap); err != nil {
		f.Fatal(err)
	}
	gb := good.Bytes()
	f.Add(gb)
	f.Add([]byte{})
	f.Add([]byte("MPS1"))
	f.Add([]byte("MPX1 wrong magic"))
	f.Add(gb[:len(gb)-1])                 // truncated last column
	f.Add(gb[:4+2+4+16])                  // header only, no columns
	f.Add(append([]byte(nil), gb[:4]...)) // magic, no name length
	// Huge request count with no data behind it.
	f.Add([]byte("MPS1\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	// Valid header, times column of continuation bytes only (no varint
	// ever terminates).
	bad := append([]byte(nil), gb...)
	for i := 4 + 2 + 4 + 16; i < len(bad); i++ {
		bad[i] = 0x80
	}
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, name, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = name
		// A successful decode must replay to exactly Len() records with
		// non-decreasing times (deltas are unsigned).
		n := 0
		var last clock.Time
		var r Request
		st := s.Stream()
		for st.Next(&r) {
			if r.Time < last {
				t.Fatalf("replayed time went backwards at record %d (%v < %v)", n, r.Time, last)
			}
			last = r.Time
			n++
		}
		if n != s.Len() {
			t.Fatalf("snapshot replayed %d records, Len() says %d", n, s.Len())
		}
		s.Release()
	})
}
