package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeSnapFile persists reqs as an MPS1 file under dir and returns its
// path.
func writeSnapFile(t testing.TB, dir, name string, reqs []Request) string {
	t.Helper()
	snap := Record(NewSliceStream(reqs), len(reqs))
	defer snap.Release()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, name, snap); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".mps1")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenMappedMatchesReadSnapshot differential-tests the mapped open
// against the copying reader over the same file: identical name, length
// and record sequence. On platforms (or builds) without mmap support
// OpenMapped falls back to the copying reader, so the test is meaningful
// everywhere.
func TestOpenMappedMatchesReadSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 64, 65, 1000} {
		reqs := randomOrderedReqs(rng, n)
		path := writeSnapFile(t, t.TempDir(), "wl", reqs)

		ms, mname, err := OpenMapped(path)
		if err != nil {
			t.Fatalf("n=%d: OpenMapped: %v", n, err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		rs, rname, err := ReadSnapshot(f)
		f.Close()
		if err != nil {
			t.Fatalf("n=%d: ReadSnapshot: %v", n, err)
		}
		if mname != rname || mname != "wl" {
			t.Errorf("n=%d: names %q vs %q", n, mname, rname)
		}
		if ms.Mapped() != MapSupported() {
			t.Errorf("n=%d: Mapped()=%v, MapSupported()=%v", n, ms.Mapped(), MapSupported())
		}
		want, have := Collect(rs.Stream()), Collect(ms.Stream())
		if len(want) != len(have) {
			t.Fatalf("n=%d: %d requests, want %d", n, len(have), len(want))
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("n=%d: request %d differs: %+v vs %+v", n, i, have[i], want[i])
			}
		}
		ms.Release()
		rs.Release()
	}
}

// TestParseSnapshotBytesOffsetErrors drives the structural error paths of
// the in-place MPS1 parser through a corruption table, checking that each
// failure wraps ErrBadTrace and names where parsing stopped.
func TestParseSnapshotBytesOffsetErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	snap := Record(NewSliceStream(randomOrderedReqs(rng, 100)), 100)
	defer snap.Release()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, "wl", snap); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   []string
	}{
		{"empty", func(b []byte) []byte { return nil }, []string{"truncated snapshot magic", "offset 0"}},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, []string{"bad snapshot magic"}},
		{"cut name", func(b []byte) []byte { return b[:6] }, []string{"truncated snapshot name", "offset 6"}},
		{"cut counts", func(b []byte) []byte { return b[:10] }, []string{"truncated snapshot counts", "offset 8"}},
		{
			"implausible count",
			func(b []byte) []byte {
				for i := 8; i < 16; i++ {
					b[i] = 0xff
				}
				return b
			},
			[]string{"implausible snapshot sizes"},
		},
		{"cut times column", func(b []byte) []byte { return b[:30] }, []string{"truncated times column", "offset 24"}},
		{"cut address column", func(b []byte) []byte { return b[:len(b)/2] }, []string{"truncated address column"}},
		{"cut cores column", func(b []byte) []byte { return b[:len(b)-2] }, []string{"truncated cores column"}},
		{"trailing bytes", func(b []byte) []byte { return append(b, 1, 2, 3) }, []string{"3 trailing bytes"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.mutate(bytes.Clone(full))
			_, _, err := parseSnapshotBytes(in)
			if err == nil {
				t.Fatal("parse accepted corrupt input")
			}
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("error %v does not wrap ErrBadTrace", err)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q missing %q", err, w)
				}
			}
		})
	}
}

// TestOpenMappedRejectsCorruptTimes pins down that a mapped open without
// a sidecar still validates the varint times column end to end, exactly
// like the copying reader (the fast open path must not trade away the
// fail-fast diagnosis).
func TestOpenMappedRejectsCorruptTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	path := writeSnapFile(t, t.TempDir(), "wl", randomOrderedReqs(rng, 200))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Force the last byte of the times column into a varint continuation:
	// columns follow the 4+2+2+16 header, times first.
	snap := Record(NewSliceStream(randomOrderedReqs(rand.New(rand.NewSource(47)), 200)), 200)
	timesLen := len(snap.times)
	snap.Release()
	data[4+2+2+16+timesLen-1] |= 0x80
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, _, err := OpenMapped(path); err == nil {
		s.Release()
		t.Fatal("OpenMapped accepted corrupt times column")
	}
}

// TestReleasedSharedSnapshotDoesNotPoisonPool pins the fix for a pool
// corruption: ReadSnapshot slices all four columns out of one shared read
// buffer (addrs, then writes, then cores, back to back), so releasing
// such a snapshot into the recording pool hands a later Record column
// slices that all alias that buffer. The overlap window is a recording
// slightly *larger* than the pooled one — the whole buffer's capacity
// still satisfies the addrs check, but the address column now extends
// past its old region into the writes and cores regions while those
// columns are appended in place. Release must drop shared snapshots
// instead of pooling them; the Record right after the release (which,
// with the free list emptied, would reuse exactly the poisoned struct
// without the fix) has to round-trip exactly.
func TestReleasedSharedSnapshotDoesNotPoisonPool(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	small := randomOrderedReqs(rng, 120)
	bigger := randomOrderedReqs(rng, 130)
	path := writeSnapFile(t, t.TempDir(), "wl", small)

	for trial := 0; trial < 8; trial++ {
		// Empty the free list, so the Record right after the release
		// takes exactly the released struct (or would, without the fix).
		snapFree.mu.Lock()
		snapFree.list = nil
		snapFree.mu.Unlock()

		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		rs, _, err := ReadSnapshot(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !rs.shared {
			t.Fatal("ReadSnapshot result not marked shared")
		}
		rs.Release()

		snap := Record(NewSliceStream(bigger), len(bigger))
		got := Collect(snap.Stream())
		for i := range bigger {
			if got[i] != bigger[i] {
				t.Fatalf("trial %d: request %d replayed %+v, want %+v (pool poisoned by shared snapshot)",
					trial, i, got[i], bigger[i])
			}
		}
	}
}

// BenchmarkSnapshotReplayMapped measures the zero-copy replay loop over a
// store-mapped snapshot — the steady-state per-request cost of a cached
// matrix cell with a disk store. The acceptance bar is 0 allocs/op.
func BenchmarkSnapshotReplayMapped(b *testing.B) {
	reqs := benchReqs(1 << 16)
	path := writeSnapFile(b, b.TempDir(), "wl", reqs)
	snap, _, err := OpenMapped(path)
	if err != nil {
		b.Fatal(err)
	}
	defer snap.Release()
	ss := snap.Stream()
	b.ReportAllocs()
	b.ResetTimer()
	var r Request
	for i := 0; i < b.N; i++ {
		if !ss.Next(&r) {
			ss.Reset()
		}
	}
}
