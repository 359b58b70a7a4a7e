package workload

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/trace"
)

// recorder is what both workload kinds offer for recording.
type recorder interface {
	Stream(n int, seed int64) (trace.Stream, error)
	Record(n int, seed int64) (*trace.Snapshot, error)
}

// mps1 encodes a snapshot in the MPS1 file format.
func mps1(t testing.TB, s *trace.Snapshot) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := trace.WriteSnapshot(&b, "w", s); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// serialMPS1 is the MPS1 encoding of the serial recording,
// trace.Record(w.Stream(n, seed), n).
func serialMPS1(t testing.TB, w recorder, n int, seed int64) []byte {
	t.Helper()
	s, err := w.Stream(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	snap := trace.Record(s, n)
	defer snap.Release()
	return mps1(t, snap)
}

// parallelMPS1 is the MPS1 encoding of w.Record(n, seed).
func parallelMPS1(t testing.TB, w recorder, n int, seed int64) []byte {
	t.Helper()
	snap, err := w.Record(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if snap.Len() != n {
		t.Fatalf("recorded %d requests, want %d", snap.Len(), n)
	}
	return mps1(t, snap)
}

// waitGoroutines fails unless the goroutine count drops back to base. An
// exiting goroutine may still be counted for a moment after it has
// signalled, so the check polls briefly.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// panicStream yields ok requests, then panics.
type panicStream struct{ ok int }

func (p *panicStream) Next(r *trace.Request) bool {
	if p.ok == 0 {
		panic("generator fault")
	}
	p.ok--
	r.Time++
	return true
}

// TestParallelRecordBitIdentical pins Record to the serial recording: the
// MPS1 bytes of w.Record(n, seed) equal those of
// trace.Record(w.Stream(n, seed), n) for every evaluated workload, for a
// custom workload, and for lengths around the chunk boundaries; and every
// producer goroutine is gone when Record returns, on success and on error.
func TestParallelRecordBitIdentical(t *testing.T) {
	base := runtime.NumGoroutine()
	const n, seed = 3*chunkLen + 17, 7
	for _, w := range All() {
		if !bytes.Equal(parallelMPS1(t, w, n, seed), serialMPS1(t, w, n, seed)) {
			t.Errorf("%s: parallel recording differs from serial", w.Name)
		}
	}
	cw, err := LoadCustom(strings.NewReader(customDef))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parallelMPS1(t, cw, n, seed), serialMPS1(t, cw, n, seed)) {
		t.Errorf("custom %s: parallel recording differs from serial", cw.Name)
	}
	mix5 := byTestName(t, "mix5")
	for _, n := range []int{1, chunkLen - 1, chunkLen, chunkLen + 1, 8*chunkLen + 3} {
		if !bytes.Equal(parallelMPS1(t, mix5, n, seed), serialMPS1(t, mix5, n, seed)) {
			t.Errorf("mix5 n=%d: parallel recording differs from serial", n)
		}
	}
	waitGoroutines(t, base, "after successful recordings")

	// Finite per-core streams end cleanly, as in the serial merge.
	finite := func() []trace.Stream {
		srcs := make([]trace.Stream, coreSlots)
		for c := range srcs {
			reqs := make([]trace.Request, c*chunkLen/3)
			for i := range reqs {
				reqs[i] = trace.Request{Addr: uint64(64 * i), Time: clock.Time(10 * i * (c + 1)), Core: uint8(c)}
			}
			srcs[c] = trace.NewSliceStream(reqs)
		}
		return srcs
	}
	got, err := record(finite(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	want := trace.Record(merged(finite(), 1<<20), 1<<20)
	if !bytes.Equal(mps1(t, got), mps1(t, want)) {
		t.Error("finite streams: parallel recording differs from serial")
	}
	got.Release()
	want.Release()

	// A producer panic comes back as the error, after every producer has
	// been joined.
	for _, ok := range []int{0, chunkLen / 2, 5 * chunkLen} {
		srcs, err := newGenerators(&cw.profiles, seed)
		if err != nil {
			t.Fatal(err)
		}
		srcs[3] = &panicStream{ok: ok}
		snap, err := record(srcs, 20*chunkLen)
		if err == nil || !strings.Contains(err.Error(), "core 3 generator panicked: generator fault") {
			t.Fatalf("panic after %d requests: got error %v", ok, err)
		}
		if snap != nil {
			t.Fatal("failed recording returned a snapshot")
		}
	}
	if _, err := (Workload{Name: "w", Benchmarks: [8]string{"nope"}}).Record(n, seed); err == nil {
		t.Fatal("unknown benchmark recorded")
	}
	waitGoroutines(t, base, "after failed recordings")
}

// FuzzLoadCustom feeds arbitrary bytes to the custom-workload parser. Any
// definition LoadCustom accepts must record without panicking, and its
// parallel recording must match the serial one byte for byte.
func FuzzLoadCustom(f *testing.F) {
	example, err := os.ReadFile("../../examples/customworkload/workload.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	f.Add([]byte(customDef))
	f.Add([]byte(`{"name":"w","profiles":[{"name":"p","footprint_pages":1024,"hot_frac":0.5,"zipf_s":1.2,"lines_per_touch":2,"write_frac":0.1,"gap_mean_ns":80}],"cores":["p"]}`))
	f.Add([]byte(`{"name":"w","profiles":[],"cores":["mcf"]}`))
	f.Add([]byte(`{"name":"w","profiles":[{"name":"p","footprint_pages":1024,"lines_per_touch":32,"write_frac":0,"gap_mean_ns":900000000000}],"cores":["p"]}`))
	f.Add(example[:len(example)/2])
	f.Add([]byte(`{"name":`))
	f.Add([]byte{})
	f.Add([]byte("\x00\xff{]"))
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := LoadCustom(bytes.NewReader(data))
		if err != nil {
			return
		}
		const n, seed = 2000, 3
		if !bytes.Equal(parallelMPS1(t, w, n, seed), serialMPS1(t, w, n, seed)) {
			t.Fatal("parallel recording differs from serial")
		}
	})
}

// BenchmarkRecord compares the serial recording of mix5,
// trace.Record(w.Stream(n, seed), n), with Record's per-core producers.
// ns/req is ns/op divided by the recorded length.
func BenchmarkRecord(b *testing.B) {
	w, err := Mix(5)
	if err != nil {
		b.Fatal(err)
	}
	const n = 1 << 18
	run := func(b *testing.B, rec func() *trace.Snapshot) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec().Release()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/req")
	}
	b.Run("serial", func(b *testing.B) {
		run(b, func() *trace.Snapshot { return trace.Record(w.MustStream(n, 1), n) })
	})
	b.Run("parallel", func(b *testing.B) {
		run(b, func() *trace.Snapshot {
			s, err := w.Record(n, 1)
			if err != nil {
				b.Fatal(err)
			}
			return s
		})
	})
}
