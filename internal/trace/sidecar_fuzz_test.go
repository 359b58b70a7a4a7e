package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
	"unsafe"

	"repro/internal/addr"
	"repro/internal/clock"
	"repro/internal/dram"
	"repro/internal/mech"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/trace"
)

// sidecarParentTime is the fixed mtime every fuzzed snapshot file gets, so
// the parent stamp in a seed sidecar's header keeps matching.
var sidecarParentTime = time.Unix(1_700_000_000, 123_456_789)

// FuzzSidecarOpen hardens the decode sidecars: fuzzed bytes stand in for
// the .plane and .times files of a small valid snapshot, which is then
// opened (OpenMapped) and replayed through its decoded columns under a
// Static mechanism. A sidecar that passes its checks must never make the
// replay panic — the run either errors or completes — and the plane the
// open serves must never hold a write flag byte other than 0 or 1.
func FuzzSidecarOpen(f *testing.F) {
	if !trace.MapSupported() {
		f.Skip("sidecars need mmap support")
	}
	// Small enough to keep fuzz iterations fast, large enough that entry
	// n/2 lies outside the first and last 32 entries the open samples.
	const n = 96
	rng := rand.New(rand.NewSource(79))
	reqs := make([]trace.Request, n)
	var now clock.Time
	total := addr.DefaultLayout().TotalBytes()
	for i := range reqs {
		now += clock.Time(rng.Intn(5000))
		reqs[i] = trace.Request{Addr: rng.Uint64() % total, Time: now, Write: rng.Intn(4) == 0, Core: uint8(rng.Intn(8))}
	}
	snap := trace.Record(trace.NewSliceStream(reqs), n)
	var buf bytes.Buffer
	if err := trace.WriteSnapshot(&buf, "wl", snap); err != nil {
		f.Fatal(err)
	}
	snap.Release()
	file := buf.Bytes()

	// One clean replay writes the real sidecars the seeds start from.
	path := writeFuzzParent(f, f.TempDir(), file)
	if err := replaySidecars(path); err != nil {
		f.Fatal(err)
	}
	planes, err := filepath.Glob(path + ".g*.plane")
	if err != nil || len(planes) != 1 {
		f.Fatalf("want one plane sidecar, found %v (%v)", planes, err)
	}
	planeName := filepath.Base(planes[0])[len(filepath.Base(path)):]
	plane, err := os.ReadFile(planes[0])
	if err != nil {
		f.Fatal(err)
	}
	times, err := os.ReadFile(path + ".times")
	if err != nil {
		f.Fatal(err)
	}

	const hdr = 56
	elem := int(unsafe.Sizeof(trace.Decoded{}))
	mutate := func(b []byte, fn func(b []byte)) []byte {
		b = bytes.Clone(b)
		fn(b)
		return b
	}
	f.Add(plane, times)
	f.Add(plane[:len(plane)-1], times[:hdr+8])
	f.Add(mutate(plane, func(b []byte) { b[0] ^= 0xff }), mutate(times, func(b []byte) { b[0] ^= 0xff }))
	f.Add(mutate(plane, func(b []byte) { b[24]++ }), mutate(times, func(b []byte) { b[24]-- }))
	f.Add(mutate(plane, func(b []byte) { b[hdr] ^= 0x01 }), mutate(times, func(b []byte) { b[hdr] ^= 0x01 }))
	f.Add(mutate(plane, func(b []byte) {
		binary.LittleEndian.PutUint16(b[hdr+n/2*elem+int(unsafe.Offsetof(trace.Decoded{}.Pod)):], 0xffff)
	}), times)
	// A write flag byte that is no bool, outside the sampled entries:
	// only the range check can reject it.
	f.Add(mutate(plane, func(b []byte) { b[hdr+n/2*elem+int(unsafe.Offsetof(trace.Decoded{}.Write))] = 2 }), times)

	// Iterations reuse the seed directory: the parent never changes, and
	// each iteration overwrites both sidecars.
	f.Fuzz(func(t *testing.T, plane, times []byte) {
		if err := os.WriteFile(path+planeName, plane, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+".times", times, 0o644); err != nil {
			t.Fatal(err)
		}
		// Either outcome is fine, except a served write flag that is no
		// bool; a panic fails the fuzz run too.
		if err := replaySidecars(path); errors.Is(err, errServedBadWrite) {
			t.Fatal(err)
		}
	})
}

// writeFuzzParent writes the snapshot file into dir with the fixed mtime.
func writeFuzzParent(t testing.TB, dir string, file []byte) string {
	t.Helper()
	path := filepath.Join(dir, "wl.mps")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, sidecarParentTime, sidecarParentTime); err != nil {
		t.Fatal(err)
	}
	return path
}

// errServedBadWrite reports a plane entry served with a write flag byte
// other than 0 or 1.
var errServedBadWrite = errors.New("plane served a write flag that is no bool")

// replaySidecars opens the snapshot at path, vets the write flag bytes of
// the plane it serves, and replays its decoded columns under the default
// two-level layout's Static mechanism.
func replaySidecars(path string) error {
	s, _, err := trace.OpenMapped(path)
	if err != nil {
		return err
	}
	defer s.Release()
	fast, slow, err := dram.PresetPair("", "")
	if err != nil {
		return err
	}
	sys, err := memsys.New(addr.DefaultLayout(), fast, slow)
	if err != nil {
		return err
	}
	b := mech.NewBackend(sys)
	for i, d := range s.Plane(&b.Geom) {
		if w := *(*uint8)(unsafe.Pointer(&d.Write)); w > 1 {
			return fmt.Errorf("%w: entry %d holds %d", errServedBadWrite, i, w)
		}
	}
	_, err = sim.New(b, mech.NewStatic("TLM", b)).Run("wl", s.DecodedStream(&b.Geom))
	return err
}
