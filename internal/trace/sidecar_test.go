//go:build (linux || darwin) && !nomap

package trace

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/addr"
	"repro/internal/clock"
)

// planeWant computes the reference plane for a request slice.
func planeWant(reqs []Request, g *addr.Geom) []Decoded {
	want := make([]Decoded, len(reqs))
	for i := range reqs {
		want[i] = Decode(&reqs[i], g)
	}
	return want
}

func timesWant(reqs []Request) []clock.Time {
	want := make([]clock.Time, len(reqs))
	for i, r := range reqs {
		want[i] = r.Time
	}
	return want
}

// TestSidecarRoundTrip pins the store-backed derived-column lifecycle: the
// first mapped open streams the plane and time column into sidecars next
// to the snapshot file and maps them; the second open serves both from
// the existing sidecars, bit-identical to the reference decode.
func TestSidecarRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	l := addr.DefaultLayout()
	g := l.Geom()
	reqs := boundedReqs(rng, 500, l)
	path := writeSnapFile(t, t.TempDir(), "wl", reqs)

	s1, _, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	wantPlane := planeWant(reqs, &g)
	gotPlane := s1.Plane(&g)
	for i := range wantPlane {
		if gotPlane[i] != wantPlane[i] {
			t.Fatalf("first open: plane[%d] = %+v, want %+v", i, gotPlane[i], wantPlane[i])
		}
	}
	wantTimes := timesWant(reqs)
	gotTimes := s1.TimeColumn()
	for i := range wantTimes {
		if gotTimes[i] != wantTimes[i] {
			t.Fatalf("first open: times[%d] = %v, want %v", i, gotTimes[i], wantTimes[i])
		}
	}
	// The first open streams both columns into their sidecars and maps
	// them, so neither is held on the heap.
	if s1.planes[0].mapped == nil || s1.timeMapped == nil {
		t.Error("first open did not serve its built columns from mapped sidecars")
	}
	s1.Release()

	for _, p := range []string{planeSidecarPath(path, &g), timesSidecarPath(path)} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("sidecar %s not persisted: %v", p, err)
		}
	}

	s2, _, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Release()
	// The open itself adopts the times sidecar (it attests the varint
	// column, replacing the O(n) validation).
	if !s2.timeValid || s2.timeMapped == nil {
		t.Error("second open did not adopt the times sidecar")
	}
	gotPlane = s2.Plane(&g)
	if s2.planes[0].mapped == nil {
		t.Error("second open did not serve the plane from its sidecar")
	}
	for i := range wantPlane {
		if gotPlane[i] != wantPlane[i] {
			t.Fatalf("sidecar plane[%d] = %+v, want %+v", i, gotPlane[i], wantPlane[i])
		}
	}
	gotTimes = s2.TimeColumn()
	for i := range wantTimes {
		if gotTimes[i] != wantTimes[i] {
			t.Fatalf("sidecar times[%d] = %v, want %v", i, gotTimes[i], wantTimes[i])
		}
	}
}

// TestSidecarStaleParentRejected regenerates the snapshot file under a
// sidecar written for its previous content: the sidecar header's parent
// size/mtime stamp must fail closed, and the derived columns must reflect
// the new content.
func TestSidecarStaleParentRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	l := addr.DefaultLayout()
	g := l.Geom()
	dir := t.TempDir()
	oldReqs := boundedReqs(rng, 300, l)
	path := writeSnapFile(t, dir, "wl", oldReqs)

	s1, _, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	s1.Plane(&g)
	s1.TimeColumn()
	s1.Release()

	// Regenerate the parent with different requests (same count, so a
	// naive element-count check would still match) and force a distinct
	// mtime even on coarse-granularity filesystems.
	newReqs := boundedReqs(rng, 300, l)
	tmp := writeSnapFile(t, dir, "wl2", newReqs)
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, time.Now(), time.Now().Add(3*time.Second)); err != nil {
		t.Fatal(err)
	}

	s2, name, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Release()
	if name != "wl2" {
		t.Fatalf("reopened name %q", name)
	}
	wantPlane := planeWant(newReqs, &g)
	gotPlane := s2.Plane(&g)
	for i := range wantPlane {
		if gotPlane[i] != wantPlane[i] {
			t.Fatalf("stale sidecar served: plane[%d] = %+v, want %+v", i, gotPlane[i], wantPlane[i])
		}
	}
	wantTimes := timesWant(newReqs)
	gotTimes := s2.TimeColumn()
	for i := range wantTimes {
		if gotTimes[i] != wantTimes[i] {
			t.Fatalf("stale sidecar served: times[%d] = %v, want %v", i, gotTimes[i], wantTimes[i])
		}
	}
}

// TestSidecarCorruptionRejected corrupts sidecar files in ways the header
// alone would survive; the open-time checks (header fields, sample
// re-decode) must reject each and recompute correct columns.
func TestSidecarCorruptionRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	l := addr.DefaultLayout()
	g := l.Geom()

	corruptions := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"element count", func(b []byte) []byte { b[24] ^= 0x01; return b }},
		{"parent stamp", func(b []byte) []byte { b[40] ^= 0x01; return b }},
		{"sampled body entry", func(b []byte) []byte { b[sidecarHdrSize] ^= 0xff; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-8] }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			reqs := boundedReqs(rng, 200, l)
			path := writeSnapFile(t, t.TempDir(), "wl", reqs)
			s1, _, err := OpenMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			s1.Plane(&g)
			s1.TimeColumn()
			s1.Release()

			for _, sc := range []string{planeSidecarPath(path, &g), timesSidecarPath(path)} {
				b, err := os.ReadFile(sc)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(sc, tc.mutate(b), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			// Mutating the sidecars must not disturb the parent stamp the
			// rewritten sidecars will be validated against.
			s2, _, err := OpenMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Release()
			wantPlane := planeWant(reqs, &g)
			gotPlane := s2.Plane(&g)
			for i := range wantPlane {
				if gotPlane[i] != wantPlane[i] {
					t.Fatalf("plane[%d] = %+v, want %+v", i, gotPlane[i], wantPlane[i])
				}
			}
			wantTimes := timesWant(reqs)
			gotTimes := s2.TimeColumn()
			for i := range wantTimes {
				if gotTimes[i] != wantTimes[i] {
					t.Fatalf("times[%d] = %v, want %v", i, gotTimes[i], wantTimes[i])
				}
			}
		})
	}
}

// TestSidecarNotSharedAcrossSpecGeometry writes a plane sidecar under the
// default layout, then opens the same snapshot under a layout whose slow
// row size differs (what memsys.LayoutFor produces for the NVM preset's
// 4 KB rows). The second geometry must get its own sidecar with its own
// decode — never the first geometry's bytes — and both must stay
// bit-correct for their layout.
func TestSidecarNotSharedAcrossSpecGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	lDefault := addr.DefaultLayout()
	lNVM := lDefault
	lNVM.SlowRowBytes = 4096
	gDefault, gNVM := lDefault.Geom(), lNVM.Geom()
	// The requests must be valid under both layouts (same capacities).
	reqs := boundedReqs(rng, 400, lDefault)
	path := writeSnapFile(t, t.TempDir(), "wl", reqs)

	pDefault, pNVM := planeSidecarPath(path, &gDefault), planeSidecarPath(path, &gNVM)
	if pDefault == pNVM {
		t.Fatalf("spec geometries share sidecar path %s", pDefault)
	}

	s1, _, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	s1.Plane(&gDefault)
	s1.Release()
	if _, err := os.Stat(pDefault); err != nil {
		t.Fatalf("default-geometry sidecar not persisted: %v", err)
	}

	s2, _, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Release()
	got := s2.Plane(&gNVM)
	want := planeWant(reqs, &gNVM)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NVM-geometry plane[%d] = %+v, want %+v (default-geometry sidecar reused?)",
				i, got[i], want[i])
		}
	}
	if _, err := os.Stat(pNVM); err != nil {
		t.Fatalf("NVM-geometry sidecar not persisted: %v", err)
	}
}

// TestGeomFingerprintDistinguishesLayouts guards the plane sidecar's
// content key: distinct layouts must not share a fingerprint, or a plane
// decoded under one geometry could serve another.
func TestGeomFingerprintDistinguishesLayouts(t *testing.T) {
	layouts := []addr.Layout{
		addr.DefaultLayout(),
		{FastBytes: 9 << 30, FastChannels: 8, NumPods: 4},
		{SlowBytes: 9 << 30, SlowChannels: 4, NumPods: 4},
		func() addr.Layout {
			l := addr.DefaultLayout()
			l.SlowRowBytes = 4096
			return l
		}(),
		func() addr.Layout {
			l := addr.DefaultLayout()
			l.FastRowBytes = 2048
			return l
		}(),
	}
	seen := map[uint64]int{}
	for i, l := range layouts {
		g := l.Geom()
		fp := geomFingerprint(&g)
		if j, dup := seen[fp]; dup {
			t.Fatalf("layouts %d and %d share fingerprint %#x", j, i, fp)
		}
		seen[fp] = i
	}
}

// TestPlaneSidecarCorruptEntryRecomputed pins the full range check on an
// adopted plane sidecar: one mid-body entry with an out-of-range pod, or
// with a write flag byte that is no bool (the sample check reads only the
// first and last 32 entries), must make the open recompute the plane, not
// serve an entry that would index past the mechanism's per-pod tables or
// misread as a bool.
func TestPlaneSidecarCorruptEntryRecomputed(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	l := addr.DefaultLayout()
	g := l.Geom()
	elem := int(unsafe.Sizeof(Decoded{}))
	for _, tc := range []struct {
		name  string
		field uintptr
		bytes []byte
	}{
		{"pod", unsafe.Offsetof(Decoded{}.Pod), []byte{0xff, 0xff}},
		{"write", unsafe.Offsetof(Decoded{}.Write), []byte{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reqs := boundedReqs(rng, 500, l)
			path := writeSnapFile(t, t.TempDir(), "wl", reqs)
			s1, _, err := OpenMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			s1.Plane(&g)
			s1.Release()

			sc := planeSidecarPath(path, &g)
			b, err := os.ReadFile(sc)
			if err != nil {
				t.Fatal(err)
			}
			at := sidecarHdrSize + len(reqs)/2*elem + int(tc.field)
			copy(b[at:], tc.bytes)
			if err := os.WriteFile(sc, b, 0o644); err != nil {
				t.Fatal(err)
			}

			s2, _, err := OpenMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Release()
			want := planeWant(reqs, &g)
			got := s2.Plane(&g)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("plane[%d] = %+v, want %+v", i, got[i], want[i])
				}
			}
			if b, err = os.ReadFile(sc); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(b[at:at+len(tc.bytes)], tc.bytes) {
				t.Error("the corrupt sidecar was not rebuilt")
			}
		})
	}
}

// TestPlaneSidecarOldLayoutRebuilt plants a plane sidecar in the layout
// before entries carried their request's core and write flag: magic
// "MPDP1", and those two bytes zero (they were padding). Everything else
// in it is valid, and the requests the open samples (the first and last
// 32) are core-0 reads, so only the magic tells the layouts apart. The
// open must reject it and rebuild the sidecar in the current layout,
// never serve the middle requests' cores and writes as zero.
func TestPlaneSidecarOldLayoutRebuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	l := addr.DefaultLayout()
	g := l.Geom()
	reqs := boundedReqs(rng, 500, l)
	for i := range reqs {
		reqs[i].Core, reqs[i].Write = 0, false
		if i >= 32 && i < len(reqs)-32 {
			reqs[i].Core, reqs[i].Write = uint8(1+i%7), i%3 == 0
		}
	}
	path := writeSnapFile(t, t.TempDir(), "wl", reqs)
	s1, _, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	s1.Plane(&g)
	s1.Release()

	sc := planeSidecarPath(path, &g)
	b, err := os.ReadFile(sc)
	if err != nil {
		t.Fatal(err)
	}
	copy(b, "MPDP1\x00\x00\x00")
	elem := int(unsafe.Sizeof(Decoded{}))
	for i := range reqs {
		e := sidecarHdrSize + i*elem
		b[e+int(unsafe.Offsetof(Decoded{}.Core))] = 0
		b[e+int(unsafe.Offsetof(Decoded{}.Write))] = 0
	}
	if err := os.WriteFile(sc, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, _, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Release()
	want := planeWant(reqs, &g)
	got := s2.Plane(&g)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("plane[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if s2.planes[0].mapped == nil {
		t.Error("the rebuilt plane is not served from its sidecar")
	}
	if b, err = os.ReadFile(sc); err != nil {
		t.Fatal(err)
	}
	if string(b[:8]) != planeMagic {
		t.Errorf("sidecar magic %q after the open, want the rebuilt %q", b[:8], planeMagic)
	}
}

// TestSidecarBuildUnwritableDirFallsBack opens a snapshot whose directory
// cannot take a new file: the streamed sidecar builds fail, and Plane and
// TimeColumn must fall back to heap columns that replay identically.
func TestSidecarBuildUnwritableDirFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	l := addr.DefaultLayout()
	g := l.Geom()
	reqs := boundedReqs(rng, 400, l)
	dir := filepath.Join(t.TempDir(), "ro")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := writeSnapFile(t, dir, "wl", reqs)
	s, _, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if f, err := os.CreateTemp(dir, "probe-*"); err == nil {
		// Permission bits do not bind a privileged user: take the
		// directory away instead (the open mapping survives it).
		f.Close()
		os.Chmod(dir, 0o755)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
	}

	var got []Request
	var r Request
	ds := s.DecodedStream(&g)
	for ds.Next(&r) {
		got = append(got, r)
	}
	if s.planes[0].mapped != nil || s.timeMapped != nil {
		t.Fatal("a column was served from a sidecar the directory cannot hold")
	}
	if len(got) != len(reqs) {
		t.Fatalf("replayed %d requests, want %d", len(got), len(reqs))
	}
	for i := range reqs {
		if got[i] != reqs[i] {
			t.Fatalf("request %d = %+v, want %+v", i, got[i], reqs[i])
		}
	}
	want := planeWant(reqs, &g)
	for i, d := range s.Plane(&g) {
		if d != want[i] {
			t.Fatalf("plane[%d] = %+v, want %+v", i, d, want[i])
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) > 1 {
		t.Fatalf("failed builds left %d files beside the snapshot", len(ents)-1)
	}
}

// TestPlaneSplitInRange drives planeInRange over a plane long enough to be
// checked in parts (splitSpan), on three cores: the whole plane passes,
// and one out-of-range entry fails the check wherever it lies, in the
// first part, at a part boundary or in the last part.
func TestPlaneSplitInRange(t *testing.T) {
	prev := runtime.GOMAXPROCS(3)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(73))
	l := addr.DefaultLayout()
	g := l.Geom()
	n := 3*splitMin + 7
	plane := planeWant(boundedReqs(rng, n, l), &g)
	if !planeInRange(plane, &g) {
		t.Fatal("a decoded plane failed the range check")
	}
	for _, at := range []int{0, n / 3, n/3 - 1, n / 2, n - 1} {
		bad := append([]Decoded(nil), plane...)
		bad[at].Pod = 0xffff
		if planeInRange(bad, &g) {
			t.Errorf("an out-of-range pod at entry %d of %d passed the range check", at, n)
		}
	}
}
