package resultcache

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/mech"
	"repro/internal/stats"
)

func testKey() CellKey {
	return CellKey{
		SimVersion: 1,
		Kind:       KindResult,
		Mech:       "mempod:{Interval:50000000000 Counters:64 CounterBits:2 CacheBytes:0 CacheWays:0 UseFullCounters:false}",
		FastFP:     0x0123456789abcdef,
		SlowFP:     0xfedcba9876543210,
		Layout:     "{FastBytes:1073741824 SlowBytes:8589934592 FastChannels:8 SlowChannels:4 NumPods:4 FastRowBytes:8192 SlowRowBytes:8192}",
		Workload:   "mix5",
		Requests:   150_000,
		Seed:       42,
	}
}

func testResult() stats.Result {
	return stats.Result{
		Workload: "mix5", Mechanism: "MemPod",
		Requests: 150_000, TotalStall: 12345678 * clock.Nanosecond,
		Span: 99 * clock.Microsecond, FastAccesses: 140_000, SlowAccesses: 17_000,
		FastActivations: 4200, SlowActivations: 910,
		FastRowHitRate: 0.91, SlowRowHitRate: 0.42, RowHitRate: 0.87,
		Mig: mech.MigStats{
			Intervals: 33, PageMigrations: 512, LineMigrations: 512 * 32,
			BytesMoved: 512 * 2048, CacheHits: 7, CacheMisses: 3,
			LockStalls: 12, DroppedMigrations: 1, GlobalMoveLines: 0,
		},
	}
}

func TestKeyCanonicalRoundTrip(t *testing.T) {
	keys := []CellKey{
		{},
		testKey(),
		{Kind: "oracle/v1", Mech: "oracle:128x4b", Workload: "name with spaces + %=signs\nnewline", Requests: -3, Seed: -42, Window: -1},
		{SimVersion: 1 << 30, FastFP: ^uint64(0), TraceFP: 1},
	}
	for i, k := range keys {
		canon := k.Canonical()
		if strings.ContainsAny(canon, "\n\r") {
			t.Fatalf("key %d: canonical form contains a newline: %q", i, canon)
		}
		got, err := ParseKey(canon)
		if err != nil {
			t.Fatalf("key %d: ParseKey(%q): %v", i, canon, err)
		}
		if got != k {
			t.Fatalf("key %d round-trip: got %+v want %+v", i, got, k)
		}
	}
}

func TestKeyParseRejects(t *testing.T) {
	good := testKey().Canonical()
	bad := []string{
		"",
		"k0 " + strings.TrimPrefix(good, "k1 "),
		good + " extra=1",
		strings.Replace(good, "sim=", "sum=", 1),
		strings.Replace(good, "fast=", "fast=zz", 1),
		// Spellings the field parsers accept but Canonical never writes.
		strings.Replace(good, "req=", "req=0", 1),
		strings.Replace(good, "seed=", "seed=+", 1),
		strings.Replace(good, "fast=0123456789abcdef", "fast=0123456789ABCDEF", 1),
		strings.Replace(good, "%7B", "%7b", 1),
		strings.Replace(good, "wl=mix5", "wl=mi%785", 1),
	}
	for _, s := range bad {
		if _, err := ParseKey(s); err == nil {
			t.Errorf("ParseKey(%q) accepted malformed key", s)
		}
	}
}

func TestKeyFingerprintSeparates(t *testing.T) {
	base := testKey()
	variants := []func(*CellKey){
		func(k *CellKey) { k.SimVersion++ },
		func(k *CellKey) { k.Kind = "other/v1" },
		func(k *CellKey) { k.Mech += "x" },
		func(k *CellKey) { k.FastFP++ },
		func(k *CellKey) { k.SlowFP++ },
		func(k *CellKey) { k.Layout += "x" },
		func(k *CellKey) { k.Workload = "mix6" },
		func(k *CellKey) { k.Requests++ },
		func(k *CellKey) { k.Seed++ },
		func(k *CellKey) { k.TraceFP++ },
		func(k *CellKey) { k.Window++ },
	}
	seen := map[uint64]string{base.Fingerprint(): base.Canonical()}
	for i, mutate := range variants {
		k := base
		mutate(&k)
		if k == base {
			t.Fatalf("variant %d did not change the key", i)
		}
		fp := k.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("variant %d: fingerprint collision between %q and %q", i, prev, k.Canonical())
		}
		seen[fp] = k.Canonical()
	}
}

func TestResultCodecRoundTrip(t *testing.T) {
	want := testResult()
	got, err := DecodeResult(EncodeResult(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	if zero, err := DecodeResult(EncodeResult(stats.Result{})); err != nil || !reflect.DeepEqual(zero, stats.Result{}) {
		t.Fatalf("zero-value round-trip: %+v, %v", zero, err)
	}
}

// TestResultCodecCoversEveryField is the codec's canary: if stats.Result
// or mech.MigStats grows a field, this count changes and the codec (plus
// the KindResult version) must be updated in the same commit — otherwise
// the new field would silently decode as zero from old cache entries.
func TestResultCodecCoversEveryField(t *testing.T) {
	if n := reflect.TypeOf(stats.Result{}).NumField(); n != 13 {
		t.Fatalf("stats.Result has %d fields; extend the KindResult codec and bump its version", n)
	}
	if n := reflect.TypeOf(mech.MigStats{}).NumField(); n != 9 {
		t.Fatalf("mech.MigStats has %d fields; extend the KindResult codec and bump its version", n)
	}
}

func TestResultCodecRejectsMalformed(t *testing.T) {
	good := EncodeResult(testResult())
	if _, err := DecodeResult(good[:len(good)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, err := DecodeResult(append(append([]byte(nil), good...), 0)); err == nil {
		t.Error("oversized payload accepted")
	}
	if _, err := DecodeResult(nil); err == nil {
		t.Error("empty payload accepted")
	}
}

func TestFileFrameRoundTrip(t *testing.T) {
	key := testKey()
	payload := EncodeResult(testResult())
	framed := EncodeFile(key, payload)
	gotKey, gotPayload, err := DecodeFile(framed)
	if err != nil {
		t.Fatal(err)
	}
	if gotKey != key {
		t.Fatalf("key mismatch: %+v", gotKey)
	}
	if !reflect.DeepEqual(gotPayload, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestFileFrameRejectsCorruption(t *testing.T) {
	framed := EncodeFile(testKey(), EncodeResult(testResult()))
	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"truncated header", func(b []byte) []byte { return b[:3] }},
		{"truncated key", func(b []byte) []byte { return b[:8] }},
		{"truncated checksum", func(b []byte) []byte { return b[:len(b)-1] }},
		{"trailing byte", func(b []byte) []byte { return append(b, 0) }},
		{"flipped payload bit", func(b []byte) []byte { b[len(b)-9] ^= 1; return b }},
		{"flipped key byte", func(b []byte) []byte { b[7] ^= 0x20; return b }},
	} {
		b := tc.mut(append([]byte(nil), framed...))
		if _, _, err := DecodeFile(b); !errors.Is(err, ErrBadFile) {
			t.Errorf("%s: want ErrBadFile, got %v", tc.name, err)
		}
	}
}

func TestCacheMissThenHit(t *testing.T) {
	c := New()
	key := testKey()
	runs := 0
	run := func() (stats.Result, error) { runs++; return testResult(), nil }
	for i := 0; i < 3; i++ {
		got, err := c.ResultCell(key, run)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, testResult()) {
			t.Fatalf("call %d: wrong result %+v", i, got)
		}
	}
	if runs != 1 {
		t.Fatalf("compute ran %d times, want 1", runs)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 2 || s.Stale != 0 {
		t.Fatalf("stats %+v, want 1 miss / 2 hits", s)
	}
}

func TestCacheErrorForgetsEntry(t *testing.T) {
	c := New()
	key := testKey()
	boom := errors.New("boom")
	if _, err := c.ResultCell(key, func() (stats.Result, error) { return stats.Result{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	got, err := c.ResultCell(key, func() (stats.Result, error) { return testResult(), nil })
	if err != nil || !reflect.DeepEqual(got, testResult()) {
		t.Fatalf("retry after error: %+v, %v", got, err)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := New()
	key := testKey()
	const waiters = 50
	var mu sync.Mutex
	runs := 0
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			got, err := c.ResultCell(key, func() (stats.Result, error) {
				mu.Lock()
				runs++
				mu.Unlock()
				return testResult(), nil
			})
			if err != nil || got.Requests != testResult().Requests {
				t.Errorf("concurrent get: %+v, %v", got, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if runs != 1 {
		t.Fatalf("compute ran %d times under contention, want 1", runs)
	}
	s := c.Stats()
	if s.Hits+s.Misses != waiters || s.Misses != 1 {
		t.Fatalf("stats %+v, want %d total with 1 miss", s, waiters)
	}
}

// TestCacheCountsFailedWrites points the store at a directory that does
// not exist: every persist must fail and be counted, while the results
// themselves are still computed once and served correctly.
func TestCacheCountsFailedWrites(t *testing.T) {
	c := New()
	c.SetDir(filepath.Join(t.TempDir(), "missing"))
	keys := []CellKey{testKey(), testKey()}
	keys[1].Seed++
	for round := 0; round < 2; round++ {
		for _, key := range keys {
			got, err := c.ResultCell(key, func() (stats.Result, error) { return testResult(), nil })
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, testResult()) {
				t.Fatalf("result %+v, want %+v", got, testResult())
			}
		}
	}
	s := c.Stats()
	if s.FailedWrites != 2 || s.Persisted != 0 || s.BytesWritten != 0 || s.Misses != 2 || s.Hits != 2 {
		t.Fatalf("stats %+v, want 2 misses, 2 hits and 2 failed writes", s)
	}
	if str := s.String(); !strings.Contains(str, " misses=2 ") || !strings.HasSuffix(str, " failed_writes=2") {
		t.Errorf("Stats.String() = %q", str)
	}
}

func TestCacheDiskPersistAndReload(t *testing.T) {
	dir := t.TempDir()
	key := testKey()

	cold := New()
	cold.SetDir(dir)
	if _, err := cold.ResultCell(key, func() (stats.Result, error) { return testResult(), nil }); err != nil {
		t.Fatal(err)
	}
	if s := cold.Stats(); s.Persisted != 1 || s.BytesWritten == 0 {
		t.Fatalf("cold stats %+v, want one persisted file", s)
	}

	// A fresh cache instance over the same dir models a new process.
	warm := New()
	warm.SetDir(dir)
	got, err := warm.ResultCell(key, func() (stats.Result, error) {
		t.Fatal("warm cache recomputed")
		return stats.Result{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, testResult()) {
		t.Fatalf("warm result mismatch: %+v", got)
	}
	if s := warm.Stats(); s.Hits != 1 || s.DiskLoads != 1 || s.Misses != 0 {
		t.Fatalf("warm stats %+v, want one disk hit", s)
	}
}

// TestCacheStaleness pins the invalidation rules: a sim-version bump, a
// spec-fingerprint change, or any key difference must miss; the stale
// file is overwritten, not served and not an error.
func TestCacheStaleness(t *testing.T) {
	dir := t.TempDir()
	base := testKey()
	seed := New()
	seed.SetDir(dir)
	if _, err := seed.ResultCell(base, func() (stats.Result, error) { return testResult(), nil }); err != nil {
		t.Fatal(err)
	}

	bumped := base
	bumped.SimVersion++
	fresh := stats.Result{Workload: "mix5", Requests: 1}
	c := New()
	c.SetDir(dir)
	got, err := c.ResultCell(bumped, func() (stats.Result, error) { return fresh, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, fresh) {
		t.Fatalf("stale version served cached result: %+v", got)
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("stats after version bump %+v, want a miss", s)
	}

	// Hand-rename a valid file onto another key's fingerprint: the
	// embedded key mismatch must reject it (counted Stale).
	victim := base
	victim.Workload = "mix6"
	if err := os.Rename(storePath(dir, base.Canonical()), storePath(dir, victim.Canonical())); err != nil {
		t.Fatal(err)
	}
	c2 := New()
	c2.SetDir(dir)
	got, err = c2.ResultCell(victim, func() (stats.Result, error) { return fresh, nil })
	if err != nil || !reflect.DeepEqual(got, fresh) {
		t.Fatalf("wrong-key file served: %+v, %v", got, err)
	}
	if s := c2.Stats(); s.Stale != 1 || s.Misses != 1 {
		t.Fatalf("stats after wrong-key file %+v, want 1 stale + 1 miss", s)
	}
}

// TestCacheCorruptionRegenerates truncates and bit-flips store files; the
// cache must recompute and overwrite with a good file, never error.
func TestCacheCorruptionRegenerates(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bit flip", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }},
		{"zeroed", func(b []byte) []byte { return make([]byte, len(b)) }},
		{"empty", func(b []byte) []byte { return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			key := testKey()
			seed := New()
			seed.SetDir(dir)
			if _, err := seed.ResultCell(key, func() (stats.Result, error) { return testResult(), nil }); err != nil {
				t.Fatal(err)
			}
			path := storePath(dir, key.Canonical())
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mut(b), 0o644); err != nil {
				t.Fatal(err)
			}

			c := New()
			c.SetDir(dir)
			got, err := c.ResultCell(key, func() (stats.Result, error) { return testResult(), nil })
			if err != nil {
				t.Fatalf("corrupt store errored the run: %v", err)
			}
			if !reflect.DeepEqual(got, testResult()) {
				t.Fatalf("corrupt store produced %+v", got)
			}
			if s := c.Stats(); s.Misses != 1 {
				t.Fatalf("stats %+v, want recompute", s)
			}
			// The store must have healed: a third instance hits cleanly.
			c3 := New()
			c3.SetDir(dir)
			if _, err := c3.ResultCell(key, func() (stats.Result, error) {
				t.Error("healed store still recomputes")
				return stats.Result{}, nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCacheProbePinsDiskEntries(t *testing.T) {
	dir := t.TempDir()
	key := testKey()
	seed := New()
	seed.SetDir(dir)
	if _, err := seed.ResultCell(key, func() (stats.Result, error) { return testResult(), nil }); err != nil {
		t.Fatal(err)
	}

	c := New()
	c.SetDir(dir)
	other := key
	other.Workload = "absent"
	if c.Probe(other) {
		t.Fatal("Probe hit an absent key")
	}
	if !c.Probe(key) {
		t.Fatal("Probe missed a stored key")
	}
	// Deleting the file after a successful probe must not matter: the
	// probe pinned the entry, so GetOrRun is guaranteed to hit.
	if err := os.Remove(storePath(dir, key.Canonical())); err != nil {
		t.Fatal(err)
	}
	got, err := c.ResultCell(key, func() (stats.Result, error) {
		t.Fatal("pinned probe entry recomputed")
		return stats.Result{}, nil
	})
	if err != nil || !reflect.DeepEqual(got, testResult()) {
		t.Fatalf("pinned entry: %+v, %v", got, err)
	}
	if s := c.Stats(); s.Hits != 1 || s.DiskLoads != 1 {
		t.Fatalf("stats %+v, want probe-pinned hit", s)
	}
}

func TestCacheReadOnlyStoreStillWorks(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("root ignores directory permissions")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	c := New()
	c.SetDir(dir)
	got, err := c.ResultCell(testKey(), func() (stats.Result, error) { return testResult(), nil })
	if err != nil || !reflect.DeepEqual(got, testResult()) {
		t.Fatalf("read-only store failed the run: %+v, %v", got, err)
	}
}

// TestStorePathNames pins the store filename: the key fingerprint as 16
// lowercase hex digits plus ".mpr1", for testKey() byte-for-byte.
func TestStorePathNames(t *testing.T) {
	key := testKey()
	path := storePath("store", key.Canonical())
	want := filepath.Join("store", fmt.Sprintf("%016x.mpr1", key.Fingerprint()))
	if path != want {
		t.Fatalf("storePath = %q, want %q", path, want)
	}
	if golden := filepath.Join("store", "e2f80b1af1814018.mpr1"); path != golden {
		t.Fatalf("storePath = %q, want golden %q", path, golden)
	}
}

// TestCacheRejectsMismatchedFrames keeps the store read path strict: a
// frame at the requested key's path with a valid checksum is still a
// stale miss — never a hit — when its embedded key line is not the
// requested key's canonical line, whether it differs by non-canonical
// escaping of the same key or by one field.
func TestCacheRejectsMismatchedFrames(t *testing.T) {
	key := testKey()
	canon := key.Canonical()
	other := key
	other.Seed++
	for _, tc := range []struct {
		name, line string
	}{
		{"lowercase escape", strings.Replace(canon, "%7B", "%7b", 1)},
		{"one field differs", other.Canonical()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.line == canon {
				t.Fatal("test frame key equals the requested key")
			}
			frame := encodeFrame(tc.line, EncodeResult(testResult()))
			if _, _, err := decodeFrame(frame); err != nil {
				t.Fatalf("test frame has bad framing: %v", err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(storePath(dir, canon), frame, 0o644); err != nil {
				t.Fatal(err)
			}

			probe := New()
			probe.SetDir(dir)
			if probe.Probe(key) {
				t.Fatal("Probe accepted a mismatched frame")
			}
			if _, ok := probe.Lookup(key); ok {
				t.Fatal("Lookup accepted a mismatched frame")
			}
			if s := probe.Stats(); s.Stale != 2 || s.DiskLoads != 0 {
				t.Fatalf("probe stats %+v, want 2 stale and no disk loads", s)
			}

			c := New()
			c.SetDir(dir)
			fresh := stats.Result{Workload: "mix5", Requests: 1}
			got, err := c.ResultCell(key, func() (stats.Result, error) { return fresh, nil })
			if err != nil || !reflect.DeepEqual(got, fresh) {
				t.Fatalf("mismatched frame served: %+v, %v", got, err)
			}
			if s := c.Stats(); s.Stale != 1 || s.Misses != 1 || s.Hits != 0 {
				t.Fatalf("stats %+v, want 1 stale + 1 miss, no hit", s)
			}
		})
	}
}

// TestCacheServesEncodeFileStore writes a store through the public
// EncodeFile and Fingerprint alone and checks a fresh handle serves every
// entry from disk with zero misses.
func TestCacheServesEncodeFileStore(t *testing.T) {
	dir := t.TempDir()
	keys := []CellKey{testKey(), {Kind: "oracle/v1", Workload: "a b%20c/d\xffe", Seed: -1, Window: -1}}
	for _, key := range keys {
		name := filepath.Join(dir, fmt.Sprintf("%016x.mpr1", key.Fingerprint()))
		if err := os.WriteFile(name, EncodeFile(key, EncodeResult(testResult())), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c := New()
	c.SetDir(dir)
	for _, key := range keys {
		got, err := c.ResultCell(key, func() (stats.Result, error) {
			t.Errorf("key %q recomputed", key.Canonical())
			return stats.Result{}, nil
		})
		if err != nil || !reflect.DeepEqual(got, testResult()) {
			t.Fatalf("EncodeFile store entry: %+v, %v", got, err)
		}
	}
	if s := c.Stats(); s.Misses != 0 || s.Hits != len(keys) || s.DiskLoads != len(keys) || s.Stale != 0 {
		t.Fatalf("stats %+v, want %d disk hits and zero misses", s, len(keys))
	}
}

// TestGetOrRunChecksHeal pins GetOrRun's payload checks: a served payload
// a check rejects is recomputed once and heals the store, while a payload
// the call computed itself is returned as the check's error, never rerun.
func TestGetOrRunChecksHeal(t *testing.T) {
	dir := t.TempDir()
	key := testKey()
	good := EncodeResult(testResult())
	check := func(p []byte) error { _, err := DecodeResult(p); return err }

	c := New()
	c.SetDir(dir)
	c.Put(key, []byte("poisoned"))
	runs := 0
	got, err := c.GetOrRun(key, func() ([]byte, error) { runs++; return good, nil }, check)
	if err != nil || string(got) != string(good) || runs != 1 {
		t.Fatalf("poisoned entry: %x, %v after %d runs", got, err, runs)
	}
	if s := c.Stats(); s.Stale != 1 {
		t.Fatalf("stats %+v, want the poisoned entry counted stale", s)
	}
	healed := New()
	healed.SetDir(dir)
	if got, ok := healed.Lookup(key); !ok || string(got) != string(good) {
		t.Fatalf("store not healed: %x, %v", got, ok)
	}

	runs = 0
	other := key
	other.Seed++
	if _, err := New().GetOrRun(other, func() ([]byte, error) { runs++; return []byte("bad"), nil }, check); err == nil || runs != 1 {
		t.Fatalf("fresh bad payload: err %v after %d runs, want an error after one", err, runs)
	}
}

// TestCacheStoreReadFailsClosed holds the store reader to os.ReadFile's
// outcomes. For each entry at a key's store path, readFile must return
// os.ReadFile's bytes or fail where it fails, and a fresh handle's Probe
// must hit or miss as stated, counting the bytes os.ReadFile reads and a
// Stale for every rejected file.
func TestCacheStoreReadFailsClosed(t *testing.T) {
	key := testKey()
	canon := key.Canonical()
	good := encodeFrame(canon, EncodeResult(testResult()))
	other := key
	other.Seed++
	// sized is a frame for key exactly n bytes long.
	sized := func(n int) []byte {
		return encodeFrame(canon, make([]byte, n-(len(fileMagic)+2+len(canon)+4+8)))
	}
	file := func(b []byte) func(string) error {
		return func(path string) error { return os.WriteFile(path, b, 0o644) }
	}
	for _, tc := range []struct {
		name       string
		write      func(path string) error
		hit, stale bool
	}{
		{"absent", func(string) error { return nil }, false, false},
		{"empty", file(nil), false, true},
		{"exactly the first buffer", file(sized(firstRead)), true, false},
		{"longer than the first buffer", file(sized(3*firstRead + 17)), true, false},
		{"directory", func(path string) error { return os.Mkdir(path, 0o755) }, false, false},
		{"truncated frame", file(good[:len(good)-3]), false, true},
		{"embedded key differs", file(encodeFrame(other.Canonical(), EncodeResult(testResult()))), false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := storePath(dir, canon)
			if err := tc.write(path); err != nil {
				t.Fatal(err)
			}
			want, wantErr := os.ReadFile(path)
			got, err := readFile(path)
			if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
				t.Fatalf("readFile: %d bytes, err %v; os.ReadFile: %d bytes, err %v", len(got), err, len(want), wantErr)
			}
			c := New()
			c.SetDir(dir)
			if hit := c.Probe(key); hit != tc.hit {
				t.Fatalf("Probe = %v, want %v", hit, tc.hit)
			}
			var wantStats Stats
			if wantErr == nil {
				wantStats.BytesRead = int64(len(want))
			}
			if tc.hit {
				wantStats.DiskLoads = 1
			}
			if tc.stale {
				wantStats.Stale = 1
			}
			if s := c.Stats(); s != wantStats {
				t.Fatalf("stats %#v, want %#v", s, wantStats)
			}
		})
	}
}

// TestCacheHealSingleFlight: concurrent GetOrRun calls that find one
// rejected payload share a single recompute, like concurrent misses, so a
// batch's cells sharing a key acquire their trace once. Every call counts
// its Hit, the rejected payload one Stale, and nothing a Miss.
func TestCacheHealSingleFlight(t *testing.T) {
	const callers = 8
	key := testKey()
	good := EncodeResult(testResult())
	check := func(p []byte) error { _, err := DecodeResult(p); return err }
	c := New()
	c.Put(key, []byte("poisoned"))
	var runs atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := c.GetOrRun(key, func() ([]byte, error) {
				runs.Add(1)
				<-release
				return good, nil
			}, check)
			if err != nil || !bytes.Equal(got, good) {
				t.Errorf("healed payload %x, err %v", got, err)
			}
		}()
	}
	// Hold the recompute until every caller has looked the key up. The
	// deadline only bounds a broken cache's wait; the counts below hold
	// however the callers interleave.
	for deadline := time.Now().Add(time.Second); c.Stats().Hits < callers && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("%d recomputes, want 1", n)
	}
	if s := c.Stats(); s.Hits != callers || s.Stale != 1 || s.Misses != 0 {
		t.Fatalf("stats %+v, want %d hits, 1 stale, no misses", s, callers)
	}
	if got, ok := c.Lookup(key); !ok || !bytes.Equal(got, good) {
		t.Fatalf("healed entry not resident: %x, %v", got, ok)
	}
}
