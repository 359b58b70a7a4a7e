package resultcache

import (
	"fmt"
	"hash/fnv"
	"math"
	"net/url"
	"strings"
	"testing"
)

// referenceCanonical is the original fmt + url.PathEscape rendering of
// the k1 key line. Canonical must reproduce it byte-for-byte: it names
// every store file and authenticates every frame already written.
func referenceCanonical(k CellKey) string {
	var b strings.Builder
	b.WriteString(keyFormat)
	fmt.Fprintf(&b, " sim=%d", k.SimVersion)
	b.WriteString(" kind=" + url.PathEscape(k.Kind))
	b.WriteString(" mech=" + url.PathEscape(k.Mech))
	fmt.Fprintf(&b, " fast=%016x slow=%016x", k.FastFP, k.SlowFP)
	b.WriteString(" layout=" + url.PathEscape(k.Layout))
	b.WriteString(" wl=" + url.PathEscape(k.Workload))
	fmt.Fprintf(&b, " req=%d seed=%d trace=%016x win=%d",
		k.Requests, k.Seed, k.TraceFP, k.Window)
	return b.String()
}

// referenceFingerprint is hash/fnv's FNV-1a over the reference line.
func referenceFingerprint(k CellKey) uint64 {
	h := fnv.New64a()
	h.Write([]byte(referenceCanonical(k)))
	return h.Sum64()
}

// checkReference fails t unless k's canonical line and fingerprint equal
// the reference rendering's.
func checkReference(t *testing.T, k CellKey) {
	t.Helper()
	if got, want := k.Canonical(), referenceCanonical(k); got != want {
		t.Fatalf("Canonical differs from the reference rendering:\ngot  %q\nwant %q", got, want)
	}
	if got, want := k.Fingerprint(), referenceFingerprint(k); got != want {
		t.Fatalf("Fingerprint %016x, reference %016x", got, want)
	}
}

func TestCanonicalMatchesReference(t *testing.T) {
	var all []byte
	for c := 0; c < 256; c++ {
		all = append(all, byte(c))
	}
	keys := []CellKey{
		{},
		testKey(),
		{SimVersion: -1, Seed: -42, Window: -1, Requests: -3},
		{SimVersion: math.MinInt, Seed: math.MinInt64, Window: math.MinInt, Requests: math.MinInt},
		{SimVersion: math.MaxInt, Seed: math.MaxInt64, Window: math.MaxInt, Requests: math.MaxInt},
		{FastFP: math.MaxUint64, SlowFP: math.MaxUint64, TraceFP: math.MaxUint64},
		{FastFP: 1, SlowFP: 0x8000000000000000, TraceFP: 0x0f},
		{Kind: string(all), Mech: string(all), Layout: string(all), Workload: string(all)},
	}
	// Every byte value alone in each free-form field, so an escape-table
	// error names the byte.
	for c := 0; c < 256; c++ {
		s := string([]byte{byte(c)})
		keys = append(keys,
			CellKey{Kind: s}, CellKey{Mech: s}, CellKey{Layout: s}, CellKey{Workload: s})
	}
	for _, k := range keys {
		checkReference(t, k)
	}
}

// TestCanonicalGolden pins testKey()'s canonical line as written by every
// store so far.
func TestCanonicalGolden(t *testing.T) {
	const golden = "k1 sim=1 kind=result%2Fv1 " +
		"mech=mempod:%7BInterval:50000000000%20Counters:64%20CounterBits:2%20CacheBytes:0%20CacheWays:0%20UseFullCounters:false%7D " +
		"fast=0123456789abcdef slow=fedcba9876543210 " +
		"layout=%7BFastBytes:1073741824%20SlowBytes:8589934592%20FastChannels:8%20SlowChannels:4%20NumPods:4%20FastRowBytes:8192%20SlowRowBytes:8192%7D " +
		"wl=mix5 req=150000 seed=42 trace=0000000000000000 win=0"
	if got := testKey().Canonical(); got != golden {
		t.Fatalf("canonical line changed:\ngot  %q\nwant %q", got, golden)
	}
}

// canonSink keeps the benchmarked renderings live.
var canonSink string

func BenchmarkCellKeyCanonical(b *testing.B) {
	k := testKey()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		canonSink = k.Canonical()
	}
}

// BenchmarkReferenceCanonical is the fmt + url.PathEscape rendering
// Canonical replaced, for comparison.
func BenchmarkReferenceCanonical(b *testing.B) {
	k := testKey()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		canonSink = referenceCanonical(k)
	}
}
