package resultcache

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"
)

// Record kinds. The kind names the payload codec and carries its version:
// a codec change (new field, different layout) bumps the kind string,
// which changes every affected key, so old store entries become stale
// misses instead of mis-decodes.
const (
	// KindResult is the stats.Result cell payload (EncodeResult).
	KindResult = "result/v1"
)

// CellKey is the complete causal identity of one simulation cell: every
// input that can change the cell's result appears here, and nothing else.
// Two runs with equal keys are guaranteed to produce field-identical
// results (the engine is deterministic), which is what makes results
// content-addressable.
//
// Execution-shape knobs — worker counts, batch sizes, mapped
// vs copied replay — are deliberately absent: the differential suites
// prove them bit-identical, so they must not fragment the key space.
type CellKey struct {
	// SimVersion is the engine-semantics stamp (sim.Version). Callers set
	// it explicitly rather than this package importing the engine, so the
	// codec layer stays dependency-light and fuzzable in isolation.
	SimVersion int
	// Kind names the payload codec (KindResult, or a caller-defined kind
	// such as the oracle study's).
	Kind string
	// Mech is the canonical mechanism identity: a short mechanism tag
	// plus the printed config struct (every design-space parameter).
	Mech string
	// FastFP/SlowFP are the dram.Spec fingerprints of the two memory
	// levels (zero where a level — or the whole timing model — is absent,
	// as in the oracle study).
	FastFP uint64
	SlowFP uint64
	// Layout is the printed addr.Layout geometry the cell ran on.
	Layout string
	// Workload, Requests and Seed pin a generated trace exactly (the
	// generators are deterministic). TraceFP instead pins a replayed
	// recorded trace by content fingerprint when no (workload, requests,
	// seed) recipe is known to the caller; it is zero for generated runs.
	Workload string
	Requests int
	Seed     int64
	TraceFP  uint64
	// Window is the engine's outstanding-request window override
	// (0 = engine default, negative = unlimited — stored verbatim).
	Window int
}

// MechID renders a mechanism tag plus its printed config struct as a
// CellKey's Mech field. Config structs are flat value types whose %+v form
// lists every design-space parameter; static mechanisms pass a nil config
// and are identified by the tag (their layout tells them apart).
func MechID(tag string, cfg any) string {
	if cfg == nil {
		return tag
	}
	return tag + ":" + fmt.Sprintf("%+v", cfg)
}

// keyFormat tags the canonical key encoding itself, so the field set can
// evolve without old store files parsing as silently-wrong keys.
const keyFormat = "k1"

// Canonical renders the key as one line of space-separated name=value
// fields in fixed order, with free-form values path-escaped so they can
// never contain a space or newline. Equal keys have equal canonical forms
// and vice versa; the canonical form is what files store and fingerprints
// hash.
//
// The bytes must equal the fmt + url.PathEscape rendering the tests keep
// as referenceCanonical: they name and authenticate every store file
// already written. Canonical is built from strconv appends and an escape
// table instead because it runs on every cache probe and lookup.
func (k CellKey) Canonical() string {
	// The fixed part (format tag, field names, three 16-digit fingerprints,
	// four decimal integers) is at most 194 bytes, and escaping at most
	// triples a value, so b never regrows.
	b := make([]byte, 0, 194+3*(len(k.Kind)+len(k.Mech)+len(k.Layout)+len(k.Workload)))
	b = append(b, keyFormat+" sim="...)
	b = strconv.AppendInt(b, int64(k.SimVersion), 10)
	b = appendEscaped(append(b, " kind="...), k.Kind)
	b = appendEscaped(append(b, " mech="...), k.Mech)
	b = appendHex16(append(b, " fast="...), k.FastFP)
	b = appendHex16(append(b, " slow="...), k.SlowFP)
	b = appendEscaped(append(b, " layout="...), k.Layout)
	b = appendEscaped(append(b, " wl="...), k.Workload)
	b = strconv.AppendInt(append(b, " req="...), int64(k.Requests), 10)
	b = strconv.AppendInt(append(b, " seed="...), k.Seed, 10)
	b = appendHex16(append(b, " trace="...), k.TraceFP)
	b = strconv.AppendInt(append(b, " win="...), int64(k.Window), 10)
	return string(b)
}

// pathSafe marks the bytes url.PathEscape leaves as they are; it is
// derived from url.PathEscape itself, so appendEscaped cannot drift from
// the escaping ParseKey reverses.
var pathSafe = func() (safe [256]bool) {
	for c := range safe {
		s := string([]byte{byte(c)})
		safe[c] = url.PathEscape(s) == s
	}
	return safe
}()

// appendEscaped appends url.PathEscape(s) to b, copying runs of safe
// bytes whole.
func appendEscaped(b []byte, s string) []byte {
	const upperHex = "0123456789ABCDEF"
	start := 0
	for i := 0; i < len(s); i++ {
		if c := s[i]; !pathSafe[c] {
			b = append(append(b, s[start:i]...), '%', upperHex[c>>4], upperHex[c&0xf])
			start = i + 1
		}
	}
	return append(b, s[start:]...)
}

// appendHex16 appends v as 16 zero-padded lowercase hex digits (%016x).
func appendHex16(b []byte, v uint64) []byte {
	const lowerHex = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, lowerHex[v>>uint(shift)&0xf])
	}
	return b
}

// Fingerprint returns the FNV-1a hash of the canonical form. It names the
// store file; the file's embedded canonical key — not the fingerprint —
// is what authenticates an entry, so a fingerprint collision degrades to
// two keys alternately overwriting one file, never to a wrong hit.
func (k CellKey) Fingerprint() uint64 {
	return fingerprint(k.Canonical())
}

// fingerprint is 64-bit FNV-1a (hash/fnv's New64a) over a rendered
// canonical line.
func fingerprint(canon string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(canon); i++ {
		h ^= uint64(canon[i])
		h *= prime64
	}
	return h
}

// keyFields are the canonical field names in canonical order.
var keyFields = []string{"sim", "kind", "mech", "fast", "slow", "layout", "wl", "req", "seed", "trace", "win"}

// ParseKey decodes a canonical key line back into a CellKey. It is strict:
// the format tag, the field set, the field order and every value's
// spelling must match exactly, so ParseKey(k.Canonical()) == k for every
// key and anything else errors.
func ParseKey(s string) (CellKey, error) {
	parts := strings.Split(s, " ")
	if len(parts) != len(keyFields)+1 {
		return CellKey{}, fmt.Errorf("resultcache: key has %d fields, want %d", len(parts)-1, len(keyFields))
	}
	if parts[0] != keyFormat {
		return CellKey{}, fmt.Errorf("resultcache: key format %q, want %q", parts[0], keyFormat)
	}
	var k CellKey
	for i, field := range keyFields {
		part := parts[i+1]
		val, ok := strings.CutPrefix(part, field+"=")
		if !ok {
			return CellKey{}, fmt.Errorf("resultcache: key field %d is %q, want %s=", i, part, field)
		}
		var err error
		switch field {
		case "sim":
			k.SimVersion, err = parseInt(val)
		case "kind":
			k.Kind, err = url.PathUnescape(val)
		case "mech":
			k.Mech, err = url.PathUnescape(val)
		case "fast":
			k.FastFP, err = parseHex(val)
		case "slow":
			k.SlowFP, err = parseHex(val)
		case "layout":
			k.Layout, err = url.PathUnescape(val)
		case "wl":
			k.Workload, err = url.PathUnescape(val)
		case "req":
			k.Requests, err = parseInt(val)
		case "seed":
			k.Seed, err = strconv.ParseInt(val, 10, 64)
		case "trace":
			k.TraceFP, err = parseHex(val)
		case "win":
			k.Window, err = parseInt(val)
		}
		if err != nil {
			return CellKey{}, fmt.Errorf("resultcache: key field %s=%q: %w", field, val, err)
		}
	}
	// The field parsers accept spellings Canonical never writes — leading
	// zeros, a plus sign, uppercase hex, lowercase or needless escapes —
	// so the line must also be exactly k's own rendering.
	if k.Canonical() != s {
		return CellKey{}, fmt.Errorf("resultcache: key is not in canonical form")
	}
	return k, nil
}

func parseInt(v string) (int, error) {
	n, err := strconv.ParseInt(v, 10, 64)
	return int(n), err
}

func parseHex(v string) (uint64, error) {
	if len(v) != 16 {
		return 0, fmt.Errorf("want 16 hex digits, have %d", len(v))
	}
	return strconv.ParseUint(v, 16, 64)
}
