package resultcache

import (
	"fmt"
	"hash/fnv"
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

// keyFormat tags the canonical key encoding itself, so the field set can
// evolve without old store files parsing as silently-wrong keys.
const keyFormat = "k1"

// Canonical renders the key as one line of space-separated name=value
// fields in fixed order, with free-form values path-escaped so they can
// never contain a space or newline. Equal keys have equal canonical forms
// and vice versa; the canonical form is what files store and fingerprints
// hash.
func (k CellKey) Canonical() string {
	var b strings.Builder
	b.Grow(128 + len(k.Mech) + len(k.Layout) + len(k.Workload))
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

// Fingerprint returns the FNV-1a hash of the canonical form. It names the
// store file; the file's embedded canonical key — not the fingerprint —
// is what authenticates an entry, so a fingerprint collision degrades to
// two keys alternately overwriting one file, never to a wrong hit.
func (k CellKey) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write([]byte(k.Canonical()))
	return h.Sum64()
}

// keyFields are the canonical field names in canonical order.
var keyFields = []string{"sim", "kind", "mech", "fast", "slow", "layout", "wl", "req", "seed", "trace", "win"}

// ParseKey decodes a canonical key line back into a CellKey. It is strict:
// the format tag, the field set, and the field order must match exactly,
// so ParseKey(k.Canonical()) == k for every key and anything else errors.
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
			k.Kind, err = parseEscaped(val)
		case "mech":
			k.Mech, err = parseEscaped(val)
		case "fast":
			k.FastFP, err = parseHex(val)
		case "slow":
			k.SlowFP, err = parseHex(val)
		case "layout":
			k.Layout, err = parseEscaped(val)
		case "wl":
			k.Workload, err = parseEscaped(val)
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

// parseEscaped reverses url.PathEscape and rejects values that would not
// re-escape to the input, keeping Canonical∘ParseKey the identity.
func parseEscaped(v string) (string, error) {
	s, err := url.PathUnescape(v)
	if err != nil {
		return "", err
	}
	if url.PathEscape(s) != v {
		return "", fmt.Errorf("non-canonical escaping %q", v)
	}
	return s, nil
}
