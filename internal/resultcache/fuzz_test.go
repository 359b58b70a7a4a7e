package resultcache

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/stats"
)

// FuzzCellKeyDecode throws arbitrary bytes at the MPR1 frame and key
// decoders and checks the invariants the cache relies on:
//
//   - DecodeFile never panics and never returns both a nil error and a
//     key that fails to re-encode byte-identically (re-framing the parsed
//     key with the parsed payload must reproduce the input).
//   - ParseKey never panics, and any accepted key round-trips exactly
//     through Canonical.
//   - Every accepted key's Canonical line and Fingerprint equal the
//     reference fmt + url.PathEscape rendering's.
func FuzzCellKeyDecode(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(fileMagic))
	f.Add([]byte("MPR0junk"))
	f.Add([]byte(testKey().Canonical()))
	f.Add(EncodeFile(testKey(), nil))
	f.Add(EncodeFile(testKey(), EncodeResult(testResult())))
	f.Add(EncodeFile(CellKey{Kind: "oracle/v1", Workload: "a b%20c/d\xffe", Seed: -1}, []byte{1, 2, 3}))
	long := EncodeFile(testKey(), make([]byte, 300))
	f.Add(long[:len(long)-5])

	f.Fuzz(func(t *testing.T, b []byte) {
		if key, payload, err := DecodeFile(b); err == nil {
			checkReference(t, key)
			if reframed := EncodeFile(key, payload); !bytes.Equal(reframed, b) {
				t.Fatalf("accepted file does not re-encode identically:\nin  %x\nout %x", b, reframed)
			}
		}
		if key, err := ParseKey(string(b)); err == nil {
			checkReference(t, key)
			if canon := key.Canonical(); canon != string(b) {
				t.Fatalf("accepted key does not round-trip:\nin  %q\nout %q", b, canon)
			}
		}
	})
}

// FuzzResultDecode throws arbitrary bytes at the KindResult payload
// decoder: DecodeResult never panics, every rejection wraps ErrBadFile,
// and every payload it accepts re-encodes byte-identically through
// EncodeResult, so no two payloads decode to the same result.
func FuzzResultDecode(f *testing.F) {
	good := EncodeResult(testResult())
	f.Add([]byte(nil))
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(EncodeResult(stats.Result{}))
	f.Add(EncodeResult(stats.Result{Workload: "a b%20c/d\xffe", Mechanism: strings.Repeat("m", 200)}))

	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeResult(b)
		if err != nil {
			if !errors.Is(err, ErrBadFile) {
				t.Fatalf("rejection does not wrap ErrBadFile: %v", err)
			}
			return
		}
		if again := EncodeResult(r); !bytes.Equal(again, b) {
			t.Fatalf("accepted payload does not re-encode identically:\nin  %x\nout %x", b, again)
		}
	})
}
