package exp

import (
	"bytes"
	"testing"
)

// oracleSample is a kindOracle payload's worth of distinct values.
func oracleSample() OracleResult {
	return OracleResult{
		Workload: "mix5", Intervals: 27,
		CountAcc: [tiers]float64{0.9, 0.5, 0.25},
		MEAHits:  [tiers]float64{8.5, 3, 1.125},
		FCHits:   [tiers]float64{9, 4.5, 2},
	}
}

// forgedOracle returns the sample payload with its workload length
// written as the overlong two-byte varint 0x84 0x00 (4, as "mix5" needs).
func forgedOracle() []byte {
	good := encodeOracle(oracleSample())
	return append([]byte{0x84, 0x00}, good[1:]...)
}

// negativeIntervals returns the sample payload with all eight interval
// bytes set, which a signed conversion reads as -1.
func negativeIntervals() []byte {
	b := encodeOracle(oracleSample())
	at := 1 + len("mix5") + 1
	copy(b[at:at+8], bytes.Repeat([]byte{0xff}, 8))
	return b
}

// TestOracleDecodeRejects pins the strict oracle codec: each malformed
// payload errors instead of decoding to a value that would re-encode
// differently or carry a negative interval count.
func TestOracleDecodeRejects(t *testing.T) {
	good := encodeOracle(oracleSample())
	homog := append([]byte(nil), good...)
	homog[1+len("mix5")] = 2
	for name, b := range map[string][]byte{
		"overlong workload length": forgedOracle(),
		"negative intervals":       negativeIntervals(),
		"truncated":                good[:len(good)-1],
		"bad homogeneity byte":     homog,
	} {
		if r, err := decodeOracle(b); err == nil {
			t.Errorf("%s: accepted as %+v", name, r)
		}
	}
	if r, err := decodeOracle(good); err != nil || r != oracleSample() {
		t.Fatalf("sample payload: %+v, %v", r, err)
	}
}

// FuzzOracleDecode holds the oracle payload decoder to the result codec's
// rule: anything it accepts re-encodes byte-identically and counts a
// non-negative number of intervals.
func FuzzOracleDecode(f *testing.F) {
	good := encodeOracle(oracleSample())
	homog := append([]byte(nil), good...)
	homog[1+len("mix5")] = 2
	f.Add(good)
	f.Add(forgedOracle())
	f.Add(negativeIntervals())
	f.Add(good[:len(good)-1])
	f.Add(homog)

	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeOracle(b)
		if err != nil {
			return
		}
		if r.Intervals < 0 {
			t.Fatalf("accepted a negative interval count %d", r.Intervals)
		}
		if again := encodeOracle(r); !bytes.Equal(again, b) {
			t.Fatalf("accepted payload does not re-encode identically:\nin  %x\nout %x", b, again)
		}
	})
}
