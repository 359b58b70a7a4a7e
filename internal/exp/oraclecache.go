package exp

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/resultcache"
	"repro/internal/sim"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// kindOracle names (and versions) the OracleResult payload codec below.
// The oracle study has no timing model, so its cells carry no spec
// fingerprints or layout — the study parameters live in the Mech field.
const kindOracle = "oracle/v1"

// oracleKey is the causal identity of one workload's §3 oracle pass: the
// study constants, the exact generated trace, and the engine version
// (trace generation is engine-side, so a semantics bump conservatively
// invalidates oracle cells too).
func (c Config) oracleKey(w workload.Workload) resultcache.CellKey {
	return resultcache.CellKey{
		SimVersion: sim.Version,
		Kind:       kindOracle,
		Mech: fmt.Sprintf("oracle:{IntervalReqs:%d Counters:%d CounterBits:%d Tiers:%d}",
			OracleIntervalReqs, OracleMEACounters, OracleCounterBits, tiers),
		Workload: w.Name,
		Requests: c.Requests,
		Seed:     c.Seed,
	}
}

// oracleCells enumerates the study's cells, one per workload in order.
func (c Config) oracleCells() []planCell {
	cells := make([]planCell, len(c.Workloads))
	for i, w := range c.Workloads {
		cells[i] = planCell{
			name: "oracle",
			key:  c.oracleKey(w),
			tkey: c.traceKey(w),
			compute: func(traces *tracecache.Cache, uses int) ([]byte, error) {
				r, err := c.oracleOne(w, traces, uses)
				if err != nil {
					return nil, err
				}
				return encodeOracle(r), nil
			},
		}
	}
	return cells
}

// encodeOracle serializes an OracleResult as a kindOracle payload: the
// workload name, a homogeneity byte, the interval count, then the three
// metric vectors as IEEE float64 bits, all little-endian.
func encodeOracle(r OracleResult) []byte {
	out := make([]byte, 0, 16+len(r.Workload)+8*(1+3*tiers))
	out = binary.AppendUvarint(out, uint64(len(r.Workload)))
	out = append(out, r.Workload...)
	if r.Homogeneous {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = binary.LittleEndian.AppendUint64(out, uint64(r.Intervals))
	for _, vec := range [][tiers]float64{r.CountAcc, r.MEAHits, r.FCHits} {
		for _, v := range vec {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

// decodeOracle parses a kindOracle payload. Like the result codec it is
// strict — exact lengths, no trailing bytes, no overlong length varint, no
// interval count above MaxInt — so every accepted payload re-encodes
// byte-identically; malformed payloads error, which the caller treats as
// a recompute.
func decodeOracle(b []byte) (OracleResult, error) {
	var r OracleResult
	n, w := binary.Uvarint(b)
	// A zero final byte after the first marks an overlong varint, which
	// would re-encode shorter.
	if w <= 0 || (w > 1 && b[w-1] == 0) || n > uint64(len(b)-w) {
		return r, fmt.Errorf("exp: oracle payload: bad workload length")
	}
	r.Workload, b = string(b[w:w+int(n)]), b[w+int(n):]
	if want := 1 + 8*(1+3*tiers); len(b) != want {
		return r, fmt.Errorf("exp: oracle payload has %d metric bytes, want %d", len(b), want)
	}
	switch b[0] {
	case 0:
	case 1:
		r.Homogeneous = true
	default:
		return r, fmt.Errorf("exp: oracle payload: bad homogeneity byte %d", b[0])
	}
	b = b[1:]
	intervals := binary.LittleEndian.Uint64(b)
	if intervals > math.MaxInt {
		return r, fmt.Errorf("exp: oracle payload: interval count %d overflows", intervals)
	}
	r.Intervals, b = int(intervals), b[8:]
	for _, vec := range []*[tiers]float64{&r.CountAcc, &r.MEAHits, &r.FCHits} {
		for i := range vec {
			vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
			b = b[8:]
		}
	}
	return r, nil
}
