package resultcache

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/clock"
	"repro/internal/mech"
	"repro/internal/stats"
)

// The KindResult payload: every stats.Result field in declaration order,
// little-endian. Strings are uvarint-length-prefixed; durations are their
// int64 femtosecond counts; rates are IEEE float64 bits. The layout is
// pinned by TestResultCodecCoversEveryField — adding a field to
// stats.Result or mech.MigStats without extending the codec (and bumping
// KindResult) fails that test, not a user's figures.

// EncodeResult serializes a cell result as a KindResult payload.
func EncodeResult(r stats.Result) []byte {
	out := make([]byte, 0, 64+len(r.Workload)+len(r.Mechanism))
	out = appendString(out, r.Workload)
	out = appendString(out, r.Mechanism)
	out = binary.LittleEndian.AppendUint64(out, r.Requests)
	out = binary.LittleEndian.AppendUint64(out, uint64(r.TotalStall))
	out = binary.LittleEndian.AppendUint64(out, uint64(r.Span))
	out = binary.LittleEndian.AppendUint64(out, r.FastAccesses)
	out = binary.LittleEndian.AppendUint64(out, r.SlowAccesses)
	out = binary.LittleEndian.AppendUint64(out, r.FastActivations)
	out = binary.LittleEndian.AppendUint64(out, r.SlowActivations)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(r.FastRowHitRate))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(r.SlowRowHitRate))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(r.RowHitRate))
	// Derived-AMMAT cross-check word plus one reserved zero word (room for
	// a flags field without a reframe; decode insists it is zero).
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(r.AMMAT()))
	out = binary.LittleEndian.AppendUint64(out, 0)
	for _, v := range migColumns(&r.Mig) {
		out = binary.LittleEndian.AppendUint64(out, *v)
	}
	return out
}

// DecodeResult parses a KindResult payload. Malformed payloads error
// (wrapping ErrBadFile); the cache layer treats that as a stale miss.
func DecodeResult(b []byte) (stats.Result, error) {
	var r stats.Result
	var err error
	if r.Workload, b, err = cutString(b); err != nil {
		return r, fmt.Errorf("%w: workload: %w", ErrBadFile, err)
	}
	if r.Mechanism, b, err = cutString(b); err != nil {
		return r, fmt.Errorf("%w: mechanism: %w", ErrBadFile, err)
	}
	mig := migColumns(&r.Mig)
	words := make([]uint64, 12+len(mig))
	if want := 8 * len(words); len(b) != want {
		return r, fmt.Errorf("%w: result payload has %d metric bytes, want %d", ErrBadFile, len(b), want)
	}
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	r.Requests = words[0]
	r.TotalStall = clock.Duration(words[1])
	r.Span = clock.Time(words[2])
	r.FastAccesses = words[3]
	r.SlowAccesses = words[4]
	r.FastActivations = words[5]
	r.SlowActivations = words[6]
	r.FastRowHitRate = math.Float64frombits(words[7])
	r.SlowRowHitRate = math.Float64frombits(words[8])
	r.RowHitRate = math.Float64frombits(words[9])
	if got, want := words[10], math.Float64bits(r.AMMAT()); got != want {
		// Cross-check: the stored headline metric must be derivable from
		// the stored fields, so a torn write that survives the checksum
		// math (it cannot, but defense in depth is one compare) regenerates.
		// Bits, not values: a stored -0 must not pass for the encoder's +0.
		return r, fmt.Errorf("%w: stored AMMAT %g != derived %g", ErrBadFile,
			math.Float64frombits(got), math.Float64frombits(want))
	}
	if words[11] != 0 {
		return r, fmt.Errorf("%w: reserved word %016x non-zero", ErrBadFile, words[11])
	}
	for i, v := range mig {
		*v = words[12+i]
	}
	return r, nil
}

// migColumns lists every MigStats counter in declaration order, shared by
// the encoder and decoder so the two can never disagree on field order.
func migColumns(m *mech.MigStats) []*uint64 {
	return []*uint64{
		&m.Intervals, &m.PageMigrations, &m.LineMigrations, &m.BytesMoved,
		&m.CacheHits, &m.CacheMisses, &m.LockStalls, &m.DroppedMigrations,
		&m.GlobalMoveLines,
	}
}

func appendString(out []byte, s string) []byte {
	out = binary.AppendUvarint(out, uint64(len(s)))
	return append(out, s...)
}

func cutString(b []byte) (string, []byte, error) {
	n, w := binary.Uvarint(b)
	// A zero final byte after the first marks an overlong varint, which
	// would re-encode shorter.
	if w <= 0 || (w > 1 && b[w-1] == 0) || n > uint64(len(b)-w) {
		return "", nil, fmt.Errorf("bad string length")
	}
	return string(b[w : w+int(n)]), b[w+int(n):], nil
}
