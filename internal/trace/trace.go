// Package trace defines the memory-request records consumed by the
// simulator and streams for producing them.
//
// A trace is the sequence of last-level-cache misses of an 8-core
// multi-programmed workload, in non-decreasing timestamp order. The paper
// captures such traces from SPEC CPU2006 with Sniper; this repository
// generates equivalent synthetic traces (package workload) and can persist
// them in a compact binary format (package trace, file.go).
package trace

import "repro/internal/clock"

// Request is one main-memory request: a 64-byte line access issued at a
// point in simulated time by one of the cores.
type Request struct {
	Addr  uint64     // byte address in the flat physical address space
	Time  clock.Time // issue time (LLC-miss time) in femtoseconds
	Write bool       // true for writeback, false for demand read
	Core  uint8      // issuing core, [0, 8) in the paper's setup
}

// Stream produces requests one at a time. Next reports false when the
// stream is exhausted. Implementations are single-use unless they document
// otherwise.
type Stream interface {
	// Next fills *r with the next request and reports whether one existed.
	Next(r *Request) bool
}

// SliceStream adapts an in-memory request slice to a Stream.
type SliceStream struct {
	reqs []Request
	pos  int
}

// NewSliceStream returns a Stream over reqs. The slice is not copied.
func NewSliceStream(reqs []Request) *SliceStream {
	return &SliceStream{reqs: reqs}
}

// Next implements Stream.
func (s *SliceStream) Next(r *Request) bool {
	if s.pos >= len(s.reqs) {
		return false
	}
	*r = s.reqs[s.pos]
	s.pos++
	return true
}

// Reset rewinds the stream to the beginning, making it reusable.
func (s *SliceStream) Reset() { s.pos = 0 }

// Len returns the total number of requests in the stream.
func (s *SliceStream) Len() int { return len(s.reqs) }

// Collect drains a stream into a slice. It is intended for tests and for
// experiments that replay the same trace under several mechanisms.
func Collect(s Stream) []Request {
	var out []Request
	var r Request
	for s.Next(&r) {
		out = append(out, r)
	}
	return out
}

// LimitStream caps an underlying stream at n requests.
type LimitStream struct {
	src  Stream
	left int
}

// NewLimitStream returns a Stream yielding at most n requests from src.
func NewLimitStream(src Stream, n int) *LimitStream {
	return &LimitStream{src: src, left: n}
}

// Next implements Stream.
func (l *LimitStream) Next(r *Request) bool {
	if l.left <= 0 {
		return false
	}
	if !l.src.Next(r) {
		l.left = 0
		return false
	}
	l.left--
	return true
}

// MergeStream merges several timestamp-ordered streams into one
// timestamp-ordered stream. It is how per-core generators compose into an
// 8-core multi-programmed trace.
//
// Live sources are kept dense: an exhausted source is removed by an
// order-preserving compaction, so Next scans exactly the live heads with
// no per-source liveness check. Ties break toward the earliest-registered
// source, same as scanning all sources in registration order — compaction
// preserves the live sources' relative order, so the tie-break is
// unchanged by removals.
type MergeStream struct {
	srcs  []Stream
	heads []Request
	// times shadows heads[i].Time densely: the per-Next minimum scan runs
	// over 8-byte entries (all 8 cores' heads share one cache line)
	// instead of striding across whole Request structs.
	times []clock.Time
}

// NewMergeStream returns a merged Stream over srcs. Each source must be
// individually ordered by Time.
func NewMergeStream(srcs ...Stream) *MergeStream {
	m := &MergeStream{
		srcs:  make([]Stream, 0, len(srcs)),
		heads: make([]Request, len(srcs)),
		times: make([]clock.Time, 0, len(srcs)),
	}
	for _, s := range srcs {
		if s.Next(&m.heads[len(m.srcs)]) {
			m.srcs = append(m.srcs, s)
			m.times = append(m.times, m.heads[len(m.times)].Time)
		}
	}
	m.heads = m.heads[:len(m.srcs)]
	return m
}

// Next implements Stream.
func (m *MergeStream) Next(r *Request) bool {
	times := m.times
	var best int
	if len(times) == 8 {
		// The full 8-core head set, the common case until sources start
		// exhausting: an unrolled tournament whose compare chains are
		// independent (instruction-level parallelism, branchless
		// selects) instead of one serial scan. Every node keeps the left
		// operand on ties and left operands always carry the smaller
		// indices, so the winner is the first minimal index — exactly
		// the scan's answer.
		b0, i0 := times[0], 0
		if times[1] < b0 {
			b0, i0 = times[1], 1
		}
		b1, i1 := times[2], 2
		if times[3] < b1 {
			b1, i1 = times[3], 3
		}
		b2, i2 := times[4], 4
		if times[5] < b2 {
			b2, i2 = times[5], 5
		}
		b3, i3 := times[6], 6
		if times[7] < b3 {
			b3, i3 = times[7], 7
		}
		if b1 < b0 {
			b0, i0 = b1, i1
		}
		if b3 < b2 {
			b2, i2 = b3, i3
		}
		if b2 < b0 {
			i0 = i2
		}
		best = i0
	} else {
		if len(times) == 0 {
			return false
		}
		bt := times[0]
		for i := 1; i < len(times); i++ {
			if times[i] < bt {
				best, bt = i, times[i]
			}
		}
	}
	*r = m.heads[best]
	if m.srcs[best].Next(&m.heads[best]) {
		times[best] = m.heads[best].Time
	} else {
		copy(m.heads[best:], m.heads[best+1:])
		copy(m.srcs[best:], m.srcs[best+1:])
		copy(times[best:], times[best+1:])
		m.heads = m.heads[:len(m.heads)-1]
		m.srcs = m.srcs[:len(m.srcs)-1]
		m.times = times[:len(times)-1]
	}
	return true
}
