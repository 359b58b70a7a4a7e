package workload

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/trace"
)

// chunkLen is how many requests a core's producer hands to the merge at a
// time. Each core has two chunks in flight, so a recording generates at
// most 2·8·chunkLen = 16384 requests it does not keep: a tenth of a
// quick-scale (150k-request) trace, 0.3% of a 6M-request one.
const chunkLen = 1024

// chunkPool recycles one recording's chunk storage, two chunks per core.
// A miss costs one 400 KB allocation, so the per-P caching of sync.Pool
// is good enough here, unlike for the snapshot buffers it feeds.
var chunkPool = sync.Pool{New: func() any { return new([2 * coreSlots * chunkLen]trace.Request) }}

// record drains the per-core streams srcs (at most coreSlots) into an
// n-request snapshot, running each stream on its own goroutine. The
// consumer merges the chunks with the same merge Stream uses, so the
// snapshot is byte-identical to trace.Record(merged(srcs, n), n): the
// per-core streams are independent, and only the merge orders them.
//
// Every goroutine record starts has exited when it returns. A panic in a
// producer is recovered and returned as the error.
func record(srcs []trace.Stream, n int) (*trace.Snapshot, error) {
	bufs := chunkPool.Get().(*[2 * coreSlots * chunkLen]trace.Request)
	done := make(chan struct{})
	errs := make([]error, len(srcs))
	chunks := make([]trace.Stream, len(srcs))
	var wg sync.WaitGroup
	for core, src := range srcs {
		c := &coreChunks{
			full: make(chan []trace.Request, 2),
			free: make(chan []trace.Request, 2),
		}
		for k := 0; k < 2; k++ {
			lo := (2*core + k) * chunkLen
			c.free <- bufs[lo : lo+chunkLen : lo+chunkLen]
		}
		chunks[core] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(c.full)
			defer func() {
				if p := recover(); p != nil {
					errs[core] = fmt.Errorf("workload: core %d generator panicked: %v", core, p)
				}
			}()
			// No core contributes more than n requests to the snapshot.
			// Ending its stream there leaves the merge's output unchanged.
			c.produce(src, n, done)
		}()
	}
	snap := func() *trace.Snapshot {
		defer func() {
			close(done)
			wg.Wait()
			chunkPool.Put(bufs)
		}()
		return trace.Record(merged(chunks, n), n)
	}()
	if err := errors.Join(errs...); err != nil {
		snap.Release()
		return nil, err
	}
	return snap, nil
}

// coreChunks carries one core's requests from its producer goroutine to
// the merge. Two chunks circulate between free and full: the producer
// fills one while the merge reads the other, and since each channel holds
// both, no send ever blocks.
type coreChunks struct {
	full, free chan []trace.Request
	cur        []trace.Request // chunk the merge is reading
	pos        int             // next request in cur
}

// produce fills chunks from src until it has sent left requests, src
// ends, or done is closed.
func (c *coreChunks) produce(src trace.Stream, left int, done <-chan struct{}) {
	for left > 0 {
		var buf []trace.Request
		select {
		case buf = <-c.free:
		case <-done:
			return
		}
		if len(buf) > left {
			buf = buf[:left]
		}
		k := 0
		for k < len(buf) && src.Next(&buf[k]) {
			k++
		}
		if k > 0 {
			c.full <- buf[:k]
		}
		if k < len(buf) {
			return
		}
		left -= k
	}
}

// Next implements trace.Stream over the producer's chunks, returning each
// drained chunk to the producer. It reports false once the producer has
// stopped and every chunk it sent is consumed.
func (c *coreChunks) Next(r *trace.Request) bool {
	if c.pos == len(c.cur) {
		if c.cur != nil {
			c.free <- c.cur[:cap(c.cur)]
		}
		var ok bool
		if c.cur, ok = <-c.full; !ok {
			return false
		}
		c.pos = 0
	}
	*r = c.cur[c.pos]
	c.pos++
	return true
}
