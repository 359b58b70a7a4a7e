package dram

import "repro/internal/clock"

// Stats accumulates per-channel service counters.
type Stats struct {
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowClosed    uint64
	RowConflicts uint64
	BusBusy      clock.Duration // cumulative data-bus occupancy
	LastFinish   clock.Time     // completion time of the latest request
	Refreshes    uint64         // refresh windows taken (0 unless enabled)
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (s Stats) RowHitRate() float64 {
	total := s.Reads + s.Writes
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// Accesses returns the total number of serviced requests.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Merge folds another channel's counters into s: sums everywhere except
// LastFinish, which keeps the later of the two completion times. Merging
// per-channel snapshots in any order yields the same aggregate, which is
// what lets pod-disjoint channel sets be simulated concurrently and
// tallied afterwards.
func (s *Stats) Merge(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.RowHits += o.RowHits
	s.RowClosed += o.RowClosed
	s.RowConflicts += o.RowConflicts
	s.BusBusy += o.BusBusy
	if o.LastFinish > s.LastFinish {
		s.LastFinish = o.LastFinish
	}
	s.Refreshes += o.Refreshes
}

type bank struct {
	openRow     int64 // row index currently latched, -1 if precharged
	nextCmd     clock.Time
	activatedAt clock.Time
}

// Channel models one DRAM channel: a set of banks sharing a data bus.
// Requests are serviced in arrival order with an open-page policy; queueing
// emerges from per-bank and bus next-available times. A Channel is not
// safe for concurrent use, but carries no cross-channel state — refresh
// catch-up is arithmetic on the channel's own clock (see Access), not a
// global tick — so disjoint channel sets may be driven from different
// goroutines concurrently.
type Channel struct {
	spec  Spec
	banks []bank
	// Bank decomposition of a row index, precomputed: every real spec has a
	// power-of-two bank count, turning the per-access div/mod pair into a
	// shift and a mask (with a hardware-division fallback otherwise).
	bankMask  uint64
	bankShift uint8
	bankPow2  bool
	// Cached durations, precomputed once.
	burst       clock.Duration
	latHit      clock.Duration
	latClosed   clock.Duration
	latConflict clock.Duration
	ras         clock.Duration
	rp          clock.Duration
	writeExtra  clock.Duration // extra write service time (NVM asymmetry)
	link        clock.Duration // one-way link traversal (CXL attach)

	busFreeAt clock.Time
	// nextRefresh is refreshNever when refresh is disabled, so the hot
	// path's enabled-and-due test is one comparison.
	nextRefresh clock.Time
	stats       Stats
}

// refreshNever is the nextRefresh sentinel for refresh-disabled channels:
// no request time ever reaches it.
const refreshNever = clock.Time(1<<63 - 1)

// NewChannel returns a channel with all banks precharged at time zero.
func NewChannel(spec Spec) *Channel {
	c := MakeChannel(spec)
	return &c
}

// MakeChannel is NewChannel by value, for callers that keep channels in a
// dense slice (memsys.System) instead of chasing per-channel pointers.
func MakeChannel(spec Spec) Channel {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	c := Channel{
		spec:        spec,
		banks:       make([]bank, spec.Banks),
		burst:       spec.BurstTime(),
		latHit:      spec.RowHitLatency(),
		latClosed:   spec.RowClosedLatency(),
		latConflict: spec.RowConflictLatency(),
		ras:         spec.cycles(spec.RAS),
		rp:          spec.cycles(spec.RP),
		writeExtra:  spec.cycles(spec.WriteExtra),
		link:        spec.LinkTime,
	}
	for i := range c.banks {
		c.banks[i].openRow = -1
	}
	if n := uint64(spec.Banks); n&(n-1) == 0 {
		c.bankPow2 = true
		c.bankMask = n - 1
		for q := n; q > 1; q >>= 1 {
			c.bankShift++
		}
	}
	c.nextRefresh = refreshNever
	if spec.RefreshInterval > 0 {
		c.nextRefresh = spec.RefreshInterval
	}
	return c
}

// Spec returns the channel's DRAM spec.
func (c *Channel) Spec() Spec { return c.spec }

// Stats returns a snapshot of the channel's counters. BusBusy is derived
// here rather than accumulated per access: every access occupies the bus
// for exactly one burst.
func (c *Channel) Stats() Stats {
	s := c.stats
	s.BusBusy = clock.Duration(s.Reads+s.Writes) * c.burst
	return s
}

// Access services one 64-byte request to the given global row index at or
// after time `at` and returns its completion time (data fully transferred).
//
// Rows interleave across banks (bank = row mod Banks), giving streams
// bank-level parallelism; the row-within-bank keeps row-buffer locality for
// addresses in the same 8 KB row.
func (c *Channel) Access(row uint64, write bool, at clock.Time) clock.Time {
	// Link-attached channels (CXL): the request reaches the device one
	// link traversal after issue, and the completion returns one traversal
	// after the device finishes. All device-side state (banks, bus,
	// refresh) runs in device-arrival time.
	at += c.link

	// Refresh: every tREFI the channel stalls for tRFC with all rows
	// closed. Catch up on all refresh windows the request time passed in
	// one arithmetic step: successive windows only raise the same floor
	// (each refreshEnd exceeds the last), so applying the final window's
	// end to the banks and bus is identical to replaying every window — a
	// channel idle for seconds catches up in O(banks), not O(windows).
	if at >= c.nextRefresh {
		k := (at-c.nextRefresh)/c.spec.RefreshInterval + 1
		refreshEnd := c.nextRefresh + clock.Duration(k-1)*c.spec.RefreshInterval + c.spec.RefreshTime
		for i := range c.banks {
			c.banks[i].openRow = -1
			if c.banks[i].nextCmd < refreshEnd {
				c.banks[i].nextCmd = refreshEnd
			}
		}
		if c.busFreeAt < refreshEnd {
			c.busFreeAt = refreshEnd
		}
		c.stats.Refreshes += uint64(k)
		c.nextRefresh += clock.Duration(k) * c.spec.RefreshInterval
	}

	var b *bank
	var bankRow int64
	if c.bankPow2 {
		b = &c.banks[row&c.bankMask]
		bankRow = int64(row >> c.bankShift)
	} else {
		b = &c.banks[row%uint64(len(c.banks))]
		bankRow = int64(row / uint64(len(c.banks)))
	}

	start := clock.Max(at, b.nextCmd)
	var lat clock.Duration
	switch {
	case b.openRow == bankRow:
		c.stats.RowHits++
		lat = c.latHit
		// Consecutive hits pipeline: the bank can take another column
		// command one burst later; the shared bus serializes the data.
		b.nextCmd = start + c.burst
	case b.openRow < 0:
		c.stats.RowClosed++
		lat = c.latClosed
		b.activatedAt = start
		b.nextCmd = start + lat
	default:
		c.stats.RowConflicts++
		// Precharge must respect tRAS from the previous activation.
		start = clock.Max(start, b.activatedAt+c.ras)
		lat = c.latConflict
		b.activatedAt = start + c.rp
		b.nextCmd = start + lat
	}
	if write && c.writeExtra > 0 {
		// Asymmetric media (NVM): programming extends the write's service
		// time and keeps the bank busy until it completes.
		lat += c.writeExtra
		if b.nextCmd < start+lat {
			b.nextCmd = start + lat
		}
	}
	if c.spec.Policy == ClosedPage {
		// Auto-precharge: the next access to this bank starts from a
		// closed row (its precharge overlaps the data transfer).
		b.openRow = -1
	} else {
		b.openRow = bankRow
	}

	dataReady := start + lat
	busStart := clock.Max(dataReady, c.busFreeAt)
	fin := busStart + c.burst
	c.busFreeAt = fin
	done := fin + c.link

	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	// done exceeds the previous access's completion (busStart >= the old
	// busFreeAt, which was that completion), so LastFinish is monotone —
	// no max needed. BusBusy is derived in Stats (burst per access).
	c.stats.LastFinish = done
	return done
}

// BatchReq is one request of a per-channel column: the row and issue time
// of an access plus the caller's scatter index for its completion. It
// remains only for perfbench's DRAM rung (dram.access_batch_ns_per_req,
// through memsys.AccessChannelBatch); no simulation path builds columns.
type BatchReq struct {
	Row   uint64
	At    clock.Time
	Idx   int32
	Write bool
}

// AccessBatch services a column of requests on this channel, in column
// order, through Access, folding each completion into done[Idx] as a
// running max (a preloaded done entry acts as a completion floor). It
// remains only for perfbench's DRAM rung; Access is the channel's one
// timing model.
func (c *Channel) AccessBatch(reqs []BatchReq, done []clock.Time) {
	for i := range reqs {
		r := &reqs[i]
		done[r.Idx] = max(done[r.Idx], c.Access(r.Row, r.Write, r.At))
	}
}

// Idle reports whether the channel has no pending bus occupancy at time t.
func (c *Channel) Idle(t clock.Time) bool { return c.busFreeAt <= t }
