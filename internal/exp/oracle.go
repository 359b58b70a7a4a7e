package exp

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/mea"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// The §3 oracle study compares MEA against Full Counters offline, with no
// timing model: the trace is sliced into intervals of OracleIntervalReqs
// requests (the paper's 5500, the average per 50 µs window), both trackers
// observe each interval, and an oracle (the next interval's exact counts)
// grades their predictions on the top three page tiers: ranks 1–10, 11–20
// and 21–30.
const (
	OracleIntervalReqs = 5500
	OracleMEACounters  = 128
	// OracleCounterBits sizes the study's MEA counters. The paper's §3
	// study predates the 2-bit design point; 4 bits keeps a partial
	// internal ranking while exhibiting the saturation-plus-decrement
	// distortion the paper blames for MEA's weak counting accuracy.
	OracleCounterBits = 4
	tiers             = 3
)

// OracleResult holds one workload's tier metrics.
type OracleResult struct {
	Workload    string
	Homogeneous bool
	Intervals   int
	// CountAcc is Figure 1: the fraction of the past interval's true
	// tier-k pages that MEA's own top tiers identified (FC is exact by
	// construction).
	CountAcc [tiers]float64
	// MEAHits and FCHits are Figure 2/3: average hits per interval on the
	// next interval's true tier-k pages, out of 10.
	MEAHits [tiers]float64
	FCHits  [tiers]float64
}

// OracleStudy runs the §3 offline comparison over the config's workloads
// through runCells, fanning the per-workload passes (each with its own
// trackers and replay cursor) out to c.Parallelism workers. Traces come
// from the config's snapshot cache — each is recorded once, replayed here,
// and freed at its last declared use. Results keep workload order.
func (c Config) OracleStudy() ([]OracleResult, error) {
	results, err := runCells(c.oracleCells(), c.cellOptions(), c.Progress,
		func(_ planCell, payload []byte) (OracleResult, error) { return decodeOracle(payload) })
	if err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	return runner.Values(results), nil
}

func (c Config) oracleOne(w workload.Workload, traces *tracecache.Cache, traceUses int) (OracleResult, error) {
	res := OracleResult{Workload: w.Name, Homogeneous: w.Homogeneous}
	snap, release, err := c.acquireTrace(traces, w, traceUses)
	if err != nil {
		return res, err
	}
	defer release()
	s := snap.Stream()
	m := mea.NewMEA(OracleMEACounters, OracleCounterBits)
	fc := mea.NewFullCounters()

	var predMEA, predFC map[uint64]bool // predictions from the previous interval
	var countSum [tiers]float64
	var meaSum, fcSum [tiers]float64
	graded := 0

	var r trace.Request
	n := 0
	flush := func() {
		truth := fc.Hot() // exact ranking of the interval just ended

		// Figure 1: MEA's ranked tiers vs the true tiers. The returned
		// slice aliases the tracker's reusable buffer; it is fully
		// consumed below, before the next Hot call.
		meaRank := m.Hot()
		for t := 0; t < tiers; t++ {
			truthTier := tierSet(truth, t)
			if len(truthTier) == 0 {
				continue
			}
			got := 0
			for _, e := range tierSlice(meaRank, t) {
				if truthTier[e.Page] {
					got++
				}
			}
			countSum[t] += float64(got) / float64(len(truthTier))
		}

		// Figure 2: grade the previous interval's predictions against
		// this interval's truth.
		if predMEA != nil {
			for t := 0; t < tiers; t++ {
				for page := range tierSet(truth, t) {
					if predMEA[page] {
						meaSum[t]++
					}
					if predFC[page] {
						fcSum[t]++
					}
				}
			}
			graded++
		}

		// Form this interval's predictions: MEA offers its (≤K) entries;
		// FC offers its top N, N matched to MEA's count for a fair
		// comparison (§3).
		predMEA = make(map[uint64]bool, len(meaRank))
		for _, e := range meaRank {
			predMEA[e.Page] = true
		}
		predFC = make(map[uint64]bool, len(meaRank))
		for _, e := range fc.Top(len(meaRank)) {
			predFC[e.Page] = true
		}

		res.Intervals++
		m.Reset()
		fc.Reset()
	}
	for s.Next(&r) {
		p := uint64(addr.PageOf(addr.Addr(r.Addr)))
		m.Observe(p)
		fc.Observe(p)
		n++
		if n%OracleIntervalReqs == 0 {
			flush()
		}
	}
	if res.Intervals == 0 {
		return res, fmt.Errorf("exp: workload %s too short for one oracle interval", w.Name)
	}
	for t := 0; t < tiers; t++ {
		res.CountAcc[t] = countSum[t] / float64(res.Intervals)
		if graded > 0 {
			res.MEAHits[t] = meaSum[t] / float64(graded)
			res.FCHits[t] = fcSum[t] / float64(graded)
		}
	}
	return res, nil
}

// tierSet returns the page set of true tier t (ranks 10t+1..10t+10).
func tierSet(ranked []mea.Entry, t int) map[uint64]bool {
	out := make(map[uint64]bool, 10)
	for _, e := range tierSlice(ranked, t) {
		out[e.Page] = true
	}
	return out
}

func tierSlice(ranked []mea.Entry, t int) []mea.Entry {
	lo := 10 * t
	hi := lo + 10
	if lo >= len(ranked) {
		return nil
	}
	if hi > len(ranked) {
		hi = len(ranked)
	}
	return ranked[lo:hi]
}

// Fig1 regenerates Figure 1: MEA counting accuracy against Full Counters
// on the top three tiers, per workload plus HG/MIX/ALL averages.
func (c Config) Fig1() (*report.Table, error) {
	study, err := c.OracleStudy()
	if err != nil {
		return nil, err
	}
	t := report.New("fig1", "MEA counting accuracy vs Full Counters (fraction of true tier identified)",
		"workload", "ranks 1-10", "ranks 11-20", "ranks 21-30")
	add := func(name string, acc [tiers]float64) {
		t.Addf(name, acc[0], acc[1], acc[2])
	}
	var hg, mix, all [tiers]float64
	var hgN, mixN int
	for _, r := range study {
		add(r.Workload, r.CountAcc)
		for i := 0; i < tiers; i++ {
			all[i] += r.CountAcc[i]
			if r.Homogeneous {
				hg[i] += r.CountAcc[i]
			} else {
				mix[i] += r.CountAcc[i]
			}
		}
		if r.Homogeneous {
			hgN++
		} else {
			mixN++
		}
	}
	for i := 0; i < tiers; i++ {
		if hgN > 0 {
			hg[i] /= float64(hgN)
		}
		if mixN > 0 {
			mix[i] /= float64(mixN)
		}
		all[i] /= float64(len(study))
	}
	add("AVG HG", hg)
	add("AVG MIX", mix)
	add("AVG ALL", all)
	return t, nil
}

// Fig2 regenerates Figure 2: future-prediction hits (out of 10 per tier)
// for MEA and FC, averaged over homogeneous, mixed and all workloads.
func (c Config) Fig2() (*report.Table, error) {
	study, err := c.OracleStudy()
	if err != nil {
		return nil, err
	}
	t := report.New("fig2", "MEA vs FC future-prediction hits per tier (of 10)",
		"group", "scheme", "ranks 1-10", "ranks 11-20", "ranks 21-30")
	groups := []struct {
		name string
		keep func(OracleResult) bool
	}{
		{"WL-HG", func(r OracleResult) bool { return r.Homogeneous }},
		{"WL-MIX", func(r OracleResult) bool { return !r.Homogeneous }},
		{"WL-ALL", func(OracleResult) bool { return true }},
	}
	for _, g := range groups {
		var meaAvg, fcAvg [tiers]float64
		n := 0
		for _, r := range study {
			if !g.keep(r) {
				continue
			}
			for i := 0; i < tiers; i++ {
				meaAvg[i] += r.MEAHits[i]
				fcAvg[i] += r.FCHits[i]
			}
			n++
		}
		if n == 0 {
			continue
		}
		for i := 0; i < tiers; i++ {
			meaAvg[i] /= float64(n)
			fcAvg[i] /= float64(n)
		}
		t.Addf(g.name, "MEA", meaAvg[0], meaAvg[1], meaAvg[2])
		t.Addf(g.name, "FC", fcAvg[0], fcAvg[1], fcAvg[2])
	}
	return t, nil
}

// Fig3Workloads are the individual workloads Figure 3 calls out.
var Fig3Workloads = []string{"cactus", "xalanc", "mix9", "bwaves", "lbm", "libquantum"}

// Fig3 regenerates Figure 3: per-workload prediction hits for the paper's
// most interesting cases. Workloads absent from the config are skipped.
func (c Config) Fig3() (*report.Table, error) {
	study, err := c.OracleStudy()
	if err != nil {
		return nil, err
	}
	wanted := make(map[string]bool, len(Fig3Workloads))
	for _, n := range Fig3Workloads {
		wanted[n] = true
	}
	t := report.New("fig3", "MEA vs FC prediction hits, selected workloads (of 10 per tier)",
		"workload", "scheme", "ranks 1-10", "ranks 11-20", "ranks 21-30")
	for _, r := range study {
		if !wanted[r.Workload] {
			continue
		}
		t.Addf(r.Workload, "MEA", r.MEAHits[0], r.MEAHits[1], r.MEAHits[2])
		t.Addf(r.Workload, "FC", r.FCHits[0], r.FCHits[1], r.FCHits[2])
	}
	return t, nil
}
