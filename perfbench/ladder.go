package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"time"

	mempod "repro"
	"repro/internal/addr"
	"repro/internal/cameo"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/exp"
	"repro/internal/hma"
	"repro/internal/mea"
	"repro/internal/mech"
	"repro/internal/memsys"
	"repro/internal/migrant"
	"repro/internal/resultcache"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thm"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ladderReps is how many times each engine rung and the end-to-end cell run.
const ladderReps = 3

// rung is one step of the layer ladder: the engine over the snapshot with
// one mechanism.
type rung struct {
	name   string
	shards int
	make   func(b *mech.Backend) (mech.Mechanism, error)
}

func ladderRungs() []rung {
	full := exp.DefaultConfig()
	hcfg := hma.DefaultConfig()
	hcfg.Interval, hcfg.SortStall, hcfg.MaxMigrations = full.HMAInterval, full.HMASortStall, full.HMAMaxMigrations
	mp := func(b *mech.Backend) (mech.Mechanism, error) { return core.New(core.DefaultConfig(), b) }
	return []rung{
		{"static", 1, func(b *mech.Backend) (mech.Mechanism, error) { return mech.NewStatic("TLM", b), nil }},
		{"serial", 1, mp},
		{"pod_parallel", 0, mp},
		{"hma", 1, func(b *mech.Backend) (mech.Mechanism, error) { return hma.New(hcfg, b) }},
		{"thm", 1, func(b *mech.Backend) (mech.Mechanism, error) { return thm.New(thm.DefaultConfig(), b) }},
		{"cameo", 1, func(b *mech.Backend) (mech.Mechanism, error) { return cameo.New(cameo.DefaultConfig(), b) }},
		{"migrant", 1, func(b *mech.Backend) (mech.Mechanism, error) { return migrant.New(migrant.DefaultConfig(), b) }},
	}
}

func newSystem() (*mech.Backend, error) {
	sys, err := memsys.New(addr.DefaultLayout(), dram.HBM(), dram.DDR4_1600())
	if err != nil {
		return nil, err
	}
	return mech.NewBackend(sys), nil
}

// ladder measures every layer of one simulation cell over the cell-long
// snapshot, one rung at a time — generation, recording, mapped open, plane
// build, replay, the DRAM kernel, the engine with each mechanism, cell build
// and result encoding — and checks that the rungs' self times add up to the
// cell measured end to end through the public API.
func ladder(e *env, tr *tracer) error {
	root := tr.begin("ladder", -1)
	defer tr.end(root)
	w, err := workload.Mix(5)
	if err != nil {
		return err
	}
	var gen, rec time.Duration
	var snap *trace.Snapshot
	{
		s, err := w.Stream(cellRequests, e.seed)
		if err != nil {
			return err
		}
		var r trace.Request
		gen = timed(tr, "workload.generate", root, func() {
			for s.Next(&r) {
			}
		})
		if s, err = w.Stream(cellRequests, e.seed); err != nil {
			return err
		}
		rec = timed(tr, "trace.record", root, func() { snap = trace.Record(s, cellRequests) })
	}
	dir, err := e.dir("ladder")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "mix5.mps")
	if err := writeFile(path, func(w io.Writer) error { return trace.WriteSnapshot(w, "mix5", snap) }); err != nil {
		return err
	}
	snap.Release()
	e.set("workload.gen_ns_per_req", nsPerReq(gen))
	e.set("trace.record_ns_per_req", nsPerReq(rec-gen))

	var mapped *trace.Snapshot
	open := timed(tr, "trace.open_mapped", root, func() { mapped, _, err = trace.OpenMapped(path) })
	if err != nil {
		return err
	}
	defer mapped.Release()
	e.set("trace.open_mapped_s", open.Seconds())
	b, err := newSystem()
	if err != nil {
		return err
	}
	var plane []trace.Decoded
	e.set("trace.plane_build_s", timed(tr, "trace.plane_build", root, func() { plane = mapped.Plane(&b.Geom) }).Seconds())
	var times []clock.Time
	tr.do("trace.time_column", root, func() { times = mapped.TimeColumn() })

	replay := timed(tr, "trace.replay", root, func() {
		ss := mapped.DecodedStream(&b.Geom)
		buf := make([]trace.Request, sim.BatchSize)
		dec := make([]trace.Decoded, sim.BatchSize)
		for ss.NextBatch(buf, dec) > 0 {
		}
	})
	e.set("trace.replay_ns_per_req", nsPerReq(replay))

	kernel, err := dramKernel(tr, root, mapped, plane, times)
	if err != nil {
		return err
	}
	e.set("dram.access_batch_ns_per_req", nsPerReq(kernel))

	m := mea.NewMEA(core.DefaultConfig().Counters, core.DefaultConfig().CounterBits)
	observe := timed(tr, "mea.observe", root, func() {
		for i := range plane {
			m.Observe(plane[i].Page)
		}
	})
	e.set("mea.observe_ns", nsPerReq(observe))

	// The engine rungs and the end-to-end cell alternate ladderReps times;
	// each reports its median, so one descheduled run cannot skew a rung.
	key := resultcache.CellKey{
		SimVersion: sim.Version, Kind: resultcache.KindResult,
		Mech:   fmt.Sprintf("mempod:%+v", core.DefaultConfig()),
		FastFP: dram.HBM().Fingerprint(), SlowFP: dram.DDR4_1600().Fingerprint(),
		Layout: fmt.Sprintf("%+v", addr.DefaultLayout()), Workload: "mix5",
		TraceFP: mapped.Fingerprint(),
	}
	t, err := mempod.OpenTrace(path)
	if err != nil {
		return err
	}
	defer t.Close()
	runs := make(map[string][]float64)
	results := make(map[string]stats.Result)
	var builds, encodes, cells []float64
	for rep := 0; rep < ladderReps; rep++ {
		for _, r := range ladderRungs() {
			id := tr.begin("sim."+r.name, root)
			var bk *mech.Backend
			var mm mech.Mechanism
			build := timed(tr, "mech.cell_build", id, func() {
				if bk, err = newSystem(); err == nil {
					mm, err = r.make(bk)
				}
			})
			if err != nil {
				return fmt.Errorf("ladder %s: %w", r.name, err)
			}
			eng := sim.New(bk, mm)
			eng.Shards = r.shards
			var res stats.Result
			run := timed(tr, "sim.run", id, func() { res, err = eng.Run("mix5", mapped.DecodedStream(&bk.Geom)) })
			build += timed(tr, "mech.release", id, func() { mech.Release(mm) })
			tr.end(id)
			if err != nil {
				return fmt.Errorf("ladder %s: %w", r.name, err)
			}
			runs[r.name] = append(runs[r.name], nsPerReq(run))
			if r.name == "serial" {
				builds = append(builds, ms(build))
				encodes = append(encodes, ms(timed(tr, "resultcache.encode", id, func() {
					resultcache.EncodeFile(key, resultcache.EncodeResult(res))
				})))
			}
			if r.name == "pod_parallel" {
				e.set("sim.parallel_blocks", float64(eng.ParallelBlocks()))
			}
			if prev, ok := results[r.name]; ok && !reflect.DeepEqual(prev, res) {
				e.fail(1, "ladder: %s rung is not deterministic", r.name)
			}
			results[r.name] = res
		}
		// The same MemPod cell end to end through the public API, on an
		// already-open trace whose sidecars the rungs above have written.
		var res mempod.Result
		cells = append(cells, ms(timed(tr, "ladder.cell", root, func() {
			res, err = mempod.RunTrace(t, mempod.Options{Mechanism: mempod.MechMemPod, PodShards: 1})
			resultcache.EncodeFile(key, resultcache.EncodeResult(res))
		})))
		e.attempted++
		if err != nil || !reflect.DeepEqual(res, results["serial"]) {
			e.fail(1, "ladder: facade cell differs from the serial rung (%v)", err)
		}
	}
	static, serial := median(runs["static"]), median(runs["serial"])
	e.set("sim.static_ns_per_req", static)
	e.set("sim.serial_ns_per_req", serial)
	e.set("sim.pod_parallel_ns_per_req", median(runs["pod_parallel"]))
	e.set("core.mempod_ns_per_req", serial-static)
	for _, name := range []string{"hma", "thm", "cameo", "migrant"} {
		e.set(name+".ns_per_req", median(runs[name])-static)
	}
	e.set("dram.row_hit_rate", results["static"].RowHitRate)
	e.set("core.page_migrations", float64(results["serial"].Mig.PageMigrations))
	e.attempted++
	if !reflect.DeepEqual(results["serial"], results["pod_parallel"]) {
		e.fail(1, "ladder: pod-parallel MemPod differs from serial")
	}
	e.set("mech.cell_build_ms", median(builds))

	// Self times telescope: replay, static minus replay, MemPod minus
	// static, then cell build and encoding, all per cell in ms.
	replayMs := ms(replay)
	rungs := replayMs + (static*cellRequests/1e6 - replayMs) + (serial-static)*cellRequests/1e6 +
		median(builds) + median(encodes)
	cell := median(cells)
	e.set("ladder.residual_frac", (cell-rungs)/cell)
	return nil
}

// timed runs f inside a span and returns its wall time.
func timed(tr *tracer, name string, parent int, f func()) time.Duration {
	start := time.Now()
	tr.do(name, parent, f)
	return time.Since(start)
}

// dramKernel routes every request to its home channel and row (as an
// unmigrated access) and services the per-channel columns through the
// batched channel kernel, timing only the kernel calls.
func dramKernel(tr *tracer, parent int, snap *trace.Snapshot, plane []trace.Decoded, times []clock.Time) (time.Duration, error) {
	b, err := newSystem()
	if err != nil {
		return 0, err
	}
	writes := make([]bool, 0, len(plane))
	ss := snap.Stream()
	var r trace.Request
	for ss.Next(&r) {
		writes = append(writes, r.Write)
	}
	cols := make([][]dram.BatchReq, b.Sys.NumChannels())
	for i, d := range plane {
		if int(d.Chan) >= len(cols) {
			return 0, fmt.Errorf("dram kernel: channel %d out of range", d.Chan)
		}
		// Idx scatters completions into done, one kernel call per
		// BatchSize-request chunk of the column.
		idx := int32(len(cols[d.Chan]) % sim.BatchSize)
		cols[d.Chan] = append(cols[d.Chan], dram.BatchReq{Row: uint64(d.Row), At: times[i], Idx: idx, Write: writes[i]})
	}
	done := make([]clock.Time, sim.BatchSize)
	return timed(tr, "dram.access_batch", parent, func() {
		for ch, col := range cols {
			for lo := 0; lo < len(col); lo += sim.BatchSize {
				hi := min(lo+sim.BatchSize, len(col))
				clear(done)
				b.Sys.AccessChannelBatch(ch, col[lo:hi], done[:hi-lo])
			}
		}
	}), nil
}
