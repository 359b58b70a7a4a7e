package sim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/addr"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mech"
	"repro/internal/memsys"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// podLayout is the default layout clustered into the given number of
// pods; eight pods take one slow channel each.
func podLayout(pods int) addr.Layout {
	l := addr.DefaultLayout()
	l.NumPods = pods
	if pods > l.SlowChannels {
		l.SlowChannels = pods
	}
	return l
}

// podCase is one MemPod shape of the parity grid: a config over a layout.
type podCase struct {
	name   string
	cfg    core.Config
	layout addr.Layout
}

func podCases() []podCase {
	def := core.DefaultConfig()
	cache, fc := def, def
	cache.CacheBytes = 1 << 16
	fc.UseFullCounters = true
	cases := []podCase{
		{"MemPod", def, podLayout(4)},
		{"MemPod-cache", cache, podLayout(4)},
		{"MemPod-FC", fc, podLayout(4)},
	}
	for _, pods := range []int{1, 2, 8} {
		cases = append(cases, podCase{fmt.Sprintf("MemPod/%dpod", pods), def, podLayout(pods)})
	}
	return cases
}

// paritySnapshots records a mix5 trace and returns it twice: on the heap
// and mapped from its store file.
func paritySnapshots(t *testing.T, n int) (w workload.Workload, heap, mapped *trace.Snapshot) {
	t.Helper()
	w, err := workload.Mix(5)
	if err != nil {
		t.Fatal(err)
	}
	heap = trace.Record(w.MustStream(n, 11), n)
	t.Cleanup(heap.Release)
	var buf bytes.Buffer
	if err := trace.WriteSnapshot(&buf, w.Name, heap); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mix5.mps")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if mapped, _, err = trace.OpenMapped(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mapped.Release)
	return w, heap, mapped
}

// runPodCase replays snap under a fresh MemPod built from pc with the
// given window and Shards, and returns the Result, the engine's worker
// count and the error.
func runPodCase(t *testing.T, pc podCase, wrap func(*core.MemPod) mech.Mechanism, snap *trace.Snapshot, window, shards int) (stats.Result, uint64, error) {
	t.Helper()
	b := mech.NewBackend(memsys.MustNew(pc.layout, dram.HBM(), dram.DDR4_1600()))
	mp := mustBuild(t, core.New, pc.cfg, b)
	defer mp.Release()
	var m mech.Mechanism = mp
	if wrap != nil {
		m = wrap(mp)
	}
	e := New(b, m)
	e.Window, e.Shards = window, shards
	res, err := e.Run("mix5", snap.DecodedStream(&b.Geom))
	return res, e.ParallelBlocks(), err
}

// TestPodParallelBitIdentical holds the pod-parallel replay to the serial
// one field by field. Per mechanism, Shards 4 must reproduce Shards 1:
// MemPod's pods split over four workers, and every mechanism without
// independent pods runs serially whatever Shards says. Then over MemPod's
// shapes (default, bookkeeping cache, Full Counters, 1/2/8 pods), windows
// default/32/unlimited and Shards 0/2/3/4, heap and mapped snapshots must
// each reproduce their serial replay. Where the serial run never gates
// (unlimited window) the run must actually have gone parallel on
// shardWorkers(shards, pods) workers; elsewhere it may have fallen back.
func TestPodParallelBitIdentical(t *testing.T) {
	const n = 20_000
	w, heap, mapped := paritySnapshots(t, n)
	for _, mc := range mechanisms {
		mc := mc
		t.Run(mc.name, func(t *testing.T) {
			var split bool
			run := func(shards int) (stats.Result, uint64) {
				b := newBackend()
				m := mc.build(t, b)
				defer mech.Release(m)
				_, split = m.(mech.PodSplitter)
				e := New(b, m)
				e.Shards = shards
				res, err := e.Run(w.Name, heap.DecodedStream(&b.Geom))
				if err != nil {
					t.Fatal(err)
				}
				return res, e.ParallelBlocks()
			}
			ref, _ := run(1)
			res, blocks := run(4)
			diffResults(t, "Shards=4 vs Shards=1", res, ref)
			want := uint64(0)
			if split {
				want = 4
			}
			if blocks != want {
				t.Errorf("Shards=4: ran on %d workers, want %d", blocks, want)
			}
		})
	}

	snaps := []struct {
		name string
		snap *trace.Snapshot
	}{{"heap", heap}, {"mapped", mapped}}
	for _, pc := range podCases() {
		for _, window := range []int{0, 32, -1} {
			var refs [2]stats.Result
			for i, src := range snaps {
				ref, blocks, err := runPodCase(t, pc, nil, src.snap, window, 1)
				if err != nil {
					t.Fatal(err)
				}
				if ref.Requests != n || blocks != 0 {
					t.Fatalf("%s: serial reference replayed %d requests on %d workers", pc.name, ref.Requests, blocks)
				}
				refs[i] = ref
			}
			for _, shards := range []int{0, 2, 3, 4} {
				pc, window, shards := pc, window, shards
				t.Run(fmt.Sprintf("%s/window=%d/shards=%d", pc.name, window, shards), func(t *testing.T) {
					want := uint64(shardWorkers(shards, pc.layout.NumPods))
					if want == 1 {
						want = 0
					}
					for i, src := range snaps {
						res, blocks, err := runPodCase(t, pc, nil, src.snap, window, shards)
						if err != nil {
							t.Fatal(err)
						}
						diffResults(t, fmt.Sprintf("%s: %d workers vs Shards=1", src.name, blocks), res, refs[i])
						if (window < 0 || blocks != 0) && blocks != want {
							t.Errorf("%s: ran on %d workers, want %d", src.name, blocks, want)
						}
					}
				})
			}
		}
	}
}

// TestPodParallelMix5NeverGates pins the premise of the pod-parallel
// speed-up: at the default window, default MemPod on mix5 never holds a
// request back, so the attempt completes instead of falling back.
func TestPodParallelMix5NeverGates(t *testing.T) {
	_, heap, _ := paritySnapshots(t, 20_000)
	pc := podCases()[0]
	if _, blocks, err := runPodCase(t, pc, nil, heap, 0, 2); err != nil || blocks != 2 {
		t.Fatalf("default window ran on %d workers (err %v), want 2", blocks, err)
	}
}

// TestPodParallelFallbackOnGate uses a window small enough that the serial
// run gates issue: every worker count must fall back to the serial replay
// and reproduce it exactly.
func TestPodParallelFallbackOnGate(t *testing.T) {
	const n = 20_000
	_, heap, _ := paritySnapshots(t, n)
	pc := podCases()[0]
	const window = 2
	ref, _, err := runPodCase(t, pc, nil, heap, window, 1)
	if err != nil {
		t.Fatal(err)
	}
	unlimited, _, err := runPodCase(t, pc, nil, heap, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ref.TotalStall == unlimited.TotalStall {
		t.Fatalf("window %d does not gate: stall %v equals the unlimited run's", window, ref.TotalStall)
	}
	for _, shards := range []int{0, 2, 4} {
		res, blocks, err := runPodCase(t, pc, nil, heap, window, shards)
		if err != nil {
			t.Fatal(err)
		}
		if blocks != 0 {
			t.Errorf("Shards=%d: gated run reports %d workers, want a fallback (0)", shards, blocks)
		}
		diffResults(t, fmt.Sprintf("Shards=%d fallback vs Shards=1", shards), res, ref)
	}
}

// poisoned names the one request failingMemPod rejects: its trace time
// and plane entry.
type poisoned struct {
	time clock.Time
	dec  trace.Decoded
}

// failingMemPod is MemPod with one request poisoned: its Access, in the
// serial run or in any pod-parallel view, returns a completion equal to
// its issue time, which the engine rejects.
type failingMemPod struct {
	*core.MemPod
	bad        poisoned
	viewAccess *atomic.Int64
}

func (f failingMemPod) Access(d *trace.Decoded, arrival, at clock.Time, touched bool) clock.Time {
	if (poisoned{arrival, *d}) == f.bad {
		return at
	}
	return f.MemPod.Access(d, arrival, at, touched)
}

func (f failingMemPod) SplitPods(owner []int) []mech.PodView {
	views := f.MemPod.SplitPods(owner)
	for i, v := range views {
		views[i] = failingView{v, f.bad, f.viewAccess}
	}
	return views
}

func (f failingMemPod) JoinPods(views []mech.PodView) {
	inner := make([]mech.PodView, len(views))
	for i, v := range views {
		inner[i] = v.(failingView).PodView
	}
	f.MemPod.JoinPods(inner)
}

type failingView struct {
	mech.PodView
	bad        poisoned
	viewAccess *atomic.Int64
}

func (v failingView) Access(d *trace.Decoded, arrival, at clock.Time, touched bool) clock.Time {
	v.viewAccess.Add(1)
	if (poisoned{arrival, *d}) == v.bad {
		return at
	}
	return v.PodView.Access(d, arrival, at, touched)
}

// TestPodParallelMechanismError poisons one mid-trace request: the
// pod-parallel attempt must run, fail, fall back and return exactly the
// serial run's partial Result and error text.
func TestPodParallelMechanismError(t *testing.T) {
	const n = 20_000
	w, heap, _ := paritySnapshots(t, n)
	reqs := trace.Collect(w.MustStream(n, 11))
	pc := podCases()[0]
	g := pc.layout.Geom()
	at := func(i int) poisoned { return poisoned{reqs[i].Time, trace.Decode(&reqs[i], &g)} }
	bad := at(12_345)
	for i := range reqs[:12_345] {
		if at(i) == bad {
			t.Fatalf("poisoned request repeats at %d", i)
		}
	}
	var viewAccess atomic.Int64
	wrap := func(m *core.MemPod) mech.Mechanism { return failingMemPod{m, bad, &viewAccess} }
	ref, _, refErr := runPodCase(t, pc, wrap, heap, 0, 1)
	if refErr == nil {
		t.Fatal("serial run accepted the poisoned completion")
	}
	if viewAccess.Load() != 0 {
		t.Fatal("serial run went through pod-parallel views")
	}
	for _, shards := range []int{2, 4} {
		viewAccess.Store(0)
		res, blocks, err := runPodCase(t, pc, wrap, heap, 0, shards)
		if err == nil || err.Error() != refErr.Error() {
			t.Errorf("Shards=%d: error %v, want %v", shards, err, refErr)
		}
		if blocks != 0 || viewAccess.Load() == 0 {
			t.Errorf("Shards=%d: %d workers, %d view accesses; want a parallel attempt that fell back",
				shards, blocks, viewAccess.Load())
		}
		diffResults(t, fmt.Sprintf("Shards=%d partial result vs Shards=1", shards), res, ref)
	}
}

// TestPodParallelAllocsBounded bounds the pod-parallel path's allocations
// per Run (views, worker goroutines and, on an engine's first parallel
// run, the workers' rings and batch buffers) and checks that the count
// does not grow with the trace: a 4× longer trace allocates the same.
func TestPodParallelAllocsBounded(t *testing.T) {
	w, err := workload.Mix(5)
	if err != nil {
		t.Fatal(err)
	}
	pc := podCases()[0]
	allocs := func(n int) uint64 {
		snap := trace.Record(w.MustStream(n, 11), n)
		defer snap.Release()
		b := mech.NewBackend(memsys.MustNew(pc.layout, dram.HBM(), dram.DDR4_1600()))
		m := mustBuild(t, core.New, pc.cfg, b)
		defer m.Release()
		e := New(b, m)
		e.Shards = 2
		// Warm the pooled tables' journals, then rewind the mechanism
		// and memory system so the measured Run may split again.
		s := snap.DecodedStream(&b.Geom)
		if _, err := e.Run(w.Name, s); err != nil {
			t.Fatal(err)
		}
		m.ResetPods()
		b.Sys.Reset()
		s.Reset()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := e.Run(w.Name, s)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if e.ParallelBlocks() != 2 {
			t.Fatalf("run went on %d workers, want 2", e.ParallelBlocks())
		}
		return after.Mallocs - before.Mallocs
	}
	short, long := allocs(20_000), allocs(80_000)
	t.Logf("allocations per pod-parallel Run: %d (20k requests), %d (80k requests)", short, long)
	const bound = 64
	if short > bound || long > bound {
		t.Errorf("pod-parallel Run allocates %d / %d objects, want at most %d", short, long, bound)
	}
}

// TestAssignPodsBalancesLoad feeds assignPods planes with known per-pod
// request counts: heavy pods must spread over workers (mix5's counts pair
// pods 0+3 and 1+2 rather than 0+2 and 1+3), and every worker must own a
// pod even when the sample sees no requests at all.
func TestAssignPodsBalancesLoad(t *testing.T) {
	plane := func(counts ...int) []trace.Decoded {
		var dec []trace.Decoded
		for p, c := range counts {
			for i := 0; i < c*podSample; i++ {
				dec = append(dec, trace.Decoded{Pod: uint16(p)})
			}
		}
		return dec
	}
	for _, tc := range []struct {
		name  string
		plane []trace.Decoded
		pods  int
		n     int
		want  []int
	}{
		{"mix5 shares", plane(153, 122, 184, 142), 4, 2, []int{1, 0, 0, 1}},
		{"no samples", nil, 4, 4, []int{0, 1, 2, 3}},
		{"one hot pod", plane(0, 50, 0, 0), 4, 3, []int{1, 0, 2, 1}},
	} {
		if got := assignPods(tc.plane, tc.pods, tc.n); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: assignPods = %v, want %v", tc.name, got, tc.want)
		}
	}
}
