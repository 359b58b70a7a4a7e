package distrib

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/resultcache"
)

// sweepConfig is the tiny sweep the distrib tests shard: one workload over
// the Fig6 grid (30 cells), short traces.
func sweepConfig() exp.Config {
	c := exp.QuickConfig().WithWorkloads("cactus")
	c.Requests = 2_000
	return c
}

func sweepJobs() []exp.Job {
	return []exp.Job{{Experiment: "fig6", Params: sweepConfig().Params()}}
}

// smallJobs is an even smaller plan (4 cells) for protocol-level tests
// that complete cells by hand.
func smallJobs() []exp.Job {
	return []exp.Job{{Experiment: "ablation-pods", Params: sweepConfig().Params()}}
}

// serialOnce renders the reference sweep exactly once per test binary.
var serialOnce = sync.OnceValues(func() (string, error) {
	cfg := sweepConfig()
	cfg.Results = resultcache.New()
	t, err := cfg.Experiment("fig6")
	if err != nil {
		return "", err
	}
	return t.String(), nil
})

func serialTable(t *testing.T) string {
	t.Helper()
	s, err := serialOnce()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// renderMerged renders the sweep from a coordinator's merged results and
// fails the test if any cell had to be recomputed (the merge must cover
// the full plan).
func renderMerged(t *testing.T, co *Coordinator) string {
	t.Helper()
	cfg := sweepConfig()
	cfg.Results = resultcache.New()
	if n := co.MergeInto(cfg.Results); n != co.Plan().Len() {
		t.Fatalf("merged %d cells, plan has %d", n, co.Plan().Len())
	}
	tab, err := cfg.Experiment("fig6")
	if err != nil {
		t.Fatal(err)
	}
	if m := cfg.Results.Stats().Misses; m != 0 {
		t.Fatalf("render recomputed %d cells; merge was incomplete", m)
	}
	return tab.String()
}

// runCells computes a granted batch directly (bypassing Worker) so
// protocol tests can hand-craft Complete calls.
func runCells(t testing.TB, co *Coordinator, grant LeaseResponse, cache *resultcache.Cache) []CellResult {
	t.Helper()
	runs := co.Plan().RunCells(grant.Indices, exp.RunCellsOptions{Results: cache})
	cells := make([]CellResult, len(runs))
	for i, r := range runs {
		if r.Err != nil {
			t.Fatalf("cell %d: %v", grant.Indices[i], r.Err)
		}
		cells[i] = CellResult{Index: grant.Indices[i], Frame: r.Frame}
	}
	return cells
}

// TestDistribParallelWorkersBitIdentical is the core property: several
// concurrent workers, each with its own cache, produce tables
// byte-identical to a serial run.
func TestDistribParallelWorkersBitIdentical(t *testing.T) {
	co, err := New(Config{Jobs: sweepJobs(), LeaseTTL: 5 * time.Second, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &Worker{
				Name:      fmt.Sprintf("w%d", i),
				Transport: Loopback{Co: co},
				Batch:     3,
				Results:   resultcache.New(),
			}
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	if err := co.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := renderMerged(t, co), serialTable(t); got != want {
		t.Fatalf("distributed table differs from serial:\n--- distributed\n%s\n--- serial\n%s", got, want)
	}
	s := co.Status()
	if s.Done != s.Total || s.Failed != 0 {
		t.Fatalf("status after completion: %+v", s)
	}
	if len(s.Workers) != 3 {
		t.Fatalf("status tracked %d workers, want 3", len(s.Workers))
	}
}

// TestDistribWorkerChurnParallel is the churn property test: workers are
// killed and restarted on random schedules (short deadlines, tiny
// batches, aggressive lease expiry) until the sweep completes; the merged
// tables must still match a serial run byte for byte.
func TestDistribWorkerChurnParallel(t *testing.T) {
	serial := serialTable(t)
	for round := int64(0); round < 3; round++ {
		round := round
		t.Run(fmt.Sprintf("seed=%d", round), func(t *testing.T) {
			co, err := New(Config{Jobs: sweepJobs(), LeaseTTL: 40 * time.Millisecond, MaxBatch: 4})
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var churners sync.WaitGroup
			for c := int64(0); c < 3; c++ {
				c := c
				churners.Add(1)
				go func() {
					defer churners.Done()
					rng := rand.New(rand.NewSource(round*100 + c))
					for gen := 0; ; gen++ {
						select {
						case <-stop:
							return
						default:
						}
						// Each generation is a worker that lives 5–65ms —
						// usually not long enough to finish a batch — then
						// dies mid-protocol and is replaced.
						ttl := time.Duration(5+rng.Intn(60)) * time.Millisecond
						ctx, cancel := context.WithTimeout(context.Background(), ttl)
						w := &Worker{
							Name:       fmt.Sprintf("churn%d.%d", c, gen),
							Transport:  Loopback{Co: co},
							Batch:      1 + rng.Intn(4),
							RetryDelay: 2 * time.Millisecond,
							Results:    resultcache.New(),
						}
						w.Run(ctx)
						cancel()
					}
				}()
			}
			select {
			case <-co.Done():
			case <-time.After(120 * time.Second):
				t.Fatalf("churned sweep never finished: %+v", co.Status())
			}
			close(stop)
			churners.Wait()
			if got := renderMerged(t, co); got != serial {
				t.Fatalf("round %d: churned table differs from serial:\n%s", round, got)
			}
		})
	}
}

// TestLeaseExpiryRequeues drives the lease lifecycle on an injected
// clock: an unrenewed lease's cells re-queue after the TTL, a renewed
// lease's do not, and results from an expired lease are still accepted.
func TestLeaseExpiryRequeues(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	co, err := New(Config{
		Jobs:     smallJobs(),
		LeaseTTL: time.Second,
		Now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	total := co.Plan().Len()
	g1 := co.Lease(LeaseRequest{Worker: "a", Max: total})
	if len(g1.Indices) != total {
		t.Fatalf("granted %d of %d cells", len(g1.Indices), total)
	}
	if g2 := co.Lease(LeaseRequest{Worker: "b", Max: total}); g2.LeaseID != "" || g2.Done {
		t.Fatalf("empty queue granted a lease: %+v", g2)
	}

	// Renewal holds the lease across one TTL...
	advance(700 * time.Millisecond)
	if r := co.Renew(RenewRequest{LeaseID: g1.LeaseID}); !r.OK {
		t.Fatal("live lease refused renewal")
	}
	advance(700 * time.Millisecond)
	if g := co.Lease(LeaseRequest{Worker: "b", Max: total}); g.LeaseID != "" {
		t.Fatal("renewed lease's cells re-granted")
	}

	// ...but an unrenewed TTL expires the lease and re-queues its cells.
	advance(1100 * time.Millisecond)
	g2 := co.Lease(LeaseRequest{Worker: "b", Max: total})
	if len(g2.Indices) != total {
		t.Fatalf("expired cells not re-granted: %+v", g2)
	}
	if r := co.Renew(RenewRequest{LeaseID: g1.LeaseID}); r.OK {
		t.Fatal("expired lease renewed")
	}
	if co.Status().Expired != 1 {
		t.Fatalf("expired count %d, want 1", co.Status().Expired)
	}

	// The dead worker's results arrive anyway: accepted, because the
	// cells are verified by content, not by lease liveness.
	cache := resultcache.New()
	resp := co.Complete(CompleteRequest{LeaseID: g1.LeaseID, Worker: "a", Cells: runCells(t, co, g1, cache)})
	if resp.Accepted != total || resp.Duplicates != 0 || !resp.Done {
		t.Fatalf("expired-lease complete: %+v", resp)
	}
	// The second worker finishes the same cells: all duplicates, still done.
	resp = co.Complete(CompleteRequest{LeaseID: g2.LeaseID, Worker: "b", Cells: runCells(t, co, g2, cache)})
	if resp.Accepted != 0 || resp.Duplicates != total || !resp.Done {
		t.Fatalf("duplicate complete: %+v", resp)
	}
}

// TestCompleteVerifiesFrames pins the acceptance rules: corrupt frames
// and frames keyed for a different cell are rejected and their cells
// re-queued; a worker-reported error permanently fails its cell.
func TestCompleteVerifiesFrames(t *testing.T) {
	co, err := New(Config{Jobs: smallJobs(), LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	total := co.Plan().Len()
	g := co.Lease(LeaseRequest{Worker: "a", Max: total})
	cache := resultcache.New()
	good := runCells(t, co, g, cache)

	corrupt := append([]byte(nil), good[0].Frame...)
	corrupt[len(corrupt)/2] ^= 0xff
	resp := co.Complete(CompleteRequest{LeaseID: g.LeaseID, Worker: "a", Cells: []CellResult{
		{Index: good[0].Index, Frame: corrupt},           // flipped bit: checksum fails
		{Index: good[1].Index, Frame: good[0].Frame},     // wrong cell's key
		{Index: good[2].Index, Error: "engine exploded"}, // worker-side failure
		{Index: good[3].Index, Frame: good[3].Frame},     // fine
	}})
	if resp.Accepted != 1 || resp.Rejected != 2 {
		t.Fatalf("verification outcome: %+v", resp)
	}
	s := co.Status()
	if s.Done != 1 || s.Failed != 1 || s.Pending != 2 {
		t.Fatalf("state after bad batch: %+v", s)
	}
	if msgs := co.FailedCells(); len(msgs) != 1 || msgs[good[2].Index] != "engine exploded" {
		t.Fatalf("failure record: %+v", msgs)
	}

	// The re-queued cells lease out again and complete cleanly; a fresh
	// success for the failed cell clears its failure.
	g2 := co.Lease(LeaseRequest{Worker: "b", Max: total})
	if len(g2.Indices) != 2 {
		t.Fatalf("re-granted %d cells, want 2", len(g2.Indices))
	}
	resp = co.Complete(CompleteRequest{LeaseID: g2.LeaseID, Worker: "b", Cells: runCells(t, co, g2, cache)})
	if resp.Accepted != 2 {
		t.Fatalf("retry complete: %+v", resp)
	}
	resp = co.Complete(CompleteRequest{Worker: "c", Cells: []CellResult{{Index: good[2].Index, Frame: good[2].Frame}}})
	if resp.Accepted != 1 || !resp.Done {
		t.Fatalf("failed-cell retry: %+v", resp)
	}
	if s := co.Status(); s.Failed != 0 || s.Done != total {
		t.Fatalf("final state: %+v", s)
	}
}

// TestCheckpointResume kills a coordinator after a partial sweep and
// verifies a new one over the same jobs resumes from the checkpoint
// instead of recomputing, ending in a byte-identical table.
func TestCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.mpc1")
	co1, err := New(Config{Jobs: sweepJobs(), LeaseTTL: time.Minute, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	cache := resultcache.New()
	g := co1.Lease(LeaseRequest{Worker: "a", Max: 10})
	co1.Complete(CompleteRequest{LeaseID: g.LeaseID, Worker: "a", Cells: runCells(t, co1, g, cache)})
	// Leave a live lease in the table so restore exercises it too.
	co1.Lease(LeaseRequest{Worker: "a", Max: 5})
	if err := co1.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	co2, err := New(Config{Jobs: sweepJobs(), LeaseTTL: time.Minute, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	s := co2.Status()
	if s.Done != 10 {
		t.Fatalf("restored %d done cells, want 10", s.Done)
	}
	if s.Leased != 5 || s.Leases != 1 {
		t.Fatalf("restored lease table: %+v", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	w := &Worker{Name: "finisher", Transport: Loopback{Co: co2}, Results: resultcache.New()}
	// The restored lease blocks its 5 cells until it expires; expire it
	// promptly so the finisher can take them.
	go func() {
		time.Sleep(50 * time.Millisecond)
		co2.Renew(RenewRequest{LeaseID: "expire-nothing"}) // no-op, keeps API warm
		co2.mu.Lock()
		for _, l := range co2.leases {
			l.deadline = time.Now().Add(-time.Second)
		}
		co2.mu.Unlock()
	}()
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if err := co2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if co2.Status().Done != co2.Plan().Len() {
		t.Fatalf("resumed sweep incomplete: %+v", co2.Status())
	}
	if got := renderMerged(t, co2); got != serialTable(t) {
		t.Fatalf("resumed table differs from serial:\n%s", got)
	}
}

// TestCheckpointNeverFails pins the restore stance: truncated files,
// garbage, and checkpoints from a different plan are all silently a
// fresh start — New never errors because of a checkpoint.
func TestCheckpointNeverFails(t *testing.T) {
	dir := t.TempDir()
	// A valid checkpoint to mutate.
	path := filepath.Join(dir, "good.mpc1")
	co, err := New(Config{Jobs: smallJobs(), LeaseTTL: time.Minute, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	g := co.Lease(LeaseRequest{Worker: "a", Max: 99})
	co.Complete(CompleteRequest{LeaseID: g.LeaseID, Worker: "a", Cells: runCells(t, co, g, resultcache.New())})
	if err := co.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"truncated": valid[:len(valid)/2],
		"garbage":   []byte("not a checkpoint at all"),
		"flipped":   func() []byte { b := append([]byte(nil), valid...); b[len(b)/3] ^= 1; return b }(),
		"empty":     {},
	}
	for name, b := range cases {
		name, b := name, b
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(dir, name+".mpc1")
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
			co, err := New(Config{Jobs: smallJobs(), CheckpointPath: p})
			if err != nil {
				t.Fatalf("checkpoint %s failed construction: %v", name, err)
			}
			if got := co.Status().Done; got != 0 {
				t.Fatalf("checkpoint %s restored %d cells, want 0", name, got)
			}
		})
	}

	// A checkpoint for different jobs (a different plan fingerprint) is
	// ignored even though the file itself is pristine.
	t.Run("wrong-plan", func(t *testing.T) {
		co, err := New(Config{Jobs: sweepJobs(), CheckpointPath: path})
		if err != nil {
			t.Fatal(err)
		}
		if got := co.Status().Done; got != 0 {
			t.Fatalf("foreign checkpoint restored %d cells, want 0", got)
		}
	})

	// The pristine one restores fully.
	t.Run("valid", func(t *testing.T) {
		co, err := New(Config{Jobs: smallJobs(), CheckpointPath: path})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := co.Status().Done, co.Plan().Len(); got != want {
			t.Fatalf("restored %d cells, want %d", got, want)
		}
	})
}

// TestAdoptCached pins warm-start: a coordinator whose Results cache
// already holds every cell is born done, and a worker sees Done on its
// first lease.
func TestAdoptCached(t *testing.T) {
	cache := resultcache.New()
	warm, err := New(Config{Jobs: smallJobs()})
	if err != nil {
		t.Fatal(err)
	}
	g := warm.Lease(LeaseRequest{Worker: "a", Max: 99})
	warm.Complete(CompleteRequest{LeaseID: g.LeaseID, Worker: "a", Cells: runCells(t, warm, g, cache)})
	warm.MergeInto(cache)

	co, err := New(Config{Jobs: smallJobs(), Results: cache})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := co.Status().Done, co.Plan().Len(); got != want {
		t.Fatalf("adopted %d cells, want %d", got, want)
	}
	if g := co.Lease(LeaseRequest{Worker: "b", Max: 1}); !g.Done {
		t.Fatalf("warm coordinator granted work: %+v", g)
	}
}

// TestHTTPTransport runs a worker against a coordinator over real HTTP
// and checks /statusz serves the coordinator's state as JSON.
func TestHTTPTransport(t *testing.T) {
	co, err := New(Config{Jobs: sweepJobs(), LeaseTTL: 5 * time.Second, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(co))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	w := &Worker{Name: "http-worker", Transport: Dial(srv.URL), Batch: 8, Results: resultcache.New()}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if err := co.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got := renderMerged(t, co); got != serialTable(t) {
		t.Fatalf("HTTP-transported table differs from serial:\n%s", got)
	}

	resp, err := http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s Status
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Total != co.Plan().Len() || s.Done != s.Total {
		t.Fatalf("statusz: %+v", s)
	}
	if _, ok := s.Workers["http-worker"]; !ok {
		t.Fatalf("statusz lost the worker: %+v", s.Workers)
	}
}

// tamperedSpec wraps a transport and corrupts the plan fingerprint.
type tamperedSpec struct{ Transport }

func (tr tamperedSpec) Spec(ctx context.Context) (SpecResponse, error) {
	resp, err := tr.Transport.Spec(ctx)
	resp.PlanFP++
	return resp, err
}

// TestWorkerRefusesPlanMismatch pins the version-skew guard: a worker
// whose locally built plan disagrees with the coordinator's fingerprint
// exits with ErrPlanMismatch instead of computing under wrong keys.
func TestWorkerRefusesPlanMismatch(t *testing.T) {
	co, err := New(Config{Jobs: smallJobs()})
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{Name: "skewed", Transport: tamperedSpec{Loopback{Co: co}}}
	err = w.Run(context.Background())
	if !errors.Is(err, ErrPlanMismatch) {
		t.Fatalf("skewed worker ran: %v", err)
	}
}

// BenchmarkDistribSweep measures a full 30-cell sweep end to end —
// leases, compute, verification, merge — at several worker counts on the
// loopback transport. Workers get fresh caches each iteration, so the
// benchmark measures real compute plus protocol overhead. The timer
// covers sweep completion (co.Wait) plus the merge; workers still
// sleeping out a retry when the last cell lands are released by context
// cancel outside the timed region, so the numbers reflect time-to-result,
// not the poll interval.
func BenchmarkDistribSweep(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				co, err := New(Config{Jobs: sweepJobs(), LeaseTTL: 10 * time.Second, MaxBatch: 4})
				if err != nil {
					b.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				var wg sync.WaitGroup
				for wi := 0; wi < workers; wi++ {
					wi := wi
					wg.Add(1)
					go func() {
						defer wg.Done()
						w := &Worker{
							Name:        fmt.Sprintf("b%d", wi),
							Transport:   Loopback{Co: co},
							Batch:       4,
							Parallelism: 1,
							Results:     resultcache.New(),
						}
						if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
							b.Error(err)
						}
					}()
				}
				if err := co.Wait(ctx); err != nil {
					b.Fatal(err)
				}
				merged := resultcache.New()
				if n := co.MergeInto(merged); n != co.Plan().Len() {
					b.Fatalf("merged %d of %d cells", n, co.Plan().Len())
				}
				b.StopTimer()
				cancel()
				wg.Wait()
				b.StartTimer()
			}
		})
	}
}
