package tracecache

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
	"repro/internal/trace"
)

// genReqs builds a small deterministic trace for cache tests.
func genReqs(n int, seed int64) []trace.Request {
	reqs := make([]trace.Request, n)
	t := clock.Time(seed)
	for i := range reqs {
		t += clock.Time(10 + i%7)
		reqs[i] = trace.Request{Addr: uint64(seed)<<20 | uint64(i), Time: t, Core: uint8(i % 8)}
	}
	return reqs
}

func snapGen(n int, seed int64, calls *atomic.Int32) func() (*trace.Snapshot, error) {
	return func() (*trace.Snapshot, error) {
		if calls != nil {
			calls.Add(1)
		}
		return trace.Record(trace.NewSliceStream(genReqs(n, seed)), n), nil
	}
}

// TestAcquireSingleFlight hammers one key from many goroutines: exactly
// one generation must happen, and every acquirer must see the same
// snapshot contents.
func TestAcquireSingleFlight(t *testing.T) {
	c := New()
	key := Key{Workload: "mix5", Requests: 256, Seed: 42}
	const users = 16
	var calls atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < users; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snap, release, err := c.Acquire(key, users, snapGen(256, 42, &calls))
			if err != nil {
				t.Error(err)
				return
			}
			defer release()
			if snap.Len() != 256 {
				t.Errorf("snapshot Len = %d", snap.Len())
			}
			// Replay a prefix to check the snapshot is usable concurrently.
			ss := snap.Stream()
			var r trace.Request
			for j := 0; j < 64; j++ {
				if !ss.Next(&r) {
					t.Error("short replay")
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("generator ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Live != 0 {
		t.Errorf("cache still holds %d snapshots after all releases", st.Live)
	}
	if st.Generated != 1 || st.Hits != users-1 {
		t.Errorf("stats %+v, want 1 generated / %d hits", st, users-1)
	}
}

// TestLastReleaseFrees pins the exact-lifetime contract: the entry stays
// resident until the declared number of uses has been released, then
// leaves immediately.
func TestLastReleaseFrees(t *testing.T) {
	c := New()
	key := Key{Workload: "cactus", Requests: 64, Seed: 1}
	_, rel1, err := c.Acquire(key, 3, snapGen(64, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	_, rel2, err := c.Acquire(key, 3, snapGen(64, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	_, rel3, err := c.Acquire(key, 3, snapGen(64, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	rel1()
	rel1() // idempotent: double release must not count twice
	rel2()
	if live := c.Stats().Live; live != 1 {
		t.Fatalf("entry freed early (live=%d) with one use outstanding", live)
	}
	rel3()
	if live := c.Stats().Live; live != 0 {
		t.Fatalf("entry still live (%d) after last release", live)
	}
}

// TestDistinctKeysDistinctSnapshots checks keys don't collide: different
// seeds yield different recorded contents.
func TestDistinctKeysDistinctSnapshots(t *testing.T) {
	c := New()
	s1, rel1, err := c.Acquire(Key{Workload: "w", Requests: 32, Seed: 1}, 1, snapGen(32, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	s2, rel2, err := c.Acquire(Key{Workload: "w", Requests: 32, Seed: 2}, 1, snapGen(32, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	var r1, r2 trace.Request
	ss1, ss2 := s1.Stream(), s2.Stream()
	ss1.Next(&r1)
	ss2.Next(&r2)
	if r1.Addr == r2.Addr {
		t.Error("distinct seeds replayed identical first requests")
	}
	if peak := c.Stats().Peak; peak != 2 {
		t.Errorf("peak %d, want 2", peak)
	}
	rel1()
	rel2()
}

// TestGenerationErrorPropagatesAndForgets checks the failure path: the
// error reaches the acquirer, nothing stays resident, and a retry re-runs
// the generator.
func TestGenerationErrorPropagatesAndForgets(t *testing.T) {
	c := New()
	key := Key{Workload: "broken", Requests: 8, Seed: 9}
	boom := errors.New("boom")
	_, _, err := c.Acquire(key, 2, func() (*trace.Snapshot, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if live := c.Stats().Live; live != 0 {
		t.Fatalf("failed entry still resident (%d)", live)
	}
	snap, release, err := c.Acquire(key, 2, snapGen(8, 9, nil))
	if err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if snap.Len() != 8 {
		t.Errorf("retry snapshot Len = %d", snap.Len())
	}
	release()
}

// TestAcquireContractViolations checks the misuse guards: zero uses,
// conflicting uses, and over-acquiring all error instead of corrupting
// the accounting.
func TestAcquireContractViolations(t *testing.T) {
	c := New()
	key := Key{Workload: "w", Requests: 16, Seed: 3}
	if _, _, err := c.Acquire(key, 0, snapGen(16, 3, nil)); err == nil {
		t.Error("uses=0 accepted")
	}
	_, rel, err := c.Acquire(key, 1, snapGen(16, 3, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Acquire(key, 2, snapGen(16, 3, nil)); err == nil {
		t.Error("conflicting uses accepted")
	}
	if _, _, err := c.Acquire(key, 1, snapGen(16, 3, nil)); err == nil {
		t.Error("acquire beyond declared uses accepted")
	}
	rel()
}

// TestCacheStressConcurrentClaimants hammers the cache with 100 goroutines
// across a handful of keys, all released from a start barrier at once so
// the single-flight path, the waiter path and the last-release eviction
// all race. The assertions are the cache's two contracts: exactly one
// generation per distinct key (Generated == unique keys, however the
// claimants interleaved), and exact lifetimes (Live == 0 once every
// declared use is released, residency never exceeding the distinct-key
// count). CI runs this under -race, which checks the snapshot handoff
// itself: every claimant replays its snapshot, so a buffer released back
// to the recording pool while still in use is a detected race.
func TestCacheStressConcurrentClaimants(t *testing.T) {
	const (
		keys         = 5
		usersPerKey  = 20
		totalUsers   = keys * usersPerKey
		reqsPerTrace = 64
	)
	c := New()
	var calls atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, totalUsers)
	for k := 0; k < keys; k++ {
		key := Key{Workload: "stress", Requests: reqsPerTrace, Seed: int64(k)}
		want := genReqs(reqsPerTrace, int64(k))
		for u := 0; u < usersPerKey; u++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				snap, release, err := c.Acquire(key, usersPerKey, snapGen(reqsPerTrace, key.Seed, &calls))
				if err != nil {
					errs <- err
					return
				}
				defer release()
				// Replay the whole snapshot so -race sees any use of a
				// buffer another goroutine's release recycled.
				var r trace.Request
				s, n := snap.Stream(), 0
				for s.Next(&r) {
					if r != want[n] {
						errs <- errors.New("snapshot contents diverged under contention")
						return
					}
					n++
				}
				if n != reqsPerTrace {
					errs <- errors.New("short replay under contention")
				}
			}()
		}
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	s := c.Stats()
	if int(calls.Load()) != keys || s.Generated != keys {
		t.Errorf("generated %d snapshots (stats say %d), want exactly %d (one per key)",
			calls.Load(), s.Generated, keys)
	}
	if s.Hits != totalUsers-keys {
		t.Errorf("hits = %d, want %d", s.Hits, totalUsers-keys)
	}
	if s.Live != 0 {
		t.Errorf("%d snapshots still resident after every use released", s.Live)
	}
	if s.Peak > keys {
		t.Errorf("peak residency %d exceeds the %d distinct keys", s.Peak, keys)
	}

	// The keys are gone, so a fresh batch over one of them regenerates:
	// eviction must not leave tombstones that serve recycled buffers.
	snap, release, err := c.Acquire(Key{Workload: "stress", Requests: reqsPerTrace, Seed: 0}, 1, snapGen(reqsPerTrace, 0, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len() != reqsPerTrace {
		t.Errorf("regenerated snapshot has %d requests, want %d", snap.Len(), reqsPerTrace)
	}
	release()
	if got := c.Stats(); got.Generated != keys+1 || got.Live != 0 {
		t.Errorf("after regeneration: %+v, want Generated %d, Live 0", got, keys+1)
	}
}
