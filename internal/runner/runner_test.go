package runner

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// square tasks: task i returns i*i, so result order is checkable.
func squares(n int) []Task[int] {
	tasks := make([]Task[int], n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = Task[int]{
			Key: fmt.Sprintf("sq%d", i),
			Run: func() (int, error) { return i * i, nil },
		}
	}
	return tasks
}

func TestRunPreservesSubmissionOrder(t *testing.T) {
	for _, par := range []int{0, 1, 2, 8, 100} {
		results, err := Run(squares(37), Options{Parallelism: par})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		for i, r := range results {
			if r.Err != nil || r.Value != i*i {
				t.Fatalf("par=%d: slot %d = (%d, %v), want %d", par, i, r.Value, r.Err, i*i)
			}
		}
	}
}

func TestRunSerialExecutesInOrder(t *testing.T) {
	var order []int
	tasks := make([]Task[int], 20)
	for i := range tasks {
		i := i
		tasks[i] = Task[int]{Run: func() (int, error) {
			order = append(order, i) // safe: Parallelism 1 means one worker
			return i, nil
		}}
	}
	if _, err := Run(tasks, Options{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("serial execution out of order: %v", order)
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const par = 3
	var inFlight, peak atomic.Int32
	tasks := make([]Task[struct{}], 50)
	for i := range tasks {
		tasks[i] = Task[struct{}]{Run: func() (struct{}, error) {
			n := inFlight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			inFlight.Add(-1)
			return struct{}{}, nil
		}}
	}
	if _, err := Run(tasks, Options{Parallelism: par}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > par {
		t.Fatalf("observed %d concurrent tasks, limit %d", p, par)
	}
}

func TestRunJoinsAllErrorsAndKeepsSuccesses(t *testing.T) {
	errA := errors.New("boom-a")
	errB := errors.New("boom-b")
	tasks := []Task[string]{
		{Key: "ok1", Run: func() (string, error) { return "one", nil }},
		{Key: "bad-a", Run: func() (string, error) { return "", errA }},
		{Key: "ok2", Run: func() (string, error) { return "two", nil }},
		{Key: "bad-b", Run: func() (string, error) { return "", errB }},
	}
	results, err := Run(tasks, Options{Parallelism: 2})
	if err == nil {
		t.Fatal("no joined error")
	}
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("joined error lost a cause: %v", err)
	}
	for _, key := range []string{"bad-a", "bad-b"} {
		if !strings.Contains(err.Error(), key) {
			t.Errorf("joined error missing task key %q: %v", key, err)
		}
	}
	if results[0].Value != "one" || results[2].Value != "two" {
		t.Errorf("successful results lost: %+v", results)
	}
	if results[1].Err == nil || results[3].Err == nil {
		t.Errorf("per-task errors not recorded: %+v", results)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	tasks := []Task[int]{
		{Key: "fine", Run: func() (int, error) { return 7, nil }},
		{Key: "explodes", Run: func() (int, error) { panic("kaboom") }},
	}
	results, err := Run(tasks, Options{Parallelism: 2})
	if err == nil || !strings.Contains(err.Error(), "kaboom") ||
		!strings.Contains(err.Error(), "explodes") {
		t.Fatalf("panic not converted to a keyed error: %v", err)
	}
	if results[0].Value != 7 {
		t.Errorf("healthy task result lost: %+v", results[0])
	}
}

func TestRunProgressIsMonotonic(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	total := -1
	_, err := Run(squares(23), Options{
		Parallelism: 4,
		OnProgress: func(done, tot int) {
			mu.Lock()
			seen = append(seen, done)
			total = tot
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 23 || len(seen) != 23 {
		t.Fatalf("progress called %d times, total %d; want 23", len(seen), total)
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress not strictly increasing: %v", seen)
		}
	}
}

func TestRunEmptyBatch(t *testing.T) {
	results, err := Run[int](nil, Options{})
	if err != nil || len(results) != 0 {
		t.Fatalf("empty batch: %v, %v", results, err)
	}
}

func TestValues(t *testing.T) {
	results, err := Run(squares(4), Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	vs := Values(results)
	if len(vs) != 4 || vs[3] != 9 {
		t.Fatalf("Values = %v", vs)
	}
}

// TestTaskLabelsApplied asserts a labeled task runs under its pprof labels
// (and an unlabeled one does not). The goroutine profile at debug=1 prints
// every goroutine's label set, including the running task's own record, so
// the task can observe its labels deterministically — no CPU profile needed.
func TestTaskLabelsApplied(t *testing.T) {
	grab := func() (string, error) {
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			return "", err
		}
		return buf.String(), nil
	}
	tasks := []Task[string]{
		{Key: "labeled", Labels: []string{"mechanism", "MemPod", "workload", "mix3"}, Run: grab},
		{Key: "plain", Run: grab},
	}
	results, err := Run(tasks, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"mechanism":"MemPod"`, `"workload":"mix3"`} {
		if !strings.Contains(results[0].Value, want) {
			t.Errorf("labeled task's goroutine profile lacks %s", want)
		}
	}
	if strings.Contains(results[1].Value, `"mechanism":"MemPod"`) {
		t.Error("unlabeled task ran under a previous task's labels")
	}
}

// TestTaskLabelsPropagateErrors asserts the pprof.Do wrapper is transparent
// to results, errors and panics.
func TestTaskLabelsPropagateErrors(t *testing.T) {
	boom := errors.New("boom")
	tasks := []Task[int]{
		{Key: "v", Labels: []string{"k", "v"}, Run: func() (int, error) { return 42, nil }},
		{Key: "e", Labels: []string{"k", "v"}, Run: func() (int, error) { return 0, boom }},
		{Key: "p", Labels: []string{"k", "v"}, Run: func() (int, error) { panic("kaboom") }},
	}
	results, err := Run(tasks, Options{Parallelism: 1})
	if err == nil {
		t.Fatal("joined error missing")
	}
	if results[0].Err != nil || results[0].Value != 42 {
		t.Errorf("labeled success: got (%d, %v)", results[0].Value, results[0].Err)
	}
	if !errors.Is(results[1].Err, boom) {
		t.Errorf("labeled error lost: %v", results[1].Err)
	}
	if results[2].Err == nil || !strings.Contains(results[2].Err.Error(), "kaboom") {
		t.Errorf("labeled panic not recovered: %v", results[2].Err)
	}
}

// TestRunParallelClaimsEachTaskOnce asserts the claim cursor hands every
// index to exactly one worker, at worker counts below, at and far above
// the core count, and that results still land in submission order.
func TestRunParallelClaimsEachTaskOnce(t *testing.T) {
	const n = 1000
	for _, par := range []int{1, 2, 3, 64} {
		runs := make([]atomic.Int32, n)
		tasks := make([]Task[int], n)
		for i := range tasks {
			i := i
			tasks[i] = Task[int]{Run: func() (int, error) {
				runs[i].Add(1)
				return i, nil
			}}
		}
		results, err := Run(tasks, Options{Parallelism: par})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		for i := range runs {
			if c := runs[i].Load(); c != 1 {
				t.Fatalf("par=%d: task %d ran %d times", par, i, c)
			}
			if results[i].Value != i {
				t.Fatalf("par=%d: slot %d holds task %d's result", par, i, results[i].Value)
			}
		}
	}
}

// TestRunSerialRunsOnCaller asserts Parallelism 1 runs every task on the
// calling goroutine: no goroutine exists during a task that did not exist
// before Run.
func TestRunSerialRunsOnCaller(t *testing.T) {
	// Let goroutines that earlier tests' batches left exiting finish, so
	// the count below is steady.
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Millisecond)
		n := runtime.NumGoroutine()
		if n == before {
			break
		}
		before = n
	}
	tasks := make([]Task[int], 8)
	for i := range tasks {
		tasks[i] = Task[int]{Run: func() (int, error) { return runtime.NumGoroutine(), nil }}
	}
	results, err := Run(tasks, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Value != before {
			t.Fatalf("task %d saw %d goroutines, %d before Run", i, r.Value, before)
		}
	}
}

// BenchmarkRunTinyTasks times the runner's own per-task cost: 512 tasks
// of about 1 µs of arithmetic each, the scale of a warm serve-pass task
// (one store file read and decoded), serially and on two workers.
//
//	go test ./internal/runner -bench RunTinyTasks -run '^$' -cpu 2
func BenchmarkRunTinyTasks(b *testing.B) {
	const n = 512
	tasks := make([]Task[uint64], n)
	for i := range tasks {
		seed := uint64(i)
		tasks[i] = Task[uint64]{Run: func() (uint64, error) {
			x := seed
			for k := 0; k < 700; k++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
			return x, nil
		}}
	}
	for _, j := range []int{1, 2} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(tasks, Options{Parallelism: j}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*b.N), "ns/task")
		})
	}
}
