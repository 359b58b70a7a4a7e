// Package runner executes batches of independent simulation cells on a
// bounded worker pool.
//
// The experiment matrices of internal/exp — every (mechanism × workload)
// cell of Figures 8–10, every (epoch × counters) design point of the §6.3.1
// sweeps — are embarrassingly parallel: each cell constructs its own
// memsys.System, mech.Backend and sim.Engine and shares nothing mutable
// with its neighbours. This package provides the one concurrency primitive
// the repository needs to exploit that: Run lets at most Parallelism
// workers, the calling goroutine among them, claim task indices from a
// shared cursor in submission order, writes each result into its
// submission-order slot, and aggregates every task error with errors.Join
// instead of aborting on the first failure.
//
// Determinism: a task's result depends only on its own Run closure, and
// results are keyed by submission index, never by completion order.
// Provided each task is self-contained (it must build all mutable state
// itself — see internal/exp.Cell.Run for the canonical example), the
// output of Run is bit-identical for any Parallelism, including 1, which
// runs every task on the caller's goroutine in submission order.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

// Task is one independent unit of work. Run must not share mutable state
// with any other task in the same batch; everything it mutates must be
// constructed inside the closure (or owned exclusively by it).
type Task[T any] struct {
	// Key labels the task in error messages, e.g. "MemPod/mix5".
	Key string
	// Labels, when non-empty, are pprof label key/value pairs (so the
	// length must be even) attached to the goroutine for the duration of
	// Run: a -cpuprofile of a sweep then attributes samples per cell
	// (`go tool pprof -tagfocus`). Empty means no profiler interaction.
	Labels []string
	// Run produces the task's result.
	Run func() (T, error)
}

// Result is the outcome of one task: its value, or the error (wrapped with
// the task Key) that produced a zero value.
type Result[T any] struct {
	Value T
	Err   error
}

// Options tunes a Run call.
type Options struct {
	// Parallelism bounds concurrent tasks. Zero or negative selects
	// runtime.GOMAXPROCS(0). One executes tasks serially, in order.
	Parallelism int
	// OnProgress, when non-nil, is invoked after each task finishes with
	// the number completed so far and the batch total. Invocations are
	// serialized; done is strictly increasing from 1 to total.
	OnProgress func(done, total int)
}

// Run executes every task and returns one Result per task, in submission
// order regardless of scheduling. Workers claim the next unclaimed index
// from an atomic cursor until none are left, so tasks start in submission
// order; the calling goroutine is one of the at most Parallelism workers,
// so Parallelism 1 starts no goroutine. Failures never abort the batch:
// every task is attempted, failed slots carry their error (and a zero
// Value), and the second return value joins all task errors via
// errors.Join (nil when everything succeeded). A panicking task is
// recovered into an error so one broken cell cannot take down a long sweep.
func Run[T any](tasks []Task[T], opts Options) ([]Result[T], error) {
	results := make([]Result[T], len(tasks))
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(tasks))

	var (
		next atomic.Int64 // the cursor: index of the next unclaimed task
		wg   sync.WaitGroup
		mu   sync.Mutex // serializes OnProgress and the done counter
		done int
	)
	work := func() {
		for i := int(next.Add(1) - 1); i < len(tasks); i = int(next.Add(1) - 1) {
			v, err := runOne(tasks[i])
			if err != nil && tasks[i].Key != "" {
				err = fmt.Errorf("%s: %w", tasks[i].Key, err)
			}
			results[i] = Result[T]{Value: v, Err: err}
			if opts.OnProgress != nil {
				mu.Lock()
				done++
				opts.OnProgress(done, len(tasks))
				mu.Unlock()
			}
		}
	}
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	errs := make([]error, 0, len(results))
	for i := range results {
		if results[i].Err != nil {
			errs = append(errs, results[i].Err)
		}
	}
	return results, errors.Join(errs...)
}

// runOne invokes a task, converting a panic into an error. Tasks carrying
// Labels run under pprof.Do so profile samples taken during Run carry them.
func runOne[T any](t Task[T]) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if len(t.Labels) > 0 {
		pprof.Do(context.Background(), pprof.Labels(t.Labels...), func(context.Context) {
			v, err = t.Run()
		})
		return v, err
	}
	return t.Run()
}

// Values unwraps a fully successful batch into its values. It is a
// convenience for callers that treat any cell failure as fatal.
func Values[T any](results []Result[T]) []T {
	out := make([]T, len(results))
	for i, r := range results {
		out[i] = r.Value
	}
	return out
}
