package exp

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/workload"
)

// TestMatrixParallelDeterminism is the safety argument for the parallel
// runner: the same seed must yield bit-identical results whether cells run
// serially or on eight workers, because every cell builds its own
// simulator state and results are assembled in a fixed order.
func TestMatrixParallelDeterminism(t *testing.T) {
	c := tinyConfig()
	c.Requests = 30_000
	builders := c.baselineBuilders(dram.HBM(), dram.DDR4_1600())[:3] // TLM, MemPod, HMA

	serial := c
	serial.Parallelism = 1
	want, err := serial.matrix(builders)
	if err != nil {
		t.Fatal(err)
	}

	par := c
	par.Parallelism = 8
	got, err := par.matrix(builders)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(want, got) {
		t.Fatalf("parallel matrix differs from serial:\nserial: %+v\nparallel: %+v", want, got)
	}
}

// TestMatrixPartialResultsOnCellFailure pins the no-first-error-abort
// contract: a workload that fails under every builder must not discard the
// cells that completed, and the joined error must name every failed cell.
func TestMatrixPartialResultsOnCellFailure(t *testing.T) {
	c := tinyConfig()
	c.Requests = 20_000
	c.Parallelism = 4
	good := c.Workloads[0]
	broken := workload.Workload{Name: "broken"} // empty benchmark names fail in Stream
	c.Workloads = []workload.Workload{good, broken}

	builders := c.baselineBuilders(dram.HBM(), dram.DDR4_1600())[:2] // TLM, MemPod
	res, err := c.matrix(builders)
	if err == nil {
		t.Fatal("matrix succeeded despite a broken workload")
	}
	for _, b := range builders {
		if _, ok := res[b.name][good.Name]; !ok {
			t.Errorf("%s/%s: completed cell discarded", b.name, good.Name)
		}
		if _, ok := res[b.name]["broken"]; ok {
			t.Errorf("%s/broken: failed cell present in results", b.name)
		}
		if !strings.Contains(err.Error(), b.name+"/broken") {
			t.Errorf("joined error does not name cell %s/broken: %v", b.name, err)
		}
	}
}

// TestMatrixJoinsIndependentErrors checks errors.Join semantics end to
// end: two distinct cell failures both survive into the aggregate.
func TestMatrixJoinsIndependentErrors(t *testing.T) {
	c := tinyConfig()
	c.Requests = 10_000
	c.Parallelism = 2
	c.Workloads = []workload.Workload{
		{Name: "brokenA"},
		{Name: "brokenB"},
	}
	builders := []builder{{"TLM", Cell{nil, stdLayout(), dram.HBM(), dram.DDR4_1600()}}}
	res, err := c.matrix(builders)
	if err == nil {
		t.Fatal("matrix succeeded with only broken workloads")
	}
	var joined interface{ Unwrap() []error }
	if !errors.As(err, &joined) {
		t.Fatalf("error is not a join: %T %v", err, err)
	}
	if n := len(joined.Unwrap()); n != 2 {
		t.Errorf("joined %d errors, want 2: %v", n, err)
	}
	if len(res["TLM"]) != 0 {
		t.Errorf("unexpected successful cells: %v", res["TLM"])
	}
}

// TestOracleStudyParallelDeterminism extends the determinism guarantee to
// the §3 offline study, which fans out per workload.
func TestOracleStudyParallelDeterminism(t *testing.T) {
	c := tinyConfig()
	c.Requests = 60_000

	serial := c
	serial.Parallelism = 1
	want, err := serial.OracleStudy()
	if err != nil {
		t.Fatal(err)
	}
	par := c
	par.Parallelism = 8
	got, err := par.OracleStudy()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("parallel oracle study differs from serial")
	}
}

// TestMatrixProgressCoversEveryCell checks the progress callback is wired
// through Config: one serialized call per cell, ending at the total.
func TestMatrixProgressCoversEveryCell(t *testing.T) {
	c := tinyConfig()
	c.Requests = 10_000
	c.Parallelism = 4
	var calls []int
	var total int
	c.Progress = func(done, tot int) {
		calls = append(calls, done) // serialized by the runner
		total = tot
	}
	builders := c.baselineBuilders(dram.HBM(), dram.DDR4_1600())[:1] // TLM only
	if _, err := c.matrix(builders); err != nil {
		t.Fatal(err)
	}
	wantTotal := len(c.Workloads)
	if total != wantTotal || len(calls) != wantTotal {
		t.Fatalf("progress: %d calls, total %d; want %d", len(calls), total, wantTotal)
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress not monotonic: %v", calls)
		}
	}
}
