package main

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"time"

	mempod "repro"
)

// cellRequests is the length of the recorded mix5 snapshot cell-long
// replays and the layer ladder measures over.
const cellRequests = 6_000_000

// cellLong replays one long recorded mix5 snapshot under MemPod at default
// options: the only workflow where a single cell has spare cores, so the
// only one that runs the pod-parallel engine, mmap replay and the snapshot's
// .plane/.times sidecars. No runner, no result cache.
type cellLong struct {
	path     string
	rec      *mempod.Trace
	ref, tlm mempod.Result
}

func (c *cellLong) setupReps() int { return 3 }

// setup records the snapshot and saves it into a fresh directory.
func (c *cellLong) setup(e *env) error {
	if c.rec != nil {
		c.rec.Close()
		os.RemoveAll(filepath.Dir(c.path))
	}
	dir, err := e.dir("snap")
	if err != nil {
		return err
	}
	c.path = filepath.Join(dir, "mix5.mps")
	c.rec, err = mempod.RecordTrace("mix5", cellRequests, e.seed)
	if err != nil {
		return err
	}
	return writeFile(c.path, c.rec.Save)
}

// writeFile creates path and fills it through save, buffered.
func writeFile(path string, save func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := save(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// prepare computes the reference: a serial (PodShards 1) replay of the
// recorded trace, plus the TLM baseline the accuracy figure normalises by.
// One untimed pass then leaves the sidecars a repeated replay finds.
func (c *cellLong) prepare(e *env) error {
	var err error
	if c.ref, err = mempod.RunTrace(c.rec, mempod.Options{Mechanism: mempod.MechMemPod, PodShards: 1}); err != nil {
		return err
	}
	if c.tlm, err = mempod.RunTrace(c.rec, mempod.Options{Mechanism: mempod.MechTLM}); err != nil {
		return err
	}
	c.rec.Close()
	c.rec = nil
	_, err = c.pass(e, nil)
	return err
}

func (c *cellLong) pass(e *env, tr *tracer) (passResult, error) {
	start := time.Now()
	var t *mempod.Trace
	var err error
	tr.do("trace.open_mapped", -1, func() { t, err = mempod.OpenTrace(c.path) })
	if err != nil {
		return passResult{}, err
	}
	var res mempod.Result
	tr.do("mempod.run_trace", -1, func() { res, err = mempod.RunTrace(t, mempod.Options{Mechanism: mempod.MechMemPod}) })
	t.Close()
	wall := time.Since(start)
	e.attempted++
	switch {
	case err != nil:
		e.fail(1, "cell-long replay: %v", err)
	case !reflect.DeepEqual(res, c.ref):
		e.fail(1, "cell-long replay differs from the serial reference")
	}
	return passResult{
		wall:    wall,
		simReqs: cellRequests,
		fig8:    res.Normalized(c.tlm),
	}, nil
}

// nsPerReq converts a duration over the snapshot into nanoseconds per request.
func nsPerReq(d time.Duration) float64 { return float64(d.Nanoseconds()) / cellRequests }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
