// Distributed mode: -serve shards the selected experiments' cell plan
// across -join workers, then renders every table locally from the merged
// results — byte-identical stdout to a serial run.
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/distrib"
	"repro/internal/exp"
	"repro/internal/resultcache"
)

// coordinate serves the selection's cells to workers, waits for every
// cell (or SIGTERM, checkpointing either way), merges the returned cells
// into results and renders the tables from them in selection order.
func coordinate(sel []experiment, results *resultcache.Cache, o *options) error {
	jobs := make([]exp.Job, len(sel))
	for i, e := range sel {
		jobs[i] = exp.Job{Experiment: e.id, Params: e.cfg.Params()}
	}
	co, err := distrib.New(distrib.Config{
		Jobs: jobs, LeaseTTL: o.leaseTTL, MaxBatch: o.leaseBatch,
		CheckpointPath: o.ckptPath, CheckpointEvery: o.ckptEvery,
		Results: results,
		Logf:    logf,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", o.serve)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: distrib.Handler(co)}
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "experiments: coordinating %d cells on %s\n", co.Plan().Len(), ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if !o.noLocal {
		w := &distrib.Worker{
			Name:        "local",
			Transport:   distrib.Loopback{Co: co},
			Batch:       o.leaseBatch,
			Parallelism: o.parallel,
			Results:     results,
		}
		go w.Run(ctx)
	}

	// Periodic progress with per-worker throughput, mirroring /statusz.
	progress := time.NewTicker(5 * time.Second)
	defer progress.Stop()
	go func() {
		last := -1
		for range progress.C {
			if s := co.Status(); s.Done != last {
				last = s.Done
				fmt.Fprintln(os.Stderr, s.ProgressLine())
			}
		}
	}()

	if err := co.Wait(ctx); err != nil {
		return fmt.Errorf("interrupted (%v); checkpoint %s holds %d done cells",
			err, o.ckptPath, co.Status().Done)
	}
	fmt.Fprintln(os.Stderr, co.Status().ProgressLine())
	co.MergeInto(results)
	return render(sel, results, o)
}

// join serves whatever coordinator is at -join until its run is done. The
// local experiment-selection flags are ignored: the plan comes from the
// coordinator's spec.
func join(o *options) error {
	results, err := openResults(o.cacheDir)
	if err != nil {
		return err
	}
	name := o.workerName
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w := &distrib.Worker{
		Name:        name,
		Transport:   distrib.Dial(o.join),
		Batch:       o.leaseBatch,
		Parallelism: o.parallel,
		Results:     results,
		Logf:        logf,
	}
	return w.Run(ctx)
}

// logf writes one distrib log line to stderr.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
