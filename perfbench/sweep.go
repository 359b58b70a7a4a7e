package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/distrib"
	"repro/internal/exp"
	"repro/internal/report"
	"repro/internal/resultcache"
)

// sweepDistrib runs a quick-scale sweep through a distrib coordinator and
// two workers inside this process, talking HTTP over 127.0.0.1, each worker
// with its own result cache. The tables are rendered from the coordinator's
// merged cache and must match a serial render.
type sweepDistrib struct {
	ids  []string
	cfgs map[string]exp.Config
	jobs []exp.Job
	plan *exp.Plan
	want map[string]string // each table as a serial run renders it
}

// newSweepDistrib sweeps Fig6 and Fig7 over the sweep workload subset, plus
// Fig8 over the same subset so the run has an accuracy figure.
func newSweepDistrib() *sweepDistrib {
	return &sweepDistrib{ids: []string{"fig6", "fig7", "fig8"}}
}

func (s *sweepDistrib) setupReps() int { return 5 }

// setup builds the plan the coordinator hands out and workers rebuild.
func (s *sweepDistrib) setup(e *env) error {
	s.cfgs = make(map[string]exp.Config, len(s.ids))
	s.jobs = nil
	for _, id := range s.ids {
		cfg := quickConfig(id, e.seed).WithWorkloads(exp.SweepWorkloadNames...)
		s.cfgs[id] = cfg
		s.jobs = append(s.jobs, exp.Job{Experiment: id, Params: cfg.Params()})
	}
	var err error
	start := time.Now()
	s.plan, err = exp.BuildPlan(s.jobs)
	e.set("exp.build_plan_ms", ms(time.Since(start)))
	return err
}

// prepare renders the reference tables serially.
func (s *sweepDistrib) prepare(e *env) error {
	s.want = make(map[string]string, len(s.ids))
	rc := resultcache.New()
	for _, id := range s.ids {
		cfg := s.cfgs[id]
		cfg.Results = rc
		t, err := cfg.Experiment(id)
		if err != nil {
			return err
		}
		s.want[id] = t.String()
	}
	return nil
}

func (s *sweepDistrib) pass(e *env, tr *tracer) (passResult, error) {
	co, err := distrib.New(distrib.Config{Jobs: s.jobs})
	if err != nil {
		return passResult{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return passResult{}, err
	}
	srv := &http.Server{Handler: distrib.Handler(co)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, parallelism)
	transports := make([]*timedTransport, parallelism)
	for i := range errs {
		transports[i] = &timedTransport{Transport: distrib.Dial(ln.Addr().String()), tr: tr}
		w := &distrib.Worker{
			Name:        fmt.Sprintf("w%d", i+1),
			Transport:   transports[i],
			Parallelism: 1,
			Results:     resultcache.New(),
			// Short retries keep the end of a sweep from waiting on the
			// default one-second back-off.
			RetryDelay: 20 * time.Millisecond,
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}(i)
	}
	select {
	case <-co.Done():
	case <-time.After(2 * time.Minute):
		e.fail(s.plan.Len(), "sweep did not finish")
	}
	merged := resultcache.New()
	mergeStart := time.Now()
	tr.do("distrib.merge", -1, func() { co.MergeInto(merged) })
	merge := time.Since(mergeStart)
	tables := make(map[string]*report.Table, len(s.ids))
	renderStart := time.Now()
	for _, id := range s.ids {
		cfg := s.cfgs[id]
		cfg.Results = merged
		tr.do("exp."+id, -1, func() { tables[id], err = cfg.Experiment(id) })
		if err != nil {
			e.fail(1, "%s: %v", id, err)
			continue
		}
		checkTable(e, id, tables[id].String(), s.want[id], 1)
	}
	render := time.Since(renderStart)
	wall := time.Since(start)
	cancel()
	wg.Wait()

	st := co.Status()
	e.attempted += s.plan.Len()
	if n := merged.Stats().Misses; n > 0 {
		e.fail(n, "%d cells missed the merged cache", n)
	}
	if st.Rejected > 0 || st.Expired > 0 || len(co.FailedCells()) > 0 {
		e.fail(st.Rejected+st.Expired+len(co.FailedCells()), "rejected %d, expired %d, failed %d",
			st.Rejected, st.Expired, len(co.FailedCells()))
	}
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			e.fail(1, "worker: %v", err)
		}
	}
	if tr != nil {
		var lease, complete []float64
		var busy time.Duration
		for _, t := range transports {
			lease = append(lease, t.lease...)
			complete = append(complete, t.complete...)
			busy += t.busy
		}
		e.set("distrib.lease_rtt_ms_p50", quantile(lease, 0.5))
		e.set("distrib.lease_rtt_ms_p99", quantile(lease, 0.99))
		e.set("distrib.complete_rtt_ms_p50", quantile(complete, 0.5))
		e.set("distrib.complete_rtt_ms_p99", quantile(complete, 0.99))
		e.set("distrib.worker_idle_frac", 1-busy.Seconds()/(float64(parallelism)*wall.Seconds()))
		e.set("distrib.merge_ms", ms(merge))
		e.set("distrib.frames_rejected", float64(st.Rejected))
		e.set("distrib.duplicates", float64(st.Duplicates))
		e.set("exp.render_ms", ms(render))
	}
	return passResult{
		wall:    wall,
		simReqs: float64(s.plan.Len() * s.cfgs[s.ids[0]].Requests),
		fig8:    fig8MemPod(e, tables["fig8"]),
	}, nil
}

// timedTransport wraps a worker's transport, timing every lease and
// complete round trip and the compute time between a grant and its
// completion. A nil tracer passes calls straight through.
type timedTransport struct {
	distrib.Transport
	tr *tracer

	granted  time.Time
	busy     time.Duration
	lease    []float64 // round trips, ms
	complete []float64
}

func (t *timedTransport) Lease(ctx context.Context, req distrib.LeaseRequest) (distrib.LeaseResponse, error) {
	if t.tr == nil {
		return t.Transport.Lease(ctx, req)
	}
	start := time.Now()
	var resp distrib.LeaseResponse
	var err error
	t.tr.do("distrib.lease", -1, func() { resp, err = t.Transport.Lease(ctx, req) })
	t.lease = append(t.lease, ms(time.Since(start)))
	if err == nil && len(resp.Indices) > 0 {
		t.granted = time.Now()
	}
	return resp, err
}

func (t *timedTransport) Complete(ctx context.Context, req distrib.CompleteRequest) (distrib.CompleteResponse, error) {
	if t.tr == nil {
		return t.Transport.Complete(ctx, req)
	}
	start := time.Now()
	if !t.granted.IsZero() {
		t.busy += start.Sub(t.granted)
		t.granted = time.Time{}
	}
	var resp distrib.CompleteResponse
	var err error
	t.tr.do("distrib.complete", -1, func() { resp, err = t.Transport.Complete(ctx, req) })
	t.complete = append(t.complete, ms(time.Since(start)))
	return resp, err
}
