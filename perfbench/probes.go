package main

import "repro/internal/exp"

// layerProbes runs the layer ladder, then pushes a quick-scale Figure 8
// through the layers of the other workflows — a cold matrix, a warm
// re-render and a distributed sweep — so the traced run of any workload
// reports every per-layer metric. The workload's own traced passes run
// afterwards and replace the values of the layers it exercises at full
// scale.
func layerProbes(e *env, tr *tracer) error {
	if err := ladder(e, tr); err != nil {
		return err
	}
	ids := []string{"fig8"}
	cfg := quickConfig("fig8", e.seed)
	plan, err := exp.BuildPlan([]exp.Job{{Experiment: "fig8", Params: cfg.Params()}})
	if err != nil {
		return err
	}
	if _, _, _, err := coldMatrix(e, cfg, "fig8", plan, tr); err != nil {
		return err
	}
	rerun := &rerunWarm{ids: ids}
	if err := rerun.setup(e); err != nil {
		return err
	}
	if _, err := rerun.pass(e, tr); err != nil {
		return err
	}
	sweep := &sweepDistrib{ids: ids}
	if err := sweep.setup(e); err != nil {
		return err
	}
	if err := sweep.prepare(e); err != nil {
		return err
	}
	_, err = sweep.pass(e, tr)
	return err
}
