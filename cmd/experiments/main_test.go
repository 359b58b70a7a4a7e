package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/exp"
)

// parse builds the options a command line would.
func parse(t *testing.T, args ...string) *options {
	t.Helper()
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	o := newOptions(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

func ids(sel []experiment) []string {
	out := make([]string, len(sel))
	for i, e := range sel {
		out[i] = e.id
	}
	return out
}

// TestDefaultSelectionIsPaperList pins the default run to the facade's
// paper list — the ablations run only when -only names them.
func TestDefaultSelectionIsPaperList(t *testing.T) {
	sel, err := parse(t).selection()
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, e := range mempod.Experiments() {
		want = append(want, string(e))
	}
	if got := ids(sel); !reflect.DeepEqual(got, want) {
		t.Errorf("default selection %v, want %v", got, want)
	}
}

// TestOnlyAcceptsEveryExperimentID checks that -only reaches every id the
// dispatcher knows, ablations included, and keeps dispatch order whatever
// order the flag lists them in.
func TestOnlyAcceptsEveryExperimentID(t *testing.T) {
	all := exp.ExperimentIDs()
	sel, err := parse(t, "-only", strings.Join(all, ",")).selection()
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(sel); !reflect.DeepEqual(got, all) {
		t.Errorf("-only <all ids> selected %v, want %v", got, all)
	}
	sel, err = parse(t, "-only", "energy, fig7,ablation-pods").selection()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ids(sel), []string{"fig7", "ablation-pods", "energy"}; !reflect.DeepEqual(got, want) {
		t.Errorf("selected %v, want %v", got, want)
	}
}

// TestSelectionRejectsUnknownNames covers the pre-flight checks: a typo in
// an experiment id, a workload or a spec name fails before anything runs,
// and the error names the offender.
func TestSelectionRejectsUnknownNames(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-only", "fig8,fgi9"}, append([]string{"fgi9"}, exp.ExperimentIDs()...)},
		{[]string{"-only", ","}, []string{"nothing selected"}},
		{[]string{"-only", "fig6", "-workloads", "cactus,cactuss"}, []string{`"cactuss"`}},
		{[]string{"-workloads", "mixx"}, []string{`"mixx"`}},
		{[]string{"-only", "fig8", "-fast-spec", "GDDR9"}, []string{"GDDR9"}},
	} {
		_, err := parse(t, tc.args...).selection()
		if err == nil {
			t.Errorf("%v: accepted", tc.args)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%v: error %q does not mention %q", tc.args, err, w)
			}
		}
	}
}

// TestSweepOverridesMatchSweepConfig checks that -requests and -workloads
// give a design-space sweep the cell identity the sweep subset config
// with the same overrides has: same Params, so the same cells and the
// same cached results.
func TestSweepOverridesMatchSweepConfig(t *testing.T) {
	sel, err := parse(t, "-only", "fig6", "-requests", "1000000", "-workloads", "cactus,mix5").selection()
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 1 || sel[0].id != "fig6" {
		t.Fatalf("selected %v, want [fig6]", ids(sel))
	}
	want := exp.QuickConfig().WithWorkloads(exp.SweepWorkloadNames...)
	want.Requests = 1_000_000
	want = want.WithWorkloads("cactus", "mix5")
	if got := sel[0].cfg.Params(); !reflect.DeepEqual(got, want.Params()) {
		t.Errorf("params %+v, want %+v", got, want.Params())
	}
}
