package main

import (
	"strings"
	"testing"
)

// scaled returns xs multiplied by f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestJudge(t *testing.T) {
	wall := metricSpec{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25}
	rate := metricSpec{Name: "sim_mreq_per_s", Unit: "Mreq/s", Better: "higher", Bound: 0.25}
	okFrac := metricSpec{Name: "ok_frac", Unit: "frac", Better: "higher", Bound: 0.01}
	// Ten runs within ±2% of 1.0: a quartile distance far inside any bound.
	tight := []float64{0.98, 1.01, 0.99, 1.02, 1.00, 0.985, 1.015, 0.995, 1.005, 1.0}
	// Ten runs from 0.6 to 1.4 with quartiles 0.8 and 1.2: the quartile
	// distance is 40% of the median, wider than the 25% bound.
	wide := []float64{0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.8, 1.2, 1.0, 1.0}

	cases := []struct {
		name       string
		ms         metricSpec
		base, head []float64
		want       verdict
	}{
		{"30% slower, tight spread", wall, tight, scaled(tight, 1.3), worse},
		{"10% slower, tight spread", wall, tight, scaled(tight, 1.1), ok},
		{"unchanged", wall, tight, tight, ok},
		{"faster", wall, tight, scaled(tight, 0.5), ok},
		{"40% spread, overlapping runs", wall, wide, scaled(wide, 1.3), unresolved},
		{"wide spread, every HEAD run beyond the bound", wall, wide, scaled(tight, 1.9), worse},
		{"wide spread, one HEAD run inside the bound", wall, wide,
			append(scaled(tight[:9], 1.9), 1.7), unresolved},
		{"higher-better rate drops 30%", rate, tight, scaled(tight, 0.7), worse},
		{"higher-better rate rises", rate, tight, scaled(tight, 1.5), ok},
		{"ok_frac drops below its bound", okFrac,
			[]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
			[]float64{1, 0.9, 1, 1, 0.9, 0.9, 1, 0.9, 0.9, 0.9}, worse},
		{"ok_frac inside its bound", okFrac,
			[]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
			[]float64{1, 1, 1, 1, 1, 0.995, 1, 1, 1, 1}, ok},
		{"metric absent on BASE", wall, nil, tight, missing},
		{"zero on both sides", wall, scaled(tight, 0), scaled(tight, 0), ok},
		{"zero becomes non-zero", wall, scaled(tight, 0), tight, worse},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := judge(c.ms, c.base, c.head)
			if got.verdict != c.want {
				t.Fatalf("verdict %s, want %s (BASE %+v, HEAD %+v)", got.verdict, c.want, got.base, got.head)
			}
		})
	}
}

func TestJudgeCountsBetterPairs(t *testing.T) {
	wall := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.25}
	j := judge(wall, []float64{1, 1, 1, 1}, []float64{0.9, 1.1, 0.8, 1})
	if j.headBetter != 2 {
		t.Fatalf("headBetter %d, want 2", j.headBetter)
	}
	rate := metricSpec{Name: "sim_mreq_per_s", Better: "higher", Bound: 0.25}
	if j := judge(rate, []float64{1, 1, 1, 1}, []float64{0.9, 1.1, 0.8, 1}); j.headBetter != 1 {
		t.Fatalf("higher-better headBetter %d, want 1", j.headBetter)
	}
}

func TestParseRun(t *testing.T) {
	good := `{"correct":true,"attempted":4,"failed":0,"metrics":{"wall_s":{"value":0.4,"unit":"s"},"ok_frac":{"value":1,"unit":"frac"}}}`
	m, err := parseRun("HEAD", "cell-long", 3, []byte("building\n"+good+"\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m["wall_s"] != 0.4 || m["ok_frac"] != 1 || len(m) != 2 {
		t.Fatalf("metrics %v", m)
	}

	bad := []struct {
		name, stdout, want string
	}{
		{"empty output", "", "malformed last line"},
		{"text last line", good + "\ntrailing chatter\n", "malformed last line"},
		{"truncated object", good[:40], "malformed last line"},
		{"no metrics", `{"correct":true,"attempted":1,"failed":0}`, "malformed last line"},
		{"no correct field", `{"attempted":1,"failed":0,"metrics":{}}`, "malformed last line"},
		{"metric without value", `{"correct":true,"metrics":{"wall_s":{"unit":"s"}}}`, "wall_s has no value"},
		{"correct false", `{"correct":false,"attempted":162,"failed":2,"metrics":{"wall_s":{"value":1}}}`, "correct:false (2 of 162 cells failed)"},
	}
	for _, c := range bad {
		t.Run(c.name, func(t *testing.T) {
			_, err := parseRun("BASE", "matrix-cold", 7, []byte(c.stdout))
			if err == nil {
				t.Fatal("accepted")
			}
			msg := err.Error()
			if !strings.HasPrefix(msg, "BASE matrix-cold seed 7: ") || !strings.Contains(msg, c.want) {
				t.Fatalf("error %q does not name the side, workload and seed or lacks %q", msg, c.want)
			}
		})
	}
}
