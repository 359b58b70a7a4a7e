// Command perfab is the repository's performance gate: a same-machine,
// interleaved A/B comparison of two revisions over the end-to-end
// benchmark that BENCHMARK.json declares.
//
//	go run ./cmd/perfab BASE HEAD [WORKLOAD...]
//
// It extracts each revision with git archive into a temporary directory.
// For every workload (by default every workload of HEAD's BENCHMARK.json)
// it runs each tree's own benchmark command
//
//	COMMAND --workload W --seed i --seconds RUN_SECONDS --trace 0
//
// for seeds 1..pairs, one run at a time, alternating which side runs
// first. It then prints a Markdown table with the median and quartiles of
// every end-to-end metric on each side and a verdict against the bound and
// direction HEAD's BENCHMARK.json gives it:
//
//   - worse: HEAD's median is worse than BASE's by more than bound × BASE's
//     median;
//   - unresolved: BASE's quartile distance exceeds bound × BASE's median,
//     so the runs cannot tell; reported, not failed, unless every HEAD run
//     is worse than every BASE run by more than the bound;
//   - ok otherwise.
//
// A run that exits non-zero, whose last stdout line is not the benchmark's
// JSON object, or that reports correct:false stops the comparison. perfab
// exits 1 on such a run or on any worse metric, 2 on a usage error.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// pairs is the number of (BASE, HEAD) run pairs per workload.
const pairs = 10

// benchSpec is the part of BENCHMARK.json perfab reads.
type benchSpec struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

// metricSpec is one end-to-end metric: its unit, which direction is
// better ("lower" or "higher") and the relative bound of a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// tree is one extracted revision.
type tree struct {
	side string // "BASE" or "HEAD"
	rev  string // abbreviated commit hash
	dir  string
	spec benchSpec
}

func main() {
	args := os.Args[1:]
	if len(args) < 2 || strings.HasPrefix(args[0], "-") {
		fmt.Fprintln(os.Stderr, "usage: perfab BASE HEAD [WORKLOAD...]")
		os.Exit(2)
	}
	regressed, err := run(args[0], args[1], args[2:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfab:", err)
		os.Exit(1)
	}
	if regressed {
		os.Exit(1)
	}
}

// run compares revisions base and head on workloads (all of HEAD's when
// empty), writes the table to w and reports whether any metric is worse.
func run(base, head string, workloads []string, w io.Writer) (bool, error) {
	tmp, err := os.MkdirTemp("", "perfab-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	b, err := extract("BASE", base, filepath.Join(tmp, "base"))
	if err != nil {
		return false, err
	}
	h, err := extract("HEAD", head, filepath.Join(tmp, "head"))
	if err != nil {
		return false, err
	}
	if len(workloads) == 0 {
		for _, wl := range h.spec.Workloads {
			workloads = append(workloads, wl.Name)
		}
	}
	for _, name := range workloads {
		if !h.hasWorkload(name) {
			return false, fmt.Errorf("HEAD's BENCHMARK.json has no workload %q", name)
		}
	}

	fmt.Fprintf(w, "## perfab: BASE %s vs HEAD %s, %d interleaved pairs per workload\n\n", b.rev, h.rev, pairs)
	fmt.Fprintln(w, "| workload | metric | BASE median [q1, q3] | HEAD median [q1, q3] | change | HEAD better | bound | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	regressed := false
	for _, name := range workloads {
		samples := map[string]map[string][]float64{b.side: {}, h.side: {}}
		for seed := 1; seed <= pairs; seed++ {
			order := []*tree{b, h}
			if seed%2 == 0 {
				order = []*tree{h, b}
			}
			for _, t := range order {
				m, err := t.runOnce(name, seed)
				if err != nil {
					return false, err
				}
				for k, v := range m {
					samples[t.side][k] = append(samples[t.side][k], v)
				}
				fmt.Fprintf(os.Stderr, "perfab: %s seed %d %s wall_s %.4g\n", name, seed, t.side, m["wall_s"])
			}
		}
		for _, ms := range h.spec.EndToEnd {
			v := judge(ms, samples[b.side][ms.Name], samples[h.side][ms.Name])
			regressed = regressed || v.verdict == worse
			fmt.Fprintf(w, "| %s | %s (%s, %s) | %s | %s | %s | %d/%d | %g%% | %s |\n",
				name, ms.Name, ms.Unit, ms.Better, spread(v.base), spread(v.head),
				change(v), v.headBetter, len(samples[h.side][ms.Name]), ms.Bound*100, v.verdict)
		}
	}
	return regressed, nil
}

// extract writes revision rev into dir with git archive and reads its
// BENCHMARK.json.
func extract(side, rev, dir string) (*tree, error) {
	out, err := exec.Command("git", "rev-parse", "--short", "--verify", rev+"^{commit}").Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %q is not a commit: %v", side, rev, err)
	}
	t := &tree{side: side, rev: strings.TrimSpace(string(out)), dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	archive := exec.Command("git", "archive", "--format=tar", t.rev)
	untar := exec.Command("tar", "-x", "-C", dir)
	untar.Stdin, err = archive.StdoutPipe()
	if err != nil {
		return nil, err
	}
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return nil, err
	}
	aerr := archive.Run()
	if err := untar.Wait(); aerr != nil || err != nil {
		return nil, fmt.Errorf("%s: extracting %s: %v", side, t.rev, errors.Join(aerr, err))
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("%s: %v", side, err)
	}
	if err := json.Unmarshal(raw, &t.spec); err != nil {
		return nil, fmt.Errorf("%s: BENCHMARK.json: %v", side, err)
	}
	if len(t.spec.Command) == 0 || t.spec.RunSeconds <= 0 {
		return nil, fmt.Errorf("%s: BENCHMARK.json needs a command and a positive run_seconds", side)
	}
	return t, nil
}

func (t *tree) hasWorkload(name string) bool {
	for _, wl := range t.spec.Workloads {
		if wl.Name == name {
			return true
		}
	}
	return false
}

// runOnce runs the tree's benchmark command once and returns its metrics.
func (t *tree) runOnce(workload string, seed int) (map[string]float64, error) {
	args := append(slices.Clone(t.spec.Command[1:]),
		"--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(t.spec.RunSeconds, 'g', -1, 64), "--trace", "0")
	cmd := exec.Command(t.spec.Command[0], args...)
	cmd.Dir = t.dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s %s seed %d: %v\n%s", t.side, workload, seed, err, tail(stderr.String(), 20))
	}
	return parseRun(t.side, workload, seed, stdout.Bytes())
}

// runOutput is the benchmark's last stdout line.
type runOutput struct {
	Correct   *bool `json:"correct"`
	Attempted int   `json:"attempted"`
	Failed    int   `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
	} `json:"metrics"`
}

// parseRun decodes one run's stdout. Its last non-empty line must be the
// benchmark's JSON object and report correct:true; the error otherwise
// names the side, the workload and the seed.
func parseRun(side, workload string, seed int, stdout []byte) (map[string]float64, error) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	last := lines[len(lines)-1]
	var out runOutput
	if err := json.Unmarshal([]byte(last), &out); err != nil || out.Correct == nil || out.Metrics == nil {
		return nil, fmt.Errorf("%s %s seed %d: malformed last line %q", side, workload, seed, last)
	}
	if !*out.Correct {
		return nil, fmt.Errorf("%s %s seed %d: correct:false (%d of %d cells failed)", side, workload, seed, out.Failed, out.Attempted)
	}
	m := make(map[string]float64, len(out.Metrics))
	for k, v := range out.Metrics {
		if v.Value == nil {
			return nil, fmt.Errorf("%s %s seed %d: metric %s has no value", side, workload, seed, k)
		}
		m[k] = *v.Value
	}
	return m, nil
}

// A verdict is the outcome of one metric's comparison.
type verdict string

const (
	ok         verdict = "ok"
	worse      verdict = "**worse**"
	unresolved verdict = "unresolved"
	missing    verdict = "n/a" // a side did not report the metric
)

// stats summarizes one side's samples of a metric.
type stats struct{ q1, med, q3 float64 }

func summarize(xs []float64) stats {
	return stats{quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)}
}

// judgement is one metric's comparison.
type judgement struct {
	base, head stats
	headBetter int // pairs in which HEAD's run beat BASE's
	verdict    verdict
}

// judge applies the gate's rules to one metric's BASE and HEAD samples,
// taken in pairs (the i-th of each side share a seed).
func judge(ms metricSpec, base, head []float64) judgement {
	if len(base) == 0 || len(head) == 0 {
		return judgement{verdict: missing}
	}
	j := judgement{base: summarize(base), head: summarize(head)}
	// Orient both sides so that larger is worse.
	sign := 1.0
	if ms.Better == "higher" {
		sign = -1
	}
	for i := 0; i < len(base) && i < len(head); i++ {
		if sign*head[i] < sign*base[i] {
			j.headBetter++
		}
	}
	margin := ms.Bound * math.Abs(j.base.med)
	switch {
	case j.base.q3-j.base.q1 > margin:
		j.verdict = unresolved
		if separated(sign, ms.Bound, base, head) {
			j.verdict = worse
		}
	case sign*(j.head.med-j.base.med) > margin:
		j.verdict = worse
	default:
		j.verdict = ok
	}
	return j
}

// separated reports whether every HEAD run is worse than every BASE run by
// more than bound (relative to that BASE run); sign is +1 when lower is
// better and -1 when higher is.
func separated(sign, bound float64, base, head []float64) bool {
	for _, h := range head {
		for _, b := range base {
			if sign*(h-b) <= bound*math.Abs(b) {
				return false
			}
		}
	}
	return true
}

// quantile returns the q-quantile of xs by linear interpolation, as the
// benchmark summarizes its own passes.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func spread(s stats) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.med, s.q1, s.q3)
}

func change(j judgement) string {
	if j.verdict == missing {
		return "—"
	}
	if j.base.med == 0 {
		if j.head.med == 0 {
			return "0%"
		}
		return "from 0"
	}
	return fmt.Sprintf("%+.1f%%", 100*(j.head.med-j.base.med)/math.Abs(j.base.med))
}

// tail returns the last n lines of s.
func tail(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
