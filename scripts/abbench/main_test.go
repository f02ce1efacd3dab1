package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

var testMetrics = []metric{
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "match_f1", Unit: "ratio", Better: "higher", Bound: 0.2},
}

const goodLine = `{"correct":true,"attempted":140,"failed":0,"metrics":{"cpu_ms_per_op":{"value":86.8,"unit":"ms"},"match_f1":{"value":0.91,"unit":"ratio"}}}`

func TestParseResult(t *testing.T) {
	r, err := parseResult([]byte("perfbench onboard: seed 1\ncpu_ms_per_op 86.8 ms\n"+goodLine+"\n"), testMetrics)
	if err != nil {
		t.Fatal(err)
	}
	if !*r.Correct || r.Attempted != 140 || r.Metrics["cpu_ms_per_op"].Value != 86.8 || r.Metrics["match_f1"].Unit != "ratio" {
		t.Errorf("parsed %+v", r)
	}

	for _, tc := range []struct{ name, out, want string }{
		{"empty", "", "no result line"},
		{"report only", "perfbench onboard: seed 1\n", "malformed result line"},
		{"truncated", goodLine[:40], "malformed result line"},
		{"no correct", `{"attempted":1,"metrics":{}}`, `no "correct" field`},
		{"missing metric", `{"correct":true,"metrics":{"cpu_ms_per_op":{"value":1}}}`, "lacks metric match_f1"},
	} {
		if _, err := parseResult([]byte(tc.out), testMetrics); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s != (summary{2, 3, 4}) {
		t.Errorf("summarize 1..5 = %+v", s)
	}
	// Even count: the median averages the middle two, and the quartiles
	// interpolate between ranks.
	s = summarize([]float64{10, 40, 20, 30})
	if s != (summary{17.5, 25, 32.5}) {
		t.Errorf("summarize 10..40 = %+v", s)
	}
	if s := summarize([]float64{7}); s != (summary{7, 7, 7}) {
		t.Errorf("summarize one value = %+v", s)
	}
}

func TestCompare(t *testing.T) {
	parent := []float64{100, 102, 98, 101, 99, 100, 103, 97, 100, 101}
	faster := []float64{88, 90, 86, 89, 87, 88, 91, 85, 88, 102} // one loss
	c := compare(testMetrics[0], parent, faster)
	if c.wins != 9 || c.losses != 1 || c.ties != 0 || !c.gain || c.regressed {
		t.Errorf("nine wins in ten: %+v", c)
	}
	if math.Abs(c.delta-(-0.12)) > 1e-12 {
		t.Errorf("delta = %v, want -0.12", c.delta)
	}

	// Eight wins and two ties: ties count for neither side, so the rule
	// fails though nothing lost.
	tied := append([]float64(nil), faster...)
	tied[8], tied[9] = parent[8], parent[9]
	if c := compare(testMetrics[0], parent, tied); c.wins != 8 || c.ties != 2 || c.gain {
		t.Errorf("eight wins, two ties: %+v", c)
	}

	// Every pair won, but by less than the parent's quartile spread.
	near := make([]float64, len(parent))
	for k, v := range parent {
		near[k] = v - 0.5
	}
	if c := compare(testMetrics[0], parent, near); c.wins != 10 || c.gain {
		t.Errorf("wins inside the spread: %+v", c)
	}

	// Higher is better: a rise wins, and a fall past the bound regresses.
	f1 := []float64{0.5, 0.5, 0.5, 0.5}
	if c := compare(testMetrics[1], f1, []float64{0.6, 0.6, 0.6, 0.6}); c.wins != 4 || !c.gain || c.regressed {
		t.Errorf("higher F1: %+v", c)
	}
	if c := compare(testMetrics[1], f1, []float64{0.3, 0.3, 0.3, 0.3}); c.losses != 4 || c.gain || !c.regressed {
		t.Errorf("F1 down 40%%: %+v", c)
	}
	if c := compare(testMetrics[0], parent, []float64{130, 130, 130, 130, 130, 130, 130, 130, 130, 130}); !c.regressed {
		t.Errorf("CPU up 30%% is past the 25%% bound: %+v", c)
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("11-15")
	if err != nil || fmt.Sprint(got) != "[11 12 13 14 15]" {
		t.Errorf("parseSeeds = %v, %v", got, err)
	}
	if got, err := parseSeeds("7-7"); err != nil || fmt.Sprint(got) != "[7]" {
		t.Errorf("parseSeeds(7-7) = %v, %v", got, err)
	}
	for _, bad := range []string{"", "x", "7", "3-1", "1-", "1-3,7", " 1-3"} {
		if _, err := parseSeeds(bad); err == nil {
			t.Errorf("parseSeeds(%q) accepted", bad)
		}
	}
}

// fakeRuns answers each run from a table keyed by tree and seed, and
// records the order of the runs.
type fakeRuns struct {
	order []string
	out   map[string]string
	code  map[string]int
}

func (f *fakeRuns) run(dir string, args []string) ([]byte, int, error) {
	key := dir + " " + args[3]
	f.order = append(f.order, key)
	out, ok := f.out[key]
	if !ok {
		out = goodLine
	}
	return []byte(out), f.code[key], nil
}

func TestRunPairsAlternatesSides(t *testing.T) {
	f := &fakeRuns{}
	parent, change := side{"parent", "P"}, side{"change", "C"}
	pairs, err := runPairs(f.run, parent, change, "onboard", []int64{1, 2, 3}, 10, testMetrics, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(f.order, ","); got != "P 1,C 1,C 2,P 2,P 3,C 3" {
		t.Errorf("run order %s", got)
	}
	if len(pairs) != 3 || !pairs[0].parentFirst || pairs[1].parentFirst || pairs[2].parent.Attempted != 140 {
		t.Errorf("pairs %+v", pairs)
	}
}

func TestRunPairsStopsAtABadRun(t *testing.T) {
	parent, change := side{"parent", "P"}, side{"change", "C"}
	incorrect := strings.Replace(goodLine, `"correct":true`, `"correct":false`, 1)
	failedOps := strings.Replace(goodLine, `"failed":0`, `"failed":2`, 1)
	for _, tc := range []struct {
		name string
		f    fakeRuns
		want string
		runs int // the bad run is the last one made
	}{
		{"crash", fakeRuns{out: map[string]string{"C 2": "panic: boom\n"}, code: map[string]int{"C 2": 2}},
			"change, seed 2: exit code 2: malformed result line: invalid character 'p' looking for beginning of value", 3},
		{"incorrect", fakeRuns{out: map[string]string{"P 2": incorrect}, code: map[string]int{"P 2": 1}},
			"parent, seed 2: exit code 1: an output check failed", 4},
		{"failed ops", fakeRuns{out: map[string]string{"P 1": failedOps}},
			"parent, seed 1: exit code 0: 2 of 140 ops failed", 1},
		{"exit code alone", fakeRuns{code: map[string]int{"C 1": 3}},
			"change, seed 1: exit code 3", 2},
	} {
		pairs, err := runPairs(tc.f.run, parent, change, "onboard", []int64{1, 2, 3}, 10, testMetrics, io.Discard)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
		if len(tc.f.order) != tc.runs || len(pairs) != (tc.runs-1)/2 {
			t.Errorf("%s: %d runs and %d complete pairs, want %d runs, the last one bad", tc.name, len(tc.f.order), len(pairs), tc.runs)
		}
	}

	start := errors.New("exec: bash not found")
	if _, err := runPairs(func(string, []string) ([]byte, int, error) { return nil, 0, start }, parent, change, "onboard", []int64{4}, 10, testMetrics, io.Discard); err == nil || err.Error() != "parent, seed 4: exec: bash not found" {
		t.Errorf("a run that cannot start: %v", err)
	}
}
