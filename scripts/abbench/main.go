// Command abbench runs the repository's benchmark on a parent revision
// and on the working tree in alternating pairs, and compares the two
// sides' end-to-end metrics.
//
// Usage (from the repository root):
//
//	go run ./scripts/abbench -parent 2e83e07 -workload onboard -seeds 1-10 [-seconds 10]
//
// It extracts the parent with `git archive` into
// .bench_build/abbench/<commit>/ (kept, build cache and all, for the
// next invocation), and for each seed runs
//
//	bash perfbench/run.sh --workload W --seed S --seconds T --trace 0
//
// once in the parent's tree and once in the working tree, the parent
// first on the first pair, the change first on the second, and so on.
// For each end-to-end metric that BENCHMARK.json declares it then prints
// both sides' median and quartiles, how many pairs the change won, lost
// and tied, and whether a gain would pass the paired-run rule: the
// change wins at least nine pairs in ten, ties counting for neither, and
// its median beats the parent's by more than the parent's quartile
// spread. A metric whose parent quartile spread is wider than its bound,
// relative to the parent's median, is unresolved, unless every change
// run beats every parent run. Each pair's line shows every run's ops.
//
// It gates nothing: after a complete set of pairs it exits 0 whatever the
// numbers say. A run that exits non-zero, reports an incorrect output or
// a failed op, or ends without a well-formed result line stops it with
// exit status 1, naming the side, the seed and the exit code. Bad
// arguments exit 2.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// result is the JSON line a perfbench run ends with.
type result struct {
	Correct   *bool `json:"correct"`
	Attempted int   `json:"attempted"`
	Failed    int   `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// metric is one end-to-end metric of BENCHMARK.json.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// parseResult reads a run's result from its standard output: the last
// non-empty line must be the result object, with correct set, and hold
// every metric in want.
func parseResult(stdout []byte, want []metric) (result, error) {
	lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
	last := strings.TrimSpace(lines[len(lines)-1])
	var r result
	if last == "" {
		return r, errors.New("no result line")
	}
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("malformed result line: %v", err)
	}
	if r.Correct == nil {
		return r, errors.New("result line has no \"correct\" field")
	}
	for _, m := range want {
		if _, ok := r.Metrics[m.Name]; !ok {
			return r, fmt.Errorf("result line lacks metric %s", m.Name)
		}
	}
	return r, nil
}

// quantile returns the q-quantile of sorted, interpolating linearly
// between the two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// summary is one side's median and quartiles of a metric.
type summary struct{ q1, median, q3 float64 }

func summarize(vals []float64) summary {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return summary{quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)}
}

// comparison is one metric over every pair.
type comparison struct {
	parent, change            summary
	wins, losses, ties, pairs int
	// gain reports the paired-run rule: wins in at least nine pairs of
	// ten, and a median better by more than the parent's quartile spread.
	gain bool
	// delta is the change's median relative to the parent's, and
	// regressed reports it worse by more than the metric's bound.
	delta     float64
	regressed bool
	// spread is the parent's quartile spread relative to its median;
	// unresolved reports it wider than the metric's bound while some
	// parent run is at least as good as some change run.
	spread     float64
	unresolved bool
}

// compare scores a metric's pairs: parent[k] and change[k] are pair k.
func compare(m metric, parent, change []float64) comparison {
	c := comparison{parent: summarize(parent), change: summarize(change), pairs: len(parent)}
	sign := 1.0 // > 0: the change's value is better
	if m.Better == "higher" {
		sign = -1
	}
	for k := range parent {
		switch d := sign * (parent[k] - change[k]); {
		case d > 0:
			c.wins++
		case d < 0:
			c.losses++
		default:
			c.ties++
		}
	}
	gap := sign * (c.parent.median - c.change.median)
	c.gain = 10*c.wins >= 9*c.pairs && gap > c.parent.q3-c.parent.q1
	if c.parent.median != 0 {
		c.delta = (c.change.median - c.parent.median) / math.Abs(c.parent.median)
		c.regressed = sign*c.delta > m.Bound
		c.spread = (c.parent.q3 - c.parent.q1) / math.Abs(c.parent.median)
		c.unresolved = c.spread > m.Bound && !allBetter(sign, parent, change)
	}
	return c
}

// allBetter reports whether every change run beats every parent run;
// sign > 0 when lower is better.
func allBetter(sign float64, parent, change []float64) bool {
	for _, p := range parent {
		for _, c := range change {
			if sign*(p-c) <= 0 {
				return false
			}
		}
	}
	return true
}

// parseSeeds reads a seed range "A-B", both ends included.
func parseSeeds(s string) ([]int64, error) {
	lo, hi, _ := strings.Cut(s, "-")
	a, errA := strconv.ParseInt(lo, 10, 64)
	b, errB := strconv.ParseInt(hi, 10, 64)
	if errA != nil || errB != nil || b < a {
		return nil, fmt.Errorf("bad seed range %q (want A-B)", s)
	}
	var out []int64
	for x := a; x <= b; x++ {
		out = append(out, x)
	}
	return out, nil
}

// side is one tree the benchmark runs in.
type side struct{ name, dir string }

// runFunc runs the benchmark in dir and returns its standard output and
// exit code; err reports a run that could not start.
type runFunc func(dir string, args []string) (stdout []byte, code int, err error)

// runBench runs bash perfbench/run.sh in dir, passing its standard error
// through.
func runBench(dir string, args []string) ([]byte, int, error) {
	cmd := exec.Command("bash", append([]string{"perfbench/run.sh"}, args...)...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return out, exit.ExitCode(), nil
	}
	return out, 0, err
}

// pairRun is one seed's two results, parent and change.
type pairRun struct {
	seed          int64
	parentFirst   bool
	parent, chang result
}

// runPairs runs every seed on both sides, alternating which goes first,
// and stops at the first run that fails, is incorrect, fails an op or
// prints no well-formed result.
func runPairs(run runFunc, parent, change side, workload string, seeds []int64, seconds float64, want []metric, log io.Writer) ([]pairRun, error) {
	var pairs []pairRun
	for k, seed := range seeds {
		p := pairRun{seed: seed, parentFirst: k%2 == 0}
		order := []side{parent, change}
		if !p.parentFirst {
			order[0], order[1] = change, parent
		}
		for _, sd := range order {
			args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0"}
			fmt.Fprintf(log, "abbench: %s seed %d: %s\n", workload, seed, sd.name)
			out, code, err := run(sd.dir, args)
			if err != nil {
				return pairs, fmt.Errorf("%s, seed %d: %v", sd.name, seed, err)
			}
			r, err := parseResult(out, want)
			switch {
			case err != nil:
			case !*r.Correct:
				err = errors.New("an output check failed")
			case r.Failed > 0:
				err = fmt.Errorf("%d of %d ops failed", r.Failed, r.Attempted)
			}
			if code != 0 || err != nil {
				msg := fmt.Sprintf("%s, seed %d: exit code %d", sd.name, seed, code)
				if err != nil {
					msg += ": " + err.Error()
				}
				return pairs, errors.New(msg)
			}
			if sd == parent {
				p.parent = r
			} else {
				p.chang = r
			}
		}
		pairs = append(pairs, p)
	}
	return pairs, nil
}

// report prints every pair and the comparison of each metric.
func report(w io.Writer, workload string, pairs []pairRun, metrics []metric) {
	fmt.Fprintf(w, "\n%s: %d pairs (parent/change; ops per run in brackets)\n", workload, len(pairs))
	for _, p := range pairs {
		first := "parent"
		if !p.parentFirst {
			first = "change"
		}
		fmt.Fprintf(w, "  seed %-3d %s first  [%d/%d]", p.seed, first, p.parent.Attempted, p.chang.Attempted)
		for _, m := range metrics {
			fmt.Fprintf(w, "  %s %.6g/%.6g", m.Name, p.parent.Metrics[m.Name].Value, p.chang.Metrics[m.Name].Value)
		}
		fmt.Fprintln(w)
	}
	ops := func(pick func(pairRun) result) float64 {
		n := make([]float64, len(pairs))
		for k, p := range pairs {
			n[k] = float64(pick(p).Attempted)
		}
		return summarize(n).median
	}
	fmt.Fprintf(w, "  ops per run: median %g parent, %g change\n",
		ops(func(p pairRun) result { return p.parent }), ops(func(p pairRun) result { return p.chang }))
	fmt.Fprintf(w, "  %-26s %-6s %-32s %-32s %8s %9s  %s\n", "metric", "better", "parent median [q1, q3]", "change median [q1, q3]", "change", "W/L/T", "verdict")
	for _, m := range metrics {
		parent, change := make([]float64, len(pairs)), make([]float64, len(pairs))
		for k, p := range pairs {
			parent[k], change[k] = p.parent.Metrics[m.Name].Value, p.chang.Metrics[m.Name].Value
		}
		c := compare(m, parent, change)
		verdict := "no gain by the paired-run rule"
		if c.gain {
			verdict = "gain: the paired-run rule holds"
		}
		if c.regressed {
			verdict += fmt.Sprintf("; worse than the parent by more than the %.0f%% bound", 100*m.Bound)
		}
		if c.unresolved {
			verdict += fmt.Sprintf("; unresolved: the parent's quartile spread is %.0f%% of its median, wider than the %.0f%% bound", 100*c.spread, 100*m.Bound)
		}
		fmt.Fprintf(w, "  %-26s %-6s %-32s %-32s %+7.1f%% %9s  %s\n", m.Name+" ("+m.Unit+")", m.Better,
			fmt.Sprintf("%.6g [%.6g, %.6g]", c.parent.median, c.parent.q1, c.parent.q3),
			fmt.Sprintf("%.6g [%.6g, %.6g]", c.change.median, c.change.q1, c.change.q3),
			100*c.delta, fmt.Sprintf("%d/%d/%d", c.wins, c.losses, c.ties), verdict)
	}
}

// extract writes the tree of commit into dir, piping git archive into
// tar, unless a finished extraction is there already.
func extract(commit, dir string) error {
	done := filepath.Join(dir, ".abbench-extracted")
	if _, err := os.Stat(done); err == nil {
		return nil
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r, w, err := os.Pipe()
	if err != nil {
		return err
	}
	archive := exec.Command("git", "archive", "--format=tar", commit)
	archive.Stdout, archive.Stderr = w, os.Stderr
	untar := exec.Command("tar", "-x", "-C", dir)
	untar.Stdin, untar.Stderr = r, os.Stderr
	errArchive, errUntar := archive.Start(), untar.Start()
	// Only the children hold the pipe now: either one's exit ends the other.
	r.Close()
	w.Close()
	if errArchive == nil {
		errArchive = archive.Wait()
	}
	if errUntar == nil {
		errUntar = untar.Wait()
	}
	if err := errors.Join(errArchive, errUntar); err != nil {
		return fmt.Errorf("extracting %s: %w", commit, err)
	}
	return os.WriteFile(done, []byte(commit+"\n"), 0o644)
}

// endToEnd reads the end-to-end metrics BENCHMARK.json declares.
func endToEnd(path string) ([]metric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s declares no end-to-end metric", path)
	}
	return spec.EndToEnd, nil
}

func main() {
	parentRev := flag.String("parent", "", "revision to compare against (required), e.g. HEAD or a commit")
	workload := flag.String("workload", "", "workload (required)")
	seedList := flag.String("seeds", "1-10", "seed range A-B, one pair per seed")
	seconds := flag.Float64("seconds", 10, "length of each run's timed phase in seconds")
	flag.Parse()
	seeds, err := parseSeeds(*seedList)
	if err != nil || *parentRev == "" || *workload == "" || *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: abbench -parent REV -workload W [-seeds 1-10] [-seconds 10]")
		os.Exit(2)
	}
	metrics, err := endToEnd("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "abbench:", err)
		os.Exit(2)
	}
	commit, err := exec.Command("git", "rev-parse", "--verify", *parentRev+"^{commit}").Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "abbench: %s is not a commit\n", *parentRev)
		os.Exit(2)
	}
	hash := strings.TrimSpace(string(commit))
	dir, err := filepath.Abs(filepath.Join(".bench_build", "abbench", hash))
	if err == nil {
		err = extract(hash, dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "abbench:", err)
		os.Exit(1)
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "abbench:", err)
		os.Exit(1)
	}
	parent := side{"parent " + hash[:min(12, len(hash))], dir}
	change := side{"change (working tree)", wd}
	fmt.Printf("abbench: parent %s in %s, change in %s; seeds %s, %gs timed, --trace 0\n", hash, dir, wd, *seedList, *seconds)
	pairs, err := runPairs(runBench, parent, change, *workload, seeds, *seconds, metrics, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "abbench: stopped:", err)
		os.Exit(1)
	}
	report(os.Stdout, *workload, pairs, metrics)
}
