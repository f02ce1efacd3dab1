// Command perfbench is the workbench benchmark. It starts the workbench
// service in-process on a loopback listener, with a fresh data directory
// and real fsync, drives it through internal/client with one of three
// closed-loop workloads (review, evolve, onboard), checks every output,
// and prints its metrics: end to end with --trace 0, per layer with
// --trace 1. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics. See README.md.
//
//	perfbench --workload review --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/wal"
)

// options is one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     sizes
	dataRoot string
}

// setupRuns is how many times a run sets up; setup_s is their median and
// the last one is measured.
const setupRuns = 5

// result is the JSON line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	o := options{size: fullSizes}
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: review, evolve or onboard")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	fs.StringVar(&o.dataRoot, "data", ".bench_build/perfbench-data", "directory the fresh data directories are created in")
	fs.Parse(os.Args[1:])
	o.trace = trace == 1
	if (trace != 0 && trace != 1) || o.seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments; want --workload W --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run performs one benchmark run, writing the human-readable report to
// out. A failed output check yields a result with Correct false; an
// error means the run could not complete.
func run(o options, out io.Writer) (res result, err error) {
	if _, err := newWorkload(o.workload, o.seed, o.size, o.seconds); err != nil {
		return res, err
	}
	if err := os.MkdirAll(o.dataRoot, 0o755); err != nil {
		return res, err
	}
	fmt.Fprintf(out, "perfbench %s: seed %d, %gs timed, trace %v; %d cores, GOMAXPROCS %d, Harmony Parallelism 0, real fsync, SnapshotEvery %d\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), wal.DefaultSnapshotEvery)

	// Set up several times and keep the last: setup_s is the median.
	var setupS []float64
	var b *bench
	var w workload
	var cs []*benchClient
	for s := 0; s < setupRuns; s++ {
		if b != nil {
			if err := b.close(); err != nil {
				return res, err
			}
		}
		t0 := time.Now()
		b, w, cs, err = setup(o)
		if err != nil {
			if b != nil {
				b.close()
			}
			return res, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() {
		if cerr := b.close(); err == nil {
			err = cerr
		}
	}()

	runtime.GC()
	d := time.Duration(o.seconds * float64(time.Second))
	var phases []phaseResult
	if o.trace {
		res.Metrics, phases, err = tracedRun(b, w, cs, d, out)
	} else {
		res.Metrics, phases, err = untracedRun(b, w, cs, d, setupS, out)
	}
	if err != nil {
		return res, err
	}
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		for _, e := range ph.errs {
			fmt.Fprintln(out, "op failed:", e)
		}
	}

	res.Correct = true
	fail := func(err error) {
		res.Correct = false
		fmt.Fprintln(out, "CHECK FAILED:", err)
	}
	if triples, err := b.checkDurability(); err != nil {
		fail(err)
	} else {
		fmt.Fprintf(out, "check durability: the data dir copy recovers to %d triples, rdf.Equal to the live blackboard\n", triples)
	}
	if summary, err := w.check(b, cs); err != nil {
		fail(err)
	} else {
		fmt.Fprintln(out, "check", summary)
	}
	return res, nil
}

// setup starts a server and prepares the workload on it.
func setup(o options) (*bench, workload, []*benchClient, error) {
	b, err := startBench(o.dataRoot, o.trace)
	if err != nil {
		return nil, nil, nil, err
	}
	w, err := newWorkload(o.workload, o.seed, o.size, o.seconds)
	if err != nil {
		return b, nil, nil, err
	}
	cs := make([]*benchClient, w.clients())
	for i := range cs {
		if cs[i], err = b.newClient(fmt.Sprintf("analyst-%d", i)); err != nil {
			return b, nil, nil, err
		}
	}
	return b, w, cs, w.prepare(b, cs)
}

// takeLatencies pools and clears every client's request samples.
func takeLatencies(cs []*benchClient) map[string][]float64 {
	out := map[string][]float64{}
	for _, bc := range cs {
		for k, v := range bc.lat {
			out[k] = append(out[k], v...)
		}
		bc.lat = map[string][]float64{}
	}
	return out
}

// untracedRun measures the end-to-end metrics.
func untracedRun(b *bench, w workload, cs []*benchClient, d time.Duration, setupS []float64, out io.Writer) (map[string]metricValue, []phaseResult, error) {
	// The state grows with every op (onboard keeps each mapping, evolve
	// each archived version), so heap and graph size are read once the
	// clients have completed w.refOps() ops, not at the end of the phase:
	// a faster program completes more ops without reading as a bigger
	// one. The clock stops for the reading and its CPU time is not
	// counted.
	var mem runtime.MemStats
	var graph int64
	var probeCPU float64
	var probeErr error
	pr := &probe{ops: w.refOps(), fn: func() {
		c0, err := cpuSeconds()
		runtime.GC()
		runtime.ReadMemStats(&mem)
		graph, probeErr = b.snapshotBytes()
		c1, cerr := cpuSeconds()
		probeCPU = c1 - c0
		probeErr = errors.Join(probeErr, err, cerr)
	}}
	cpu0, err := cpuSeconds()
	if err != nil {
		return nil, nil, err
	}
	meter := startWALMeter(b)
	ph := runPhase(cs, make([]int, len(cs)), d, w.op, pr)
	cpu1, cerr := cpuSeconds()
	walBytes, txns, err := meter.finish()
	readAt := fmt.Sprintf("after %d ops", w.refOps())
	if !pr.ran {
		// Too slow to reach refOps: read the state the phase ended with.
		pr.fn()
		probeCPU = 0
		readAt = "after the phase, which fell short of " + readAt
	}
	if err = errors.Join(err, cerr, probeErr); err != nil {
		return nil, nil, err
	}
	okOps := float64(ph.attempted - ph.failed)
	// Snapshots rewrite the whole graph every SnapshotEvery commits; each
	// transaction is charged its share of one, at the graph size the
	// probe read, so the figure does not jump with how many snapshots a
	// run happened to cross.
	txnsPerOp := ratio(float64(txns), okOps)
	lat := takeLatencies(cs)
	vals := map[string]float64{
		"setup_s":           percentile(setupS, 0.5),
		"ops_per_s":         okOps / ph.elapsed.Seconds(),
		"cpu_ms_per_op":     ratio((cpu1-cpu0-probeCPU)*1e3, okOps),
		"heap_mb":           float64(mem.HeapAlloc) / (1 << 20),
		"disk_bytes_per_op": ratio(float64(walBytes), okOps) + txnsPerOp*float64(graph)/wal.DefaultSnapshotEvery,
		"match_f1":          w.f1(),
	}

	fmt.Fprintf(out, "%-18s %12.4f s     median of %d set-ups %.3f\n", "setup_s", vals["setup_s"], len(setupS), setupS)
	fmt.Fprintf(out, "%-18s %12.2f op/s  %d ops in %.2fs (report only)\n", "ops_per_s", vals["ops_per_s"], ph.attempted-ph.failed, ph.elapsed.Seconds())
	fmt.Fprintf(out, "%-18s %12.4f ratio %d failed of %d attempted\n", "fail_ratio", ratio(float64(ph.failed), float64(ph.attempted)), ph.failed, ph.attempted)
	for _, nl := range w.named() {
		n := len(lat[nl.kind])
		note := ""
		if float64(n)*(1-nl.q) < 10 && nl.q > 0.5 {
			note = "  (fewer than 10 samples beyond the percentile)"
		}
		fmt.Fprintf(out, "%-18s %12.3f ms    n=%d%s\n", nl.name, percentile(lat[nl.kind], nl.q), n, note)
	}
	fmt.Fprintf(out, "%-18s %12.3f ms    process CPU time (server and client) per op\n", "cpu_ms_per_op", vals["cpu_ms_per_op"])
	fmt.Fprintf(out, "%-18s %12.1f MiB   live heap %s (forced GC)\n", "heap_mb", vals["heap_mb"], readAt)
	fmt.Fprintf(out, "%-18s %12.1f B/op  WAL %d B + %.2f txns/op x %d B graph %s / %d per snapshot\n",
		"disk_bytes_per_op", vals["disk_bytes_per_op"], walBytes, txnsPerOp, graph, readAt, wal.DefaultSnapshotEvery)
	fmt.Fprintf(out, "%-18s %12.4f ratio F1 against registry ground truth\n", "match_f1", vals["match_f1"])
	fmt.Fprintf(out, "%-18s %12s       peak resident memory of the benchmark process\n", "peak_rss", peakRSS())

	metrics := map[string]metricValue{}
	for _, m := range endToEnd {
		metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	return metrics, []phaseResult{ph}, nil
}

// tracedRun measures the per-layer metrics: an untraced half (registry,
// runtime and WAL deltas, and the latency baseline) followed by a traced
// half on the same server (span attribution).
func tracedRun(b *bench, w workload, cs []*benchClient, d time.Duration, out io.Writer) (map[string]metricValue, []phaseResult, error) {
	kind := w.primary()
	meter := startWALMeter(b)
	before := readCounters(b.reg)
	base := runPhase(cs, make([]int, len(cs)), d/2, w.op, nil)
	after := readCounters(b.reg)
	walBytes, _, err := meter.finish()
	if err != nil {
		return nil, nil, err
	}
	baseLat := takeLatencies(cs)[kind]

	for _, bc := range cs {
		bc.trace = newLayerAcc()
	}
	traced := runPhase(cs, base.next, d/2, w.op, nil)
	acc := newLayerAcc()
	for _, bc := range cs {
		acc.merge(bc.trace)
		bc.trace = nil
	}
	tracedLat := takeLatencies(cs)[kind]
	overhead := 100 * (ratio(mean(tracedLat), mean(baseLat)) - 1)
	vals := layerReport(before, after, base.attempted-base.failed, walBytes, acc, traced.attempted-traced.failed, overhead)

	printLayerTable(out, acc)
	fmt.Fprintf(out, "tracing overhead: %s mean %.3f ms traced vs %.3f ms untraced (%+.1f%%)\n", kind, mean(tracedLat), mean(baseLat), overhead)
	metrics := map[string]metricValue{}
	for _, m := range perLayer {
		metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
		fmt.Fprintf(out, "%-36s %14.4f %s\n", m.name, vals[m.name], m.unit)
	}
	return metrics, []phaseResult{base, traced}, nil
}

// peakRSS reads the process's peak resident set size ("?" where
// /proc is unavailable).
func peakRSS() string {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "?"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strings.Join(strings.Fields(v), " ")
		}
	}
	return "?"
}

// cpuSeconds returns the user plus system CPU time the process has used.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}
