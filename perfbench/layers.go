package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/blackboard"
	"repro/internal/matchcache"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wbmgr"
)

// Layer attribution. The benchmark adds no spans or counters to the
// program: it reads the spans the server already records (through the
// public trace API, client.Trace) and the counters in the registry it
// passed in server.Config.Metrics, and it times the calls it makes into
// single layers (erwin.Load, schemaset.NewPlan, json.Marshal) itself.

// layerOf maps a span name to the layer metric its self time counts
// toward. The route span itself is the server residual: request decode,
// TxnMu wait, the publish loop and response encode.
func layerOf(name string) string {
	switch {
	case name == "wbmgr.txn":
		return mWbmgrTxn
	case name == "wal.append":
		return mWalAppend
	case name == "wal.fsync":
		return mWalFsync
	case strings.HasPrefix(name, "voter:"):
		return mVoters
	case name == "merge":
		return mMerge
	case name == "flooding":
		return mFlood
	case name == "context":
		return mContext
	case name == "pin-decisions":
		return mPins
	case name == "signatures":
		return mSignatures
	case name == "matchcache.get":
		return mCacheGet
	}
	return mUnmapped
}

// attribute splits a request trace's wall-clock time among its spans.
// Each instant of the root span goes to the innermost spans running at
// that instant, shared equally when several run at once (the parallel
// voter panel). Without concurrency a span's share is its self time —
// its duration minus the part its children cover — and in every case
// the shares of one trace sum to the root span's duration. Children are
// clipped to their parent's interval first (microsecond rounding).
func attribute(t server.TraceInfo) (rootUS float64, shares map[string]float64, err error) {
	if t.DroppedSpans > 0 {
		return 0, nil, fmt.Errorf("trace %s dropped %d spans", t.Trace, t.DroppedSpans)
	}
	type node struct {
		name       string
		start, end int64
		kids       []int
	}
	nodes := make([]node, len(t.Spans))
	idx := make(map[string]int, len(t.Spans))
	for i, s := range t.Spans {
		nodes[i] = node{name: s.Name, start: s.StartUS, end: s.StartUS + s.DurationUS}
		idx[s.ID] = i
	}
	root := -1
	for i, s := range t.Spans {
		if p, ok := idx[s.Parent]; ok && s.Parent != "" {
			nodes[p].kids = append(nodes[p].kids, i)
			continue
		}
		if root >= 0 {
			return 0, nil, fmt.Errorf("trace %s has two root spans", t.Trace)
		}
		root = i
	}
	if root < 0 || nodes[root].name != t.Root {
		return 0, nil, fmt.Errorf("trace %s: no root span %q", t.Trace, t.Root)
	}
	var cuts []int64
	var clip func(i int)
	clip = func(i int) {
		cuts = append(cuts, nodes[i].start, nodes[i].end)
		for _, k := range nodes[i].kids {
			nodes[k].start = max(nodes[k].start, nodes[i].start)
			nodes[k].end = max(min(nodes[k].end, nodes[i].end), nodes[k].start)
			clip(k)
		}
	}
	clip(root)
	sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
	active := func(i int, a, b int64) bool { return nodes[i].start <= a && nodes[i].end >= b }
	shares = map[string]float64{}
	var leaves []int
	for c := 1; c < len(cuts); c++ {
		a, b := cuts[c-1], cuts[c]
		if a == b {
			continue
		}
		leaves = leaves[:0]
		var walk func(i int)
		walk = func(i int) {
			inner := false
			for _, k := range nodes[i].kids {
				if active(k, a, b) {
					inner = true
					walk(k)
				}
			}
			if !inner {
				leaves = append(leaves, i)
			}
		}
		walk(root)
		w := float64(b-a) / float64(len(leaves))
		for _, i := range leaves {
			if i == root {
				shares[""] += w
			} else {
				shares[layerOf(nodes[i].name)] += w
			}
		}
	}
	return float64(nodes[root].end - nodes[root].start), shares, nil
}

// routeAcc accumulates one route's traced requests.
type routeAcc struct {
	n                         int
	roundTripMS, handlerMS    float64
	spanMS, residualMS, bytes float64
	layers                    map[string]float64
}

// layerAcc accumulates a traced phase on one client.
type layerAcc struct {
	routes      map[string]*routeAcc
	layers      map[string]float64 // span-derived layer ms, summed
	perOp       map[string]float64 // benchmark-side sums, divided by ops
	samples     map[string][]float64
	transportMS float64
	requests    int
}

// spanSlackUS is how far, in microseconds, a route span may seem to
// outlast its handler: both ends of a span are truncated to whole
// microseconds.
const spanSlackUS = 2

func newLayerAcc() *layerAcc {
	return &layerAcc{
		routes:  map[string]*routeAcc{},
		layers:  map[string]float64{},
		perOp:   map[string]float64{},
		samples: map[string][]float64{},
	}
}

// observe attributes the request bc just completed: its handler time
// from the wrapped handler, its spans from the server's trace store.
func (a *layerAcc) observe(bc *benchClient, roundTrip time.Duration) error {
	id := bc.LastTrace()
	h, ok := bc.b.timer.take(id)
	if !ok {
		return fmt.Errorf("no handler record for trace %s", id)
	}
	var t server.TraceInfo
	var err error
	// The route span ends inside the handler, before the response
	// completes; retry briefly in case the store has not been updated.
	for try := 0; try < 50; try++ {
		if t, err = bc.Trace(id); err == nil && t.DurationUS > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("trace %s: %w", id, err)
	}
	rootUS, shares, err := attribute(t)
	if err != nil {
		return err
	}
	// The three clocks nest: the route span runs inside the handler,
	// which runs inside the client's round trip. Span times are whole
	// microseconds, hence the slack.
	if rootUS > float64(h.dur.Microseconds())+spanSlackUS || h.dur > roundTrip {
		return fmt.Errorf("trace %s (%s): route span %.0f µs, handler %v, round trip %v do not nest",
			id, t.Root, rootUS, h.dur, roundTrip)
	}
	r := a.routes[t.Root]
	if r == nil {
		r = &routeAcc{layers: map[string]float64{}}
		a.routes[t.Root] = r
	}
	r.n++
	r.roundTripMS += msOf(roundTrip)
	r.handlerMS += msOf(h.dur)
	r.bytes += float64(h.bytes)
	r.spanMS += rootUS / 1e3
	for layer, us := range shares {
		if layer == "" {
			r.residualMS += us / 1e3
			continue
		}
		r.layers[layer] += us / 1e3
		a.layers[layer] += us / 1e3
	}
	a.transportMS += msOf(roundTrip - h.dur)
	a.requests++
	return nil
}

// addPerOp adds v to a metric reported as its sum per op.
func (a *layerAcc) addPerOp(name string, v float64) { a.perOp[name] += v }

// sample records one observation of a metric reported as a mean.
func (a *layerAcc) sample(name string, v float64) { a.samples[name] = append(a.samples[name], v) }

// merge folds o into a.
func (a *layerAcc) merge(o *layerAcc) {
	for name, r := range o.routes {
		m := a.routes[name]
		if m == nil {
			m = &routeAcc{layers: map[string]float64{}}
			a.routes[name] = m
		}
		m.n += r.n
		m.roundTripMS += r.roundTripMS
		m.handlerMS += r.handlerMS
		m.spanMS += r.spanMS
		m.residualMS += r.residualMS
		m.bytes += r.bytes
		for l, v := range r.layers {
			m.layers[l] += v
		}
	}
	for l, v := range o.layers {
		a.layers[l] += v
	}
	for l, v := range o.perOp {
		a.perOp[l] += v
	}
	for l, v := range o.samples {
		a.samples[l] = append(a.samples[l], v...)
	}
	a.transportMS += o.transportMS
	a.requests += o.requests
}

// counterSet is a point-in-time reading of the registry counters and
// runtime statistics a phase reports as deltas.
type counterSet struct {
	vals map[string]float64
	mem  runtime.MemStats
}

// counterNames are the registry families the per-layer report reads.
var counterNames = []string{
	wbmgr.MetricTxnCommit, wbmgr.MetricEventsPublished, wbmgr.MetricTxnRollbacks,
	blackboard.MetricTriples, blackboard.MetricRevisions,
	wal.MetricFsync, wal.MetricSnapshots,
	matchcache.MetricHits, matchcache.MetricMisses, matchcache.MetricEvictions,
}

func readCounters(reg *obs.Registry) counterSet {
	cs := counterSet{vals: map[string]float64{}}
	for _, n := range counterNames {
		cs.vals[n] = metricSum(reg, n)
	}
	runtime.ReadMemStats(&cs.mem)
	return cs
}

// layerReport computes the per-layer metrics. base covers the untraced
// half (registry and runtime deltas over baseOps ops, and the WAL bytes
// written); acc covers the traced half (spans over tracedOps ops).
// overheadPct is the traced half's primary-request latency relative to
// the untraced half's.
func layerReport(before, after counterSet, baseOps int, walBytes int64, acc *layerAcc, tracedOps int, overheadPct float64) map[string]float64 {
	out := map[string]float64{}
	bo, to := float64(baseOps), float64(tracedOps)
	delta := func(n string) float64 { return after.vals[n] - before.vals[n] }
	for _, r := range traceRoutes {
		ra := acc.routes[r]
		if ra == nil {
			ra = &routeAcc{}
		}
		n := float64(ra.n)
		out["server.handler_ms."+r] = ratio(ra.handlerMS, n)
		out[mResidualRoute+r] = ratio(ra.residualMS, n)
		out["server.response_bytes."+r] = ratio(ra.bytes, n)
	}
	out["client.transport_ms"] = ratio(acc.transportMS, float64(acc.requests))
	out["json.encode_cells_ms"] = mean(acc.samples["json.encode_cells_ms"])
	for _, l := range spanLayers {
		out[l] = ratio(acc.layers[l], to)
	}
	out["wbmgr.txns_per_op"] = ratio(delta(wbmgr.MetricTxnCommit), bo)
	out["wbmgr.events_per_op"] = ratio(delta(wbmgr.MetricEventsPublished), bo)
	out["wbmgr.rollbacks"] = delta(wbmgr.MetricTxnRollbacks)
	out["blackboard.triples_end"] = after.vals[blackboard.MetricTriples]
	out["blackboard.revisions_per_op"] = ratio(delta(blackboard.MetricRevisions), bo)
	out["wal.fsyncs_per_op"] = ratio(delta(wal.MetricFsync), bo)
	out["wal.bytes_per_op"] = ratio(float64(walBytes), bo)
	out["wal.snapshots"] = delta(wal.MetricSnapshots)
	for _, m := range rematchModes {
		out["harmony.rematch_mode."+m] = ratio(acc.perOp["harmony.rematch_mode."+m], to)
	}
	out["harmony.published_cells_per_op"] = ratio(acc.perOp["harmony.published_cells_per_op"], to)
	hits, misses := delta(matchcache.MetricHits), delta(matchcache.MetricMisses)
	out["matchcache.hit_ratio"] = ratio(hits, hits+misses)
	out["matchcache.evictions"] = delta(matchcache.MetricEvictions)
	out["erwin.load_ms"] = ratio(acc.perOp["erwin.load_ms"], to)
	out["schemaset.plan_ms"] = ratio(acc.perOp["schemaset.plan_ms"], to)
	out["go.alloc_mb_per_op"] = ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/(1<<20), bo)
	out["go.gc_pause_ms"] = ratio(float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, bo)
	out["trace.overhead_pct"] = overheadPct
	return out
}

// printLayerTable writes the per-route breakdown: where each route's
// handler time went, layer by layer. A route's residual and layer columns
// add up to its span column.
func printLayerTable(w io.Writer, acc *layerAcc) {
	cols := spanLayers
	fmt.Fprintf(w, "per-route layer table (mean ms per request; self time, concurrent spans share their interval; residual + layers = span)\n")
	fmt.Fprintf(w, "%-16s %6s %9s %9s %9s %9s", "route", "n", "client", "handler", "span", "residual")
	for _, c := range cols {
		fmt.Fprintf(w, " %9s", strings.TrimSuffix(c[strings.Index(c, ".")+1:], "_ms"))
	}
	fmt.Fprintln(w)
	names := make([]string, 0, len(acc.routes))
	for n := range acc.routes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		r := acc.routes[name]
		n := float64(r.n)
		fmt.Fprintf(w, "%-16s %6d %9.3f %9.3f %9.3f %9.3f", name, r.n, r.roundTripMS/n, r.handlerMS/n, r.spanMS/n, r.residualMS/n)
		for _, c := range cols {
			fmt.Fprintf(w, " %9.3f", r.layers[c]/n)
		}
		fmt.Fprintln(w)
	}
}
