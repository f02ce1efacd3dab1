package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics an untraced run prints. Every workload
// reports every one of them, so the gate compares like with like on each
// workload. ops_per_s and the request latencies print in the text report
// only (see README.md): on a two-core VM shared with other tenants they
// follow the host's load, which moves them by a quarter between runs of
// the same code.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"heap_mb", "MiB"},
	{"disk_bytes_per_op", "B/op"},
	{"match_f1", "ratio"},
}

// traceRoutes are the server routes the workloads call in their timed
// phases; each gets a handler, residual and response-size metric.
var traceRoutes = []string{
	"cells.decide", "cells.list", "match.rematch", "apply",
	"match.run", "schemas.load", "mappings.create",
}

// rematchModes are the recompute paths a rematch can resolve to.
var rematchModes = []string{"cold", "pins", "incremental", "corpus", "full"}

// Span-derived layer metrics: self time per op of the spans each one
// sums (see layerOf).
const (
	mWbmgrTxn      = "wbmgr.txn_ms"
	mWalAppend     = "wal.append_ms"
	mWalFsync      = "wal.fsync_ms"
	mVoters        = "harmony.voters_ms"
	mMerge         = "harmony.merge_ms"
	mFlood         = "harmony.flood_ms"
	mContext       = "harmony.context_ms"
	mPins          = "harmony.pins_ms"
	mSignatures    = "harmony.signatures_ms"
	mCacheGet      = "matchcache.get_ms"
	mUnmapped      = "trace.unmapped_ms"
	mResidualRoute = "server.residual_ms."
)

// spanLayers are the layer metrics layerOf maps spans to.
var spanLayers = []string{mWbmgrTxn, mWalAppend, mWalFsync, mVoters, mMerge, mFlood, mContext, mPins, mSignatures, mCacheGet, mUnmapped}

// perLayer lists the metrics a traced run prints, in report order.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, r := range traceRoutes {
		out = append(out,
			metricDef{"server.handler_ms." + r, "ms"},
			metricDef{mResidualRoute + r, "ms"},
			metricDef{"server.response_bytes." + r, "B"})
	}
	out = append(out,
		metricDef{"client.transport_ms", "ms"},
		metricDef{"json.encode_cells_ms", "ms"},
		metricDef{mWbmgrTxn, "ms"},
		metricDef{"wbmgr.txns_per_op", "count"},
		metricDef{"wbmgr.events_per_op", "count"},
		metricDef{"wbmgr.rollbacks", "count"},
		metricDef{"blackboard.triples_end", "count"},
		metricDef{"blackboard.revisions_per_op", "count"},
		metricDef{mWalAppend, "ms"},
		metricDef{mWalFsync, "ms"},
		metricDef{"wal.fsyncs_per_op", "count"},
		metricDef{"wal.bytes_per_op", "B"},
		metricDef{"wal.snapshots", "count"},
		metricDef{mVoters, "ms"},
		metricDef{mMerge, "ms"},
		metricDef{mFlood, "ms"},
		metricDef{mContext, "ms"},
		metricDef{mPins, "ms"},
		metricDef{mSignatures, "ms"},
	)
	for _, m := range rematchModes {
		out = append(out, metricDef{"harmony.rematch_mode." + m, "count"})
	}
	out = append(out,
		metricDef{"harmony.published_cells_per_op", "count"},
		metricDef{"matchcache.hit_ratio", "ratio"},
		metricDef{"matchcache.evictions", "count"},
		metricDef{mCacheGet, "ms"},
		metricDef{"erwin.load_ms", "ms"},
		metricDef{"schemaset.plan_ms", "ms"},
		metricDef{"go.alloc_mb_per_op", "MiB"},
		metricDef{"go.gc_pause_ms", "ms"},
		metricDef{"trace.overhead_pct", "%"},
		metricDef{mUnmapped, "ms"},
	)
	return out
}()

// percentile returns the nearest-rank q-quantile of xs (0 when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio divides, reading 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
