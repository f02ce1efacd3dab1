// Package obs is the workbench's observability layer: an atomic-safe
// metrics registry (counters, gauges, fixed-bucket histograms, all with
// optional labels), context spans that assemble into request traces
// (with a per-run Collector for reading back stage timings), and
// exposition in Prometheus text format and JSON — plus an opt-in HTTP
// handler serving /metrics and /healthz for the future service mode.
//
// The package is stdlib-only by design: the workbench manager is the
// mediation layer for every tool (paper §5.2), so instrumentation must
// not drag third-party dependencies into every internal package.
//
// Hot-path cost model: a metric handle (obtained from Registry.Counter,
// .Gauge or .Histogram) is a pointer whose updates are single atomic
// operations; obtaining the handle is one RLock'd map lookup. Callers on
// hot paths should cache handles.
package obs

import (
	"sync/atomic"
	"time"
)

// defaultRegistry backs Default(); process-wide instrumentation (the
// Harmony engine, the workbench manager, the blackboard) lands here
// unless a caller supplies its own Registry.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// startTime anchors the /healthz uptime report.
var startTime = time.Now()

// LatencyBuckets are the default histogram bounds for stage and request
// durations, in seconds: 1µs up to 5s, roughly logarithmic. Harmony
// voter stages on the evaluation schemata land in the µs–ms range;
// whole-pipeline runs and txn commits in the ms range.
var LatencyBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4,
	1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5,
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n; negative deltas are ignored (counters
// only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, floatBits(bitsFloat(old)+delta)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return bitsFloat(g.bits.Load()) }
