// Package matchcache indexes the match engine intermediates that live
// engines hold (per-voter score matrices, the merged/flooded matrices,
// the blocking pattern), so a run with nothing of its own to reuse can
// share another engine's. The refinement loop of paper Figure 1 re-runs
// the matcher after every analyst decision, and each live engine
// patches its own previous run; what is worth sharing is what the live
// engines hold right now, e.g. a second analyst's mapping over a
// registry pair another mapping already matched. Entries are keyed by
// content ("<kind>|<schema revision hashes>|<options fingerprint>|..."),
// so a key either names exactly one bit-identical value or misses;
// stale data cannot be returned under a fresh key.
//
// An entry lives as long as some holder holds its key: Hold replaces
// everything one holder holds, and a key whose last holder moved on
// leaves the index. There is no byte budget and no eviction policy:
// the index holds only entries of its holders' current snapshots,
// which the holders keep alive anyway.
//
// The index is safe for concurrent use. Hit/miss/eviction counters and
// the entry gauge are exported through internal/obs.
package matchcache

import (
	"context"
	"strconv"
	"sync"

	"repro/internal/obs"
)

// Metric names emitted by the index (see DESIGN.md §12).
const (
	// MetricHits counts Get calls that found a held entry.
	MetricHits = "match_cache_hits_total"
	// MetricMisses counts Get calls that found nothing.
	MetricMisses = "match_cache_misses_total"
	// MetricEvictions counts entries that left the index because their
	// last holder moved on.
	MetricEvictions = "match_cache_evictions_total"
	// MetricEntries gauges the entries currently held.
	MetricEntries = "match_cache_entries"
)

// entry is one indexed value and the number of holders holding its key.
type entry struct {
	value   any
	holders int
}

// Cache is the index of what its holders hold. Create with New.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*entry
	held    map[any][]string // owner → the keys it holds

	hits, misses, evictions *obs.Counter
	size                    *obs.Gauge
}

// New returns an empty index reporting to reg (nil means obs.Default()).
func New(reg *obs.Registry) *Cache {
	if reg == nil {
		reg = obs.Default()
	}
	reg.Describe(MetricHits, "Match cache lookups that found a held entry.")
	reg.Describe(MetricMisses, "Match cache lookups that found nothing.")
	reg.Describe(MetricEvictions, "Match cache entries dropped because their last holder moved on.")
	reg.Describe(MetricEntries, "Entries currently held in the match cache.")
	return &Cache{
		entries:   map[string]*entry{},
		held:      map[any][]string{},
		hits:      reg.Counter(MetricHits),
		misses:    reg.Counter(MetricMisses),
		evictions: reg.Counter(MetricEvictions),
		size:      reg.Gauge(MetricEntries),
	}
}

// Get returns the value held under key and whether it was present,
// counting a hit or a miss. When ctx carries a span (see internal/obs
// tracing), the lookup records a "matchcache.get" child span annotated
// with cache_hit, so a trace shows which stages were answered from the
// index.
func (c *Cache) Get(ctx context.Context, key string) (any, bool) {
	sp, _ := obs.StartSpan(ctx, "matchcache.get")
	c.mu.Lock()
	e, ok := c.entries[key]
	var v any
	if ok {
		v = e.value
	}
	c.mu.Unlock()
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	sp.SetAttr("cache_hit", strconv.FormatBool(ok))
	sp.End()
	return v, ok
}

// Hold makes entries everything owner holds. The new holds are taken
// before owner's previous ones are released, so a key both sets name
// never leaves the index; a held key's value is the one its latest
// holder gave. A key whose last holder released it leaves the index
// and counts as an eviction. Hold(owner, nil) releases everything owner
// holds. The index keeps owner reachable while it holds anything.
func (c *Cache) Hold(owner any, entries map[string]any) {
	keys := make([]string, 0, len(entries))
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, v := range entries {
		e := c.entries[k]
		if e == nil {
			e = &entry{}
			c.entries[k] = e
		}
		e.value = v
		e.holders++
		keys = append(keys, k)
	}
	for _, k := range c.held[owner] {
		e := c.entries[k]
		if e.holders--; e.holders == 0 {
			delete(c.entries, k)
			c.evictions.Inc()
		}
	}
	if len(keys) == 0 {
		delete(c.held, owner)
	} else {
		c.held[owner] = keys
	}
	c.size.Set(float64(len(c.entries)))
}

// Stats is a point-in-time index summary.
type Stats struct {
	Entries   int
	Hits      int64
	Misses    int64
	Evictions int64
}

// HitRatio returns hits / (hits + misses), or 0 before any lookup.
func (st Stats) HitRatio() float64 {
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

// Stats counts the held entries and reads the lifetime counters back
// from the metrics registry (the counters are the single source of
// truth, so Stats and /metrics can never disagree).
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return Stats{
		Entries: n, Hits: c.hits.Value(), Misses: c.misses.Value(),
		Evictions: c.evictions.Value(),
	}
}
