package main

// -bench-json mode: instead of the experiment report, run the
// incremental-matching micro-benchmarks (the BenchmarkEngineRematch
// scenarios) and write a machine-readable BENCH file. The file is the
// committed baseline scripts/benchdiff compares future runs against.
//
// Only the dimensionless columns (speedups, hit ratio) are stable
// across machines; the *_ms columns are recorded for context but
// benchdiff ignores them.

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/harmony"
	"repro/internal/matchcache"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/registry"
)

// BenchRecord holds one pair size's measurements. Wall-clock columns are
// milliseconds (best of several runs); speedups are cold_ms divided by
// the respective re-match path.
type BenchRecord struct {
	Name            string  `json:"name"`
	SourceElements  int     `json:"source_elements"`
	TargetElements  int     `json:"target_elements"`
	ColdMs          float64 `json:"cold_ms"`
	WarmRunMs       float64 `json:"warm_run_ms"`
	RematchPinMs    float64 `json:"rematch_pin_ms"`
	RematchRenameMs float64 `json:"rematch_rename_ms"`
	SpeedupWarm     float64 `json:"speedup_warm"`
	SpeedupPin      float64 `json:"speedup_pin"`
	SpeedupRename   float64 `json:"speedup_rename"`
	CacheHitRatio   float64 `json:"cache_hit_ratio"`
}

// BenchFile is the on-disk BENCH_*.json format.
type BenchFile struct {
	Benchmark string        `json:"benchmark"`
	Note      string        `json:"note"`
	Sizes     []BenchRecord `json:"sizes"`
}

// benchPair mirrors the engine benchmarks' registry pair construction
// (bench_test.go) so -bench-json measures the same workload.
func benchPair(entities, attributes, domainValues int) (*model.Schema, *model.Schema) {
	cfg := registry.DefaultConfig()
	cfg.Models = 1
	cfg.ElementsTotal = entities
	cfg.AttributesTotal = attributes
	cfg.DomainValuesTotal = domainValues
	reg := registry.Generate(cfg)
	src := reg.Models[0]
	tgt, _ := registry.Perturb(src, registry.DefaultPerturb())
	return src, tgt
}

// bestOfMs runs f n times and returns the fastest wall-clock in ms —
// the usual noise-resistant statistic for micro-benchmarks.
func bestOfMs(n int, f func()) float64 {
	best := 0.0
	for i := 0; i < n; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0).Seconds() * 1e3; i == 0 || d < best {
			best = d
		}
	}
	return best
}

// runBenchJSON measures the four incremental-matching scenarios at both
// benchmark sizes and writes the BENCH file to path.
func runBenchJSON(path string) error {
	// pinIters is high because the pins fast path measures single-digit
	// milliseconds — best-of over many runs is what keeps the speedup
	// ratio stable enough to gate on.
	sizes := []struct {
		name                        string
		entities, attributes, codes int
		coldIters, patchIters       int
		pinIters                    int
	}{
		{"100elem", 12, 88, 120, 3, 5, 30},
		{"1000elem", 100, 900, 1200, 2, 4, 15},
	}
	out := BenchFile{
		Benchmark: "incremental-rematch",
		Note: "speedup_* and cache_hit_ratio are machine-independent and gate " +
			"scripts/benchdiff; *_ms are recorded for context only",
	}
	for _, sz := range sizes {
		src, tgt := benchPair(sz.entities, sz.attributes, sz.codes)
		fmt.Fprintf(os.Stderr, "bench %s (%d+%d elements)\n", sz.name, len(src.Elements()), len(tgt.Elements()))
		rec := BenchRecord{
			Name:           sz.name,
			SourceElements: len(src.Elements()),
			TargetElements: len(tgt.Elements()),
		}

		// Cold: full pipeline, no cache.
		reg := obs.NewRegistry()
		rec.ColdMs = bestOfMs(sz.coldIters, func() {
			harmony.NewEngine(src, tgt, harmony.Options{Flooding: true, Metrics: reg}).Run()
		})

		// Warm: fresh engines over a cache index the populating engine
		// keeps holding its matrices in.
		cache := matchcache.New(reg)
		opts := harmony.Options{Flooding: true, Metrics: reg, Cache: cache}
		harmony.NewEngine(src, tgt, opts).Run() // populate
		rec.WarmRunMs = bestOfMs(sz.coldIters, func() {
			harmony.NewEngine(src, tgt, opts).Run()
		})
		rec.CacheHitRatio = cache.Stats().HitRatio()

		// Pins fast path: decision-only rematch on a live engine.
		e := harmony.NewEngine(src, tgt, harmony.Options{Flooding: true, Metrics: reg})
		e.Run()
		s0, t0 := src.Elements()[1], tgt.Elements()[1]
		i := 0
		rec.RematchPinMs = bestOfMs(sz.pinIters, func() {
			if i%2 == 0 {
				if err := e.Accept(s0.ID, t0.ID); err != nil {
					panic(err)
				}
			} else {
				e.Unpin(s0.ID, t0.ID)
			}
			i++
			e.Rematch(harmony.Dirty{})
		})

		// Single-element rename: cross-shaped incremental recompute.
		leaf := src.Elements()[len(src.Elements())-1]
		base := leaf.Name
		i = 0
		rec.RematchRenameMs = bestOfMs(sz.patchIters, func() {
			if i%2 == 0 {
				leaf.Name = base + "Edited"
			} else {
				leaf.Name = base
			}
			i++
			e.Rematch(harmony.Dirty{Source: []string{leaf.ID}})
		})
		leaf.Name = base

		rec.SpeedupWarm = rec.ColdMs / rec.WarmRunMs
		rec.SpeedupPin = rec.ColdMs / rec.RematchPinMs
		rec.SpeedupRename = rec.ColdMs / rec.RematchRenameMs
		fmt.Fprintf(os.Stderr, "  cold %.1fms · warm %.1fms (%.1fx) · pin %.2fms (%.0fx) · rename %.1fms (%.1fx) · hit ratio %.0f%%\n",
			rec.ColdMs, rec.WarmRunMs, rec.SpeedupWarm, rec.RematchPinMs, rec.SpeedupPin,
			rec.RematchRenameMs, rec.SpeedupRename, 100*rec.CacheHitRatio)
		out.Sizes = append(out.Sizes, rec)
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
