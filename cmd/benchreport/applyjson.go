package main

// -apply-json mode: measure the versioned schema-set apply workflow
// (internal/schemaset, DESIGN.md §17) and write the BENCH file
// scripts/benchdiff gates with its "apply" case. The scenario is the
// steady-state evolution loop: a blackboard carrying an applied set and
// one mapping takes a version bump that renames a single element, and
// the warm applier re-matches incrementally. speedup_incremental (cold
// full run over the same schemas divided by the bump's re-match time —
// pin sync, engine, publish) is the machine-independent gate; the *_ms
// columns, including the whole apply (plan + schema-put transaction +
// re-match), are context.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/blackboard"
	"repro/internal/harmony"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/schemaset"
	"repro/internal/wbmgr"
)

// ApplyRecord holds one pair size's apply measurements.
type ApplyRecord struct {
	Name           string  `json:"name"`
	SourceElements int     `json:"source_elements"`
	TargetElements int     `json:"target_elements"`
	ColdMs         float64 `json:"cold_ms"`
	// ApplyIncrementalMs is the whole bump: plan, schema-put
	// transaction, re-match, publish, lockfile update.
	ApplyIncrementalMs float64 `json:"apply_incremental_ms"`
	// RematchMs is the bump's re-match step alone — what
	// speedup_incremental compares against ColdMs.
	RematchMs float64 `json:"rematch_ms"`
	// ApplyTxns is the committed transactions per version bump: one for
	// the schema puts plus one per re-matched mapping's publish.
	ApplyTxns int `json:"apply_txns"`
	// RematchMode is the engine's self-classified path for the measured
	// bumps ("incremental" in the steady state).
	RematchMode        string  `json:"rematch_mode"`
	SpeedupIncremental float64 `json:"speedup_incremental"`
}

// ApplyBenchFile is the BENCH_10.json shape.
type ApplyBenchFile struct {
	Benchmark string        `json:"benchmark"`
	Note      string        `json:"note"`
	Sizes     []ApplyRecord `json:"sizes"`
}

// runApplyJSON measures the apply version-bump scenario at both
// benchmark sizes and writes the BENCH file to path.
func runApplyJSON(path string) error {
	sizes := []struct {
		name                        string
		entities, attributes, codes int
		coldIters, bumpIters        int
	}{
		{"100elem", 12, 88, 120, 3, 8},
		{"1000elem", 100, 900, 1200, 2, 6},
	}
	out := ApplyBenchFile{
		Benchmark: "apply",
		Note: "speedup_incremental (cold_ms/rematch_ms) is machine-independent and gates " +
			"scripts/benchdiff; *_ms are recorded for context only",
	}
	for _, sz := range sizes {
		src, tgt := benchPair(sz.entities, sz.attributes, sz.codes)
		fmt.Fprintf(os.Stderr, "bench %s (%d+%d elements)\n", sz.name, len(src.Elements()), len(tgt.Elements()))
		rec := ApplyRecord{
			Name:           sz.name,
			SourceElements: len(src.Elements()),
			TargetElements: len(tgt.Elements()),
		}

		reg := obs.NewRegistry()
		bb := blackboard.New()
		bb.SetMetrics(reg)
		ap := &schemaset.Applier{
			BB:      bb,
			Mgr:     wbmgr.NewWith(bb),
			Metrics: reg,
			Engine:  harmony.Options{Flooding: true, Metrics: reg},
		}
		lock := &schemaset.Lockfile{}
		set := &schemaset.Set{Name: "bench", Version: "v1"}
		version := 1
		bump := func(schemas ...*model.Schema) *schemaset.Result {
			set.Version = fmt.Sprintf("v%d", version)
			version++
			plan, err := ap.Plan(set, schemas, lock)
			if err != nil {
				panic(err)
			}
			res, err := ap.Apply(plan)
			if err != nil {
				panic(err)
			}
			lock.Upsert(plan.LockSet())
			return res
		}
		bump(src, tgt)
		if _, err := bb.NewMapping("m", src.Name, tgt.Name); err != nil {
			return err
		}

		// Two canonical source variants, one leaf renamed; alternating
		// them makes every bump a real single-element change.
		variantA := src.Clone()
		edited := src.Clone()
		leaf := edited.Elements()[len(edited.Elements())-1]
		leaf.Name = leaf.Name + "Edited"
		variantB := edited.Clone()

		// First bump with a mapping present runs the engine cold; the
		// measured bumps after it are the steady state.
		bump(variantB, tgt)
		var last *schemaset.Result
		rec.RematchMs = math.Inf(1)
		rec.ApplyIncrementalMs = bestOfMs(sz.bumpIters, func() {
			// The warmup applied variantB, so start from variantA: every
			// measured bump must be a real change, never a no-op plan.
			next := variantA
			if version%2 == 0 {
				next = variantB
			}
			last = bump(next, tgt)
			if ms := float64(last.Rematches[0].Duration) / 1e6; ms < rec.RematchMs {
				rec.RematchMs = ms
			}
		})
		rec.ApplyTxns = last.Txns
		rec.RematchMode = last.Rematches[0].Mode

		// Cold reference: a from-scratch engine over the same blackboard
		// schemas the applier re-matched.
		bsrc, err := bb.GetSchema(src.Name)
		if err != nil {
			return err
		}
		btgt, err := bb.GetSchema(tgt.Name)
		if err != nil {
			return err
		}
		rec.ColdMs = bestOfMs(sz.coldIters, func() {
			harmony.NewEngine(bsrc, btgt, harmony.Options{Flooding: true, Metrics: reg}).Run()
		})

		rec.SpeedupIncremental = rec.ColdMs / rec.RematchMs
		fmt.Fprintf(os.Stderr, "  cold %.1fms · rematch %.1fms (%.1fx, mode %s) · whole apply %.1fms, %d txns/bump\n",
			rec.ColdMs, rec.RematchMs, rec.SpeedupIncremental, rec.RematchMode, rec.ApplyIncrementalMs, rec.ApplyTxns)
		out.Sizes = append(out.Sizes, rec)
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
