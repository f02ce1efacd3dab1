package workbench

// Benchmark harness: one benchmark per paper table/figure (DESIGN.md §4)
// plus the ablations (§5). Each benchmark drives the same experiment
// runner as cmd/benchreport, times it with testing.B, and — once per run
// — reports the experiment's headline quantities as custom metrics so
// `go test -bench` output doubles as the reproduction record.
//
// Shape assertions (who wins, rough factors) live in the eval/core test
// suites; benchmarks only measure.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/blackboard"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/harmony"
	"repro/internal/match"
	"repro/internal/matchcache"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/schemaset"
	"repro/internal/wbmgr"
)

// benchPairs builds the standard evaluation pair set once per benchmark.
func benchPairs(n int) eval.PairSet {
	return eval.BuildPairSetSized(n, 12, 60, 90, registry.HardPerturb())
}

// benchRegistryPair generates one registry model at the given size and
// perturbs it into a (source, target) pair for the engine benchmarks.
func benchRegistryPair(entities, attributes, domainValues int) (*model.Schema, *model.Schema) {
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

// BenchmarkEngineRun compares the sequential pipeline (Parallelism 1)
// against the worker-pool pipeline (Parallelism 0 = GOMAXPROCS) on
// registry-generated pairs at ~100 and ~1000 elements. The two modes
// produce bit-identical matrices (see TestParallelRunMatchesSequential),
// so the only difference is wall-clock.
func BenchmarkEngineRun(b *testing.B) {
	sizes := []struct {
		name                        string
		entities, attributes, codes int
	}{
		{"100elem", 12, 88, 120},
		{"1000elem", 100, 900, 1200},
	}
	for _, sz := range sizes {
		src, tgt := benchRegistryPair(sz.entities, sz.attributes, sz.codes)
		for _, mode := range []struct {
			name string
			par  int
		}{{"seq", 1}, {"par", 0}} {
			b.Run(sz.name+"/"+mode.name, func(b *testing.B) {
				// Isolated registry: engines otherwise share obs.Default(),
				// so benchmarks would pollute each other's (and the
				// process's) metrics.
				reg := obs.NewRegistry()
				for i := 0; i < b.N; i++ {
					e := harmony.NewEngine(src, tgt, harmony.Options{
						Flooding:    true,
						Parallelism: mode.par,
						Metrics:     reg,
					})
					e.Run()
				}
			})
		}
	}
}

// BenchmarkEngineRematch measures the incremental re-match paths against
// the cold runs of BenchmarkEngineRun: a warm full run served from the
// score-matrix cache, a decision-only rematch (pins fast path), a
// single-element rename (cross-shaped incremental recompute), and the
// server's path, a match session re-reading a source whose new version
// renames and re-documents one leaf.
func BenchmarkEngineRematch(b *testing.B) {
	sizes := []struct {
		name                        string
		entities, attributes, codes int
	}{
		{"100elem", 12, 88, 120},
		{"1000elem", 100, 900, 1200},
	}
	for _, sz := range sizes {
		src, tgt := benchRegistryPair(sz.entities, sz.attributes, sz.codes)

		b.Run(sz.name+"/warm-run", func(b *testing.B) {
			reg := obs.NewRegistry()
			cache := matchcache.New(reg)
			opts := harmony.Options{Flooding: true, Metrics: reg, Cache: cache}
			harmony.NewEngine(src, tgt, opts).Run() // populate the cache
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				harmony.NewEngine(src, tgt, opts).Run()
			}
		})

		b.Run(sz.name+"/rematch-pin", func(b *testing.B) {
			reg := obs.NewRegistry()
			e := harmony.NewEngine(src, tgt, harmony.Options{Flooding: true, Metrics: reg})
			e.Run()
			s0 := src.Elements()[1]
			t0 := tgt.Elements()[1]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					if err := e.Accept(s0.ID, t0.ID); err != nil {
						b.Fatal(err)
					}
				} else {
					e.Unpin(s0.ID, t0.ID)
				}
				e.Rematch(harmony.Dirty{})
			}
		})

		b.Run(sz.name+"/rematch-rename", func(b *testing.B) {
			reg := obs.NewRegistry()
			e := harmony.NewEngine(src, tgt, harmony.Options{Flooding: true, Metrics: reg})
			e.Run()
			leaf := src.Elements()[len(src.Elements())-1]
			base := leaf.Name
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					leaf.Name = base + "Edited"
				} else {
					leaf.Name = base
				}
				e.Rematch(harmony.Dirty{Source: []string{leaf.ID}})
			}
			b.StopTimer()
			leaf.Name = base
		})

		b.Run(sz.name+"/rematch-reload", func(b *testing.B) {
			reg := obs.NewRegistry()
			bb := blackboard.New()
			bb.SetMetrics(reg)
			for _, s := range []*model.Schema{src, tgt} {
				if _, err := bb.PutSchema(s); err != nil {
					b.Fatal(err)
				}
			}
			mp, err := bb.NewMapping("m", src.Name, tgt.Name)
			if err != nil {
				b.Fatal(err)
			}
			sess := harmony.NewSession(harmony.Options{Flooding: true, Metrics: reg})
			if _, err := sess.Rematch(context.Background(), bb, mp, harmony.Dirty{}, 0.5); err != nil {
				b.Fatal(err)
			}
			// Two source versions, one with a leaf renamed and
			// re-documented; each put moves the source's version, so the
			// session hands the engine a new schema object every time.
			edited := src.Clone()
			leaf := edited.Elements()[len(edited.Elements())-1]
			leaf.Name += "Edited"
			leaf.Doc += " revised wording"
			versions := []*model.Schema{edited, src.Clone()}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := bb.PutSchema(versions[i%2]); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := sess.Rematch(context.Background(), bb, mp, harmony.Dirty{}, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkApplyVersionBump measures the full schema-set apply path
// (DESIGN.md §17) in the steady state: a blackboard carrying an applied
// set and one mapping takes version bumps that rename a single element,
// and the warm applier plans, commits, and re-matches incrementally.
// This is the end-to-end cost behind BENCH_10.json's
// apply_incremental_ms; the cold reference is BenchmarkEngineRun.
func BenchmarkApplyVersionBump(b *testing.B) {
	sizes := []struct {
		name                        string
		entities, attributes, codes int
	}{
		{"100elem", 12, 88, 120},
		{"1000elem", 100, 900, 1200},
	}
	for _, sz := range sizes {
		src, tgt := benchRegistryPair(sz.entities, sz.attributes, sz.codes)
		b.Run(sz.name, func(b *testing.B) {
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
			var rematchNs int64
			bump := func(schemas ...*model.Schema) {
				set.Version = fmt.Sprintf("v%d", version)
				version++
				plan, err := ap.Plan(set, schemas, lock)
				if err != nil {
					b.Fatal(err)
				}
				res, err := ap.Apply(plan)
				if err != nil {
					b.Fatal(err)
				}
				for _, rm := range res.Rematches {
					rematchNs += int64(rm.Duration)
				}
				lock.Upsert(plan.LockSet())
			}
			bump(src, tgt)
			if _, err := bb.NewMapping("m", src.Name, tgt.Name); err != nil {
				b.Fatal(err)
			}

			// Two canonical source variants, one leaf renamed; alternating
			// them makes every bump a real single-element change.
			variantA := src.Clone()
			edited := src.Clone()
			leaf := edited.Elements()[len(edited.Elements())-1]
			leaf.Name = leaf.Name + "Edited"
			variantB := edited.Clone()

			// First bump with the mapping present runs the engine cold; the
			// timed bumps after it are the steady state.
			bump(variantB, tgt)
			rematchNs = 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The warmup applied variantB, so start from variantA: every
				// timed bump must be a real change, never a no-op plan.
				next := variantA
				if version%2 == 0 {
					next = variantB
				}
				bump(next, tgt)
			}
			b.ReportMetric(float64(rematchNs)/1e6/float64(b.N), "rematch-ms/op")
		})
	}
}

// BenchmarkTable1RegistryStats regenerates Table 1: synthesize the
// registry corpus (at 5% scale per iteration; see -scale in
// cmd/benchreport for the full corpus) and compute the documentation
// statistics.
func BenchmarkTable1RegistryStats(b *testing.B) {
	var res eval.Table1Result
	for i := 0; i < b.N; i++ {
		res = eval.RunTable1(0.05)
	}
	b.ReportMetric(float64(res.Measured[0].ItemCount), "elements")
	b.ReportMetric(float64(res.Measured[1].ItemCount), "attributes")
	b.ReportMetric(res.Measured[1].WordsPerDefined, "attr-words/def")
}

// BenchmarkFigure1PipelineStages runs the full Harmony pipeline (Figure
// 1: preprocess → voters → merger → flooding) over one registry-density
// schema pair per iteration.
func BenchmarkFigure1PipelineStages(b *testing.B) {
	ps := benchPairs(1)
	p := ps.Pairs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := harmony.NewEngine(p.Source, p.Target, harmony.Options{Flooding: true})
		e.Run()
	}
}

// BenchmarkFigure1VoterStages times each voter stage separately: on the
// small evaluation pair, then sequentially (Parallelism 1) on registry
// pairs of ~300 and ~1000 elements, where each size also times the
// linguistic context build (the "context" sub-benchmark), each voter
// reports its cost per scored pair, and the stages after the panel —
// the vote merger ("merge") and Harmony flooding ("flooding") — report
// theirs per cell. A full vote allocates only its matrix, so allocs/op
// stays flat across sizes.
func BenchmarkFigure1VoterStages(b *testing.B) {
	ps := benchPairs(1)
	p := ps.Pairs[0]
	for _, v := range match.DefaultVoters() {
		v := v
		b.Run(v.Name(), func(b *testing.B) {
			ctx := match.NewContext(p.Source, p.Target)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.Vote(ctx)
			}
		})
	}
	sizes := []struct {
		name                        string
		entities, attributes, codes int
	}{
		{"300elem", 30, 270, 360},
		{"1000elem", 100, 900, 1200},
	}
	for _, sz := range sizes {
		src, tgt := benchRegistryPair(sz.entities, sz.attributes, sz.codes)
		b.Run(sz.name, func(b *testing.B) {
			b.Run("context", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					match.NewContext(src, tgt, match.WithParallelism(1))
				}
			})
			ctx := match.NewContext(src, tgt, match.WithParallelism(1))
			pairs := float64(src.Len() * tgt.Len())
			var votes []match.Vote
			for _, v := range match.DefaultVoters() {
				v := v
				b.Run(v.Name(), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						v.Vote(ctx)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pairs, "ns/pair")
				})
				votes = append(votes, match.Vote{Voter: v.Name(), Matrix: v.Vote(ctx)})
			}
			merger := match.NewMerger()
			b.Run("merge", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					merger.Merge(votes)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pairs, "ns/cell")
			})
			merged := merger.Merge(votes)
			b.Run("flooding", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					match.HarmonyFlood(merged, src, tgt, match.FloodOptions{Parallelism: 1})
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pairs, "ns/cell")
			})
		})
	}
}

// BenchmarkFigure2SchemaGraphs loads the Figure 2 schemata from XSD text
// and renders the schema graphs.
func BenchmarkFigure2SchemaGraphs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		src, tgt, err := core.Figure2Schemata()
		if err != nil {
			b.Fatal(err)
		}
		_ = src.String()
		_ = tgt.String()
	}
}

// BenchmarkFigure3MappingMatrix recreates the annotated Figure 3 mapping
// matrix on the blackboard and assembles + executes its code.
func BenchmarkFigure3MappingMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.RunFigure3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4CaseStudy runs the §5.3 pilot study end to end: two
// tools, one blackboard, transactions, events, codegen, execution.
func BenchmarkFigure4CaseStudy(b *testing.B) {
	var res *core.CaseStudyResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.RunCaseStudy()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.MachineCells), "machine-cells")
	b.ReportMetric(float64(len(res.Output.Records)), "records")
	b.ReportMetric(float64(res.MergedRecords), "after-linking")
}

// BenchmarkMatcherQuality runs the E6 lineup over the evaluation pairs
// and reports the headline F1s.
func BenchmarkMatcherQuality(b *testing.B) {
	ps := benchPairs(3)
	var rows []eval.QualityRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = eval.RunMatcherQuality(ps, eval.StandardMatchers())
	}
	for _, r := range rows {
		switch r.Matcher {
		case "harmony-full":
			b.ReportMetric(r.PRF.F1, "harmony-F1")
		case "name-equality":
			b.ReportMetric(r.PRF.F1, "name-eq-F1")
		case "coma-style":
			b.ReportMetric(r.PRF.F1, "coma-F1")
		}
	}
}

// BenchmarkVoterPR measures per-voter raw-vote quality (the §4.1 recall/
// precision claim).
func BenchmarkVoterPR(b *testing.B) {
	ps := benchPairs(2)
	var rows []eval.VoterRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = eval.RunVoterPR(ps, 0.1)
	}
	for _, r := range rows {
		if r.Voter == "documentation" {
			b.ReportMetric(r.PRF.Recall, "doc-recall")
			b.ReportMetric(r.PRF.Precision, "doc-precision")
		}
	}
}

// BenchmarkIterativeLearning runs the E7 feedback loop (4 rounds × 8
// decisions) with learning enabled.
func BenchmarkIterativeLearning(b *testing.B) {
	ps := benchPairs(1)
	var rounds []eval.LearningRound
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rounds = eval.RunIterativeLearning(ps.Pairs[0], 4, 8, true)
	}
	b.ReportMetric(rounds[0].PRF.F1, "round0-F1")
	b.ReportMetric(rounds[len(rounds)-1].PRF.F1, "final-F1")
}

// BenchmarkFilterEffectiveness measures the E8 clutter-reduction table.
func BenchmarkFilterEffectiveness(b *testing.B) {
	ps := benchPairs(1)
	var rows []eval.FilterRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = eval.RunFilterEffectiveness(ps.Pairs[0])
	}
	for _, r := range rows {
		if r.Config == "max+conf>=0.25" {
			b.ReportMetric(float64(r.Shown), "links-shown")
			b.ReportMetric(float64(r.Total), "links-total")
		}
	}
}

// BenchmarkTaskCoverage evaluates the E9 coverage matrix.
func BenchmarkTaskCoverage(b *testing.B) {
	var all bool
	for i := 0; i < b.N; i++ {
		w := core.WorkbenchProfile()
		all = w.CoversAll()
	}
	if !all {
		b.Fatal("workbench must cover all 13 tasks")
	}
	b.ReportMetric(float64(core.HarmonyProfile().CoverageCount(core.ManualSupport)), "harmony-tasks")
	b.ReportMetric(13, "workbench-tasks")
}

// BenchmarkUsabilityAnalysis runs the E10 simulated-engineer conditions.
func BenchmarkUsabilityAnalysis(b *testing.B) {
	cfg := registry.DefaultConfig()
	cfg.Models = 1
	cfg.ElementsTotal = 10
	cfg.AttributesTotal = 50
	cfg.DomainValuesTotal = 70
	reg := registry.Generate(cfg)
	src := reg.Models[0]
	tgt, gt := registry.Perturb(src, registry.DefaultPerturb())
	var rows []core.EffortRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = core.RunUsability(src, tgt, gt)
	}
	b.ReportMetric(float64(rows[0].Total), "manual-ops")
	b.ReportMetric(float64(rows[1].Total), "assisted-ops")
	b.ReportMetric(float64(rows[2].Total), "workbench-ops")
}

// BenchmarkMappingReuse plays the E11 reuse loop: 4 projects against a
// fixed target standard with a growing mapping library.
func BenchmarkMappingReuse(b *testing.B) {
	var rounds []eval.ReuseRound
	for i := 0; i < b.N; i++ {
		rounds = eval.RunMappingReuse(4, registry.HardPerturb())
	}
	b.ReportMetric(rounds[1].WithoutF1, "p1-without-F1")
	b.ReportMetric(rounds[1].WithF1, "p1-with-F1")
}

// BenchmarkAutoIntegration runs E12: the unattended match→map→generate→
// execute→verify pipeline over one pair with synthesized instances.
func BenchmarkAutoIntegration(b *testing.B) {
	ps := benchPairs(1)
	var res *eval.AutoResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = eval.RunAutoIntegration(ps.Pairs[0], 0.25, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MatchF1, "match-F1")
	b.ReportMetric(float64(res.RecordsOut), "records-out")
	b.ReportMetric(float64(res.AbsorbedErrors), "errors-absorbed")
}

// ---- Ablation benches (DESIGN.md §5) ----

func ablationF1(b *testing.B, pick string) {
	ps := benchPairs(2)
	var rows []eval.AblationRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = eval.RunAblations(ps)
	}
	for _, r := range rows {
		if r.Config == "full" {
			b.ReportMetric(r.PRF.F1, "full-F1")
		}
		if r.Config == pick {
			b.ReportMetric(r.PRF.F1, pick+"-F1")
		}
	}
}

// BenchmarkAblationFlooding compares full Harmony against no-flooding.
func BenchmarkAblationFlooding(b *testing.B) { ablationF1(b, "no-flooding") }

// BenchmarkAblationMergerWeighting compares magnitude weighting on/off.
func BenchmarkAblationMergerWeighting(b *testing.B) { ablationF1(b, "no-magnitude-weighting") }

// BenchmarkAblationThesaurus compares thesaurus expansion on/off.
func BenchmarkAblationThesaurus(b *testing.B) { ablationF1(b, "no-thesaurus") }

// BenchmarkAblationStemming compares stemming on/off.
func BenchmarkAblationStemming(b *testing.B) { ablationF1(b, "no-stemming") }

// BenchmarkAblationDomainVoter compares the domain-value voter on/off.
func BenchmarkAblationDomainVoter(b *testing.B) { ablationF1(b, "no-domain-voter") }
