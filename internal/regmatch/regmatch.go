// Package regmatch is the registry-scale matching harness behind
// `workbench registry-match` and BENCH_7.json. It answers the question
// the paper's registry statistics (Table 1) raise but cannot test
// without ground truth: how well — and how fast — does the Harmony
// pipeline hold up when schema pairs grow to registry size?
//
// Two experiments run back to back:
//
//   - A scaling curve over synthetic schema pairs of increasing size
//     (registry-calibrated shape, perturbation-derived ground truth).
//     Each size runs the blocking pipeline end to end and reports
//     element-level quality (recall@K against the candidate ranking,
//     precision/recall/F1 of the stable matching) plus the fraction of
//     the cross product actually scored. A dense run of the same pair
//     supplies the speedup baseline; above Config.DenseMax elements the
//     dense cost is extrapolated from the largest measured size (the
//     dense sweep is quadratic — measuring it at 10k×10k would take
//     longer than every blocked run combined) and flagged as such.
//
//   - A schema-ranking sweep over the generated registry: each query is
//     a perturbed copy of one registry model, ranked against every
//     model by mean best-candidate affinity. Top-1 accuracy and MRR
//     measure whether blocking keeps enough signal to find the source
//     model of a registry-scale "which schema is this?" lookup.
//
// Wall-clock numbers are machine-dependent context; the dimensionless
// quality and work-fraction columns are what scripts/benchdiff gates.
package regmatch

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/eval"
	"repro/internal/harmony"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/registry"
)

// Config tunes a registry-match run. The zero value is completed by
// (*Config).withDefaults; cmd/workbench maps flags onto it directly.
type Config struct {
	// Scale is the registry scale factor for the ranking sweep
	// (registry.DefaultConfig().Scaled(Scale); default 0.02).
	Scale float64
	// Seed feeds the registry generator and, offset per query, the
	// perturbations (default 42).
	Seed int64
	// K is the recall@K cut for the element ranking (default 10).
	K int
	// Queries is the number of ranking queries (default 8).
	Queries int
	// Sizes are per-side element-count targets for the scaling curve
	// (default 600, 2000, 10000).
	Sizes []int
	// DenseMax is the largest size whose dense baseline is measured
	// rather than extrapolated (default 2000).
	DenseMax int
	// NoBlocking ablates the blocking index: every run is dense. The
	// report still carries the same shape (scored_fraction 1).
	NoBlocking bool
	// Parallelism is passed through to the engines (0 = GOMAXPROCS).
	Parallelism int
	// Threshold is the stable-matching acceptance cut for the
	// precision/recall columns (default 0.0: any positive evidence).
	Threshold float64
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.02
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.K <= 0 {
		c.K = 10
	}
	if c.Queries <= 0 {
		c.Queries = 8
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{600, 2000, 10000}
	}
	if c.DenseMax <= 0 {
		c.DenseMax = 2000
	}
	return c
}

// SizeResult is one point on the scaling curve.
type SizeResult struct {
	Name           string  `json:"name"`
	SourceElements int     `json:"source_elements"`
	TargetElements int     `json:"target_elements"`
	CrossProduct   int64   `json:"cross_product"`
	ScoredCells    int64   `json:"scored_cells"`
	ScoredFraction float64 `json:"scored_fraction"`
	RecallAtK      float64 `json:"recall_at_k"`
	Precision      float64 `json:"precision"`
	Recall         float64 `json:"recall"`
	F1             float64 `json:"f1"`
	BlockedMS      float64 `json:"blocked_ms"`
	DenseMS        float64 `json:"dense_ms"`
	// DenseExtrapolated marks dense_ms as projected from the largest
	// measured size's per-cell rate rather than measured.
	DenseExtrapolated bool    `json:"dense_extrapolated"`
	Speedup           float64 `json:"speedup"`
}

// RankingResult summarizes the schema-ranking sweep.
type RankingResult struct {
	Queries      int     `json:"queries"`
	Pool         int     `json:"pool"`
	Top1Accuracy float64 `json:"top1_accuracy"`
	MRR          float64 `json:"mrr"`
}

// Report is the registry-match output; the JSON shape is BENCH_7.json.
type Report struct {
	Benchmark string        `json:"benchmark"`
	Note      string        `json:"note"`
	K         int           `json:"k"`
	Sizes     []SizeResult  `json:"sizes"`
	Ranking   RankingResult `json:"ranking"`
}

// Run executes both experiments.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{
		Benchmark: "registry-match",
		Note: "recall/precision/f1, scored_fraction, speedup, top1_accuracy and mrr are " +
			"machine-independent and gate scripts/benchdiff; *_ms are context only",
		K: cfg.K,
	}

	// Scaling curve, smallest first so the dense per-cell rate from the
	// largest measured size is known before any extrapolated one.
	sizes := append([]int(nil), cfg.Sizes...)
	sort.Ints(sizes)
	var densePerCellMS float64
	var haveDenseRate bool
	for _, n := range sizes {
		src, tgt, gt := SizedPair(cfg.Seed, n)
		r := SizeResult{
			Name:           fmt.Sprintf("%delem", n),
			SourceElements: len(src.Elements()),
			TargetElements: len(tgt.Elements()),
		}
		r.CrossProduct = int64(r.SourceElements) * int64(r.TargetElements)

		m, elapsed := runPipeline(src, tgt, cfg, match.BlockingOptions{Enabled: !cfg.NoBlocking})
		r.BlockedMS = elapsed
		r.ScoredCells = int64(m.NNZ())
		r.ScoredFraction = float64(r.ScoredCells) / float64(r.CrossProduct)
		r.RecallAtK = recallAtK(m, gt, cfg.K)
		prf := eval.Score(m.StableMatching(cfg.Threshold), gt)
		r.Precision, r.Recall, r.F1 = prf.Precision, prf.Recall, prf.F1

		if cfg.NoBlocking {
			// Ablation: the "blocked" run IS the dense run.
			r.DenseMS, r.Speedup = r.BlockedMS, 1
		} else if r.SourceElements <= cfg.DenseMax {
			_, denseMS := runPipeline(src, tgt, cfg, match.BlockingOptions{})
			r.DenseMS = denseMS
			densePerCellMS = denseMS / float64(r.CrossProduct)
			haveDenseRate = true
		} else if haveDenseRate {
			// The dense pipeline is Θ(|S|·|T|) in every stage, so the
			// measured per-cell rate projects quadratically in elements.
			r.DenseMS = densePerCellMS * float64(r.CrossProduct)
			r.DenseExtrapolated = true
		}
		if r.DenseMS > 0 && r.BlockedMS > 0 && r.Speedup == 0 {
			r.Speedup = r.DenseMS / r.BlockedMS
		}
		rep.Sizes = append(rep.Sizes, r)
	}

	rep.Ranking = rankModels(cfg)
	return rep, nil
}

// SizedPair generates one registry-shaped schema of roughly n elements
// per side plus its perturbed twin and ground truth. The entity /
// attribute / domain-value proportions follow Table 1 (≈8% of elements
// are entities or relationships).
func SizedPair(seed int64, n int) (*model.Schema, *model.Schema, *registry.GroundTruth) {
	if n < 10 {
		n = 10
	}
	entities := n * 8 / 100
	if entities < 2 {
		entities = 2
	}
	cfg := registry.DefaultConfig()
	cfg.Seed = seed
	cfg.Models = 1
	cfg.ElementsTotal = entities
	cfg.AttributesTotal = n - entities
	cfg.DomainValuesTotal = n
	src := registry.Generate(cfg).Models[0]
	pcfg := registry.DefaultPerturb()
	pcfg.Seed = seed + 1
	tgt, gt := registry.Perturb(src, pcfg)
	return src, tgt, gt
}

// runPipeline builds an engine over the pair and runs it once,
// returning the final matrix and the end-to-end wall time in ms
// (preprocessing included — that is what an interactive user waits
// for).
func runPipeline(src, tgt *model.Schema, cfg Config, blocking match.BlockingOptions) (*match.Matrix, float64) {
	start := time.Now()
	eng := harmony.NewEngine(src, tgt, harmony.Options{
		Flooding:    true,
		Blocking:    blocking,
		Parallelism: cfg.Parallelism,
		Metrics:     obs.NewRegistry(),
	})
	eng.Run()
	m := eng.Matrix()
	return m, float64(time.Since(start).Microseconds()) / 1000
}

// recallAtK measures, over ground-truth pairs whose endpoints both
// survive in the matrix, how often the true target ranks in the source
// row's top K by score (ties break toward lower column, the same order
// the blocking cut uses).
func recallAtK(m *match.Matrix, gt *registry.GroundTruth, k int) float64 {
	type cell struct {
		j int
		v float64
	}
	rows := make([][]cell, len(m.Sources))
	m.Each(func(i, j int, v float64) {
		rows[i] = append(rows[i], cell{j, v})
	})
	hits, total := 0, 0
	for _, pair := range gt.SortedPairs() {
		i := m.SourceIndex(pair.SourceID)
		tj := m.TargetIndex(pair.TargetID)
		if i < 0 || tj < 0 {
			continue
		}
		total++
		row := append([]cell(nil), rows[i]...)
		sort.Slice(row, func(a, b int) bool {
			if row[a].v != row[b].v {
				return row[a].v > row[b].v
			}
			return row[a].j < row[b].j
		})
		cut := k
		if cut > len(row) {
			cut = len(row)
		}
		for _, c := range row[:cut] {
			if c.j == tj {
				hits++
				break
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// rankModels runs the schema-ranking sweep: each query is a perturbed
// registry model, ranked against every model by affinity.
func rankModels(cfg Config) RankingResult {
	reg := registry.Generate(registry.DefaultConfig().Scaled(cfg.Scale))
	res := RankingResult{Pool: len(reg.Models)}
	if len(reg.Models) == 0 {
		return res
	}
	var mrrSum float64
	for q := 0; q < cfg.Queries; q++ {
		truth := q % len(reg.Models)
		pcfg := registry.DefaultPerturb()
		pcfg.Seed = cfg.Seed + int64(q)
		query, _ := registry.Perturb(reg.Models[truth], pcfg)

		type ranked struct {
			idx      int
			affinity float64
		}
		scores := make([]ranked, len(reg.Models))
		for i, candidate := range reg.Models {
			scores[i] = ranked{i, affinity(query, candidate, cfg)}
		}
		sort.SliceStable(scores, func(a, b int) bool { return scores[a].affinity > scores[b].affinity })
		rank := 0
		for pos, s := range scores {
			if s.idx == truth {
				rank = pos + 1
				break
			}
		}
		if rank == 1 {
			res.Top1Accuracy++
		}
		mrrSum += 1 / float64(rank)
		res.Queries++
	}
	res.Top1Accuracy /= float64(res.Queries)
	res.MRR = mrrSum / float64(res.Queries)
	return res
}

// affinity scores how well candidate explains query: the mean over
// query elements of their best candidate-element score. Flooding is off
// — ranking needs lexical/doc evidence, not structural refinement — so
// a pool sweep stays cheap even at registry scale.
func affinity(query, candidate *model.Schema, cfg Config) float64 {
	eng := harmony.NewEngine(query, candidate, harmony.Options{
		Blocking:    match.BlockingOptions{Enabled: !cfg.NoBlocking},
		Parallelism: cfg.Parallelism,
		Metrics:     obs.NewRegistry(),
	})
	eng.Run()
	m := eng.Matrix()
	if len(m.Sources) == 0 {
		return 0
	}
	best := make([]float64, len(m.Sources))
	for i := range best {
		best[i] = -1
	}
	m.Each(func(i, j int, v float64) {
		if v > best[i] {
			best[i] = v
		}
	})
	var sum float64
	for _, b := range best {
		sum += b
	}
	return sum / float64(len(best))
}

// String renders the report as aligned tables.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "registry-match (recall@%d)\n", r.K)
	rows := make([][]string, 0, len(r.Sizes))
	for _, s := range r.Sizes {
		dense := fmt.Sprintf("%.0f", s.DenseMS)
		if s.DenseExtrapolated {
			dense += "*"
		}
		rows = append(rows, []string{
			s.Name, eval.I(s.SourceElements), eval.I(s.TargetElements),
			fmt.Sprintf("%.4f", s.ScoredFraction),
			eval.F3(s.RecallAtK), eval.F3(s.Precision), eval.F3(s.Recall), eval.F3(s.F1),
			fmt.Sprintf("%.0f", s.BlockedMS), dense, fmt.Sprintf("%.1fx", s.Speedup),
		})
	}
	b.WriteString(eval.Table(
		[]string{"size", "src", "tgt", "scored", "rec@k", "P", "R", "F1", "blocked_ms", "dense_ms", "speedup"},
		rows))
	fmt.Fprintf(&b, "ranking: %d queries over %d models: top-1 %.2f, MRR %.3f\n",
		r.Ranking.Queries, r.Ranking.Pool, r.Ranking.Top1Accuracy, r.Ranking.MRR)
	if anyExtrapolated(r.Sizes) {
		b.WriteString("(* dense_ms extrapolated quadratically from the largest measured dense run)\n")
	}
	return b.String()
}

func anyExtrapolated(sizes []SizeResult) bool {
	for _, s := range sizes {
		if s.DenseExtrapolated {
			return true
		}
	}
	return false
}

// WriteJSON renders the BENCH_7.json payload.
func (r *Report) WriteJSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
