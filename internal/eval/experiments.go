package eval

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/blackboard"
	"repro/internal/harmony"
	"repro/internal/instance"
	"repro/internal/mapgen"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/reuse"
)

// Experiment runners (DESIGN.md §4). Each returns structured results so
// that benches can assert on shapes and cmd/benchreport can print them.

// ---- E1: Table 1 ----

// Table1Result pairs paper and measured rows.
type Table1Result struct {
	Paper    []registry.Table1Row
	Measured []registry.Table1Row
	Scale    float64
}

// RunTable1 generates the registry at the given scale and computes the
// documentation statistics.
func RunTable1(scale float64) Table1Result {
	reg := registry.Generate(registry.DefaultConfig().Scaled(scale))
	return Table1Result{
		Paper:    registry.PaperTable1,
		Measured: reg.ComputeStats().Rows,
		Scale:    scale,
	}
}

// FormatTable1 renders a Table1Result like the paper's Table 1.
func FormatTable1(r Table1Result) string {
	headers := []string{"Item", "Item Count", "# With Def", "% With Def", "Word Count", "Words/Item", "Words/Def"}
	var rows [][]string
	for _, row := range r.Measured {
		pct := 0.0
		if row.ItemCount > 0 {
			pct = 100 * float64(row.WithDefinition) / float64(row.ItemCount)
		}
		rows = append(rows, []string{
			row.Item, I(row.ItemCount), I(row.WithDefinition),
			fmt.Sprintf("~%.0f%%", pct), I(row.WordCount),
			F2(row.WordsPerItem), F2(row.WordsPerDefined),
		})
	}
	return Table(headers, rows)
}

// ---- E6: matcher quality ----

// MatcherSpec names one matcher configuration under evaluation.
type MatcherSpec struct {
	Name string
	// Run produces selected correspondences for a schema pair.
	Run func(src, tgt *model.Schema) []match.Correspondence
}

// selectTop runs a full Harmony engine with the given voters and selects
// one-to-one pairs above the threshold.
func selectTop(src, tgt *model.Schema, voters []match.Voter, flooding bool, threshold float64) []match.Correspondence {
	e := harmony.NewEngine(src, tgt, harmony.Options{Voters: voters, Flooding: flooding})
	e.Run()
	return e.Matrix().StableMatching(threshold)
}

// StandardMatchers returns the matcher lineup of experiment E6: the full
// Harmony panel versus the baselines.
func StandardMatchers() []MatcherSpec {
	return []MatcherSpec{
		{"harmony-full", func(s, t *model.Schema) []match.Correspondence {
			return selectTop(s, t, nil, true, 0.25)
		}},
		{"harmony-no-docs", func(s, t *model.Schema) []match.Correspondence {
			voters := []match.Voter{match.NameVoter{}, match.ThesaurusVoter{}, match.DomainVoter{}, match.TypeVoter{}, match.StructureVoter{}}
			return selectTop(s, t, voters, true, 0.25)
		}},
		{"doc-voter-only", func(s, t *model.Schema) []match.Correspondence {
			return selectTop(s, t, []match.Voter{match.DocVoter{}}, false, 0.25)
		}},
		{"name-equality", func(s, t *model.Schema) []match.Correspondence {
			return selectTop(s, t, []match.Voter{match.NameEqualityMatcher{}}, false, 0.25)
		}},
		{"edit-distance", func(s, t *model.Schema) []match.Correspondence {
			return selectTop(s, t, []match.Voter{match.EditDistanceMatcher{}}, false, 0.25)
		}},
		{"coma-style", func(s, t *model.Schema) []match.Correspondence {
			return selectTop(s, t, []match.Voter{match.COMAMatcher{}}, false, 0.25)
		}},
		{"cupid-style", func(s, t *model.Schema) []match.Correspondence {
			return selectTop(s, t, []match.Voter{match.CupidMatcher{}}, false, 0.25)
		}},
		{"similarity-flooding", func(s, t *model.Schema) []match.Correspondence {
			return selectTop(s, t, []match.Voter{match.MelnikMatcher{}}, false, 0.25)
		}},
	}
}

// QualityRow is one matcher's aggregate score over the evaluation pairs.
type QualityRow struct {
	Matcher string
	PRF     PRF
	Millis  float64
}

// PairSet is an evaluation workload: schema pairs plus ground truth.
type PairSet struct {
	Pairs []EvalPair
}

// EvalPair is one (source, target, truth) triple.
type EvalPair struct {
	Source, Target *model.Schema
	Truth          *registry.GroundTruth
}

// BuildPairSetSized derives n pairs from purpose-built models with the
// given per-model element/attribute/domain-value counts.
func BuildPairSetSized(n, elementsPer, attrsPer, valuesPer int, pcfg registry.PerturbConfig) PairSet {
	cfg := registry.DefaultConfig()
	cfg.Models = n
	cfg.ElementsTotal = elementsPer * n
	cfg.AttributesTotal = attrsPer * n
	cfg.DomainValuesTotal = valuesPer * n
	reg := registry.Generate(cfg)
	return pairsFrom(reg, n, pcfg)
}

func pairsFrom(reg *registry.Registry, n int, pcfg registry.PerturbConfig) PairSet {
	var ps PairSet
	for i := 0; i < n && i < len(reg.Models); i++ {
		src := reg.Models[i]
		pcfg.Seed = int64(100 + i)
		tgt, gt := registry.Perturb(src, pcfg)
		ps.Pairs = append(ps.Pairs, EvalPair{src, tgt, gt})
	}
	return ps
}

// RunMatcherQuality scores every matcher over the pair set, aggregating
// contingency counts across pairs.
func RunMatcherQuality(ps PairSet, matchers []MatcherSpec) []QualityRow {
	var rows []QualityRow
	for _, spec := range matchers {
		var agg PRF
		start := time.Now()
		for _, p := range ps.Pairs {
			got := spec.Run(p.Source, p.Target)
			s := Score(got, p.Truth)
			agg.TP += s.TP
			agg.FP += s.FP
			agg.FN += s.FN
		}
		agg = agg.finish()
		rows = append(rows, QualityRow{
			Matcher: spec.Name,
			PRF:     agg,
			Millis:  float64(time.Since(start).Microseconds()) / 1000 / float64(len(ps.Pairs)),
		})
	}
	return rows
}

// FormatQuality renders matcher-quality rows.
func FormatQuality(rows []QualityRow) string {
	headers := []string{"Matcher", "Precision", "Recall", "F1", "ms/pair"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Matcher, F3(r.PRF.Precision), F3(r.PRF.Recall), F3(r.PRF.F1), F2(r.Millis)})
	}
	return Table(headers, out)
}

// ---- E2b: matcher scaling ----

// ScaleRow is one schema-size point of the scaling curve.
type ScaleRow struct {
	// Elements is the per-side element count (entities + attributes).
	Elements int
	// Millis is the full-pipeline time per pair.
	Millis float64
	// F1 at that size.
	F1 float64
}

// RunScaling measures full-pipeline cost and quality as schema size
// grows — the engineering reality behind the paper's "large schema
// integration problems" (§4.3). Sizes are approximate per-side element
// counts.
func RunScaling(sizes []int, pcfg registry.PerturbConfig) []ScaleRow {
	var rows []ScaleRow
	for _, size := range sizes {
		entities := size / 6
		if entities < 2 {
			entities = 2
		}
		attrs := size - entities
		ps := BuildPairSetSized(1, entities, attrs, attrs, pcfg)
		p := ps.Pairs[0]
		start := time.Now()
		e := harmony.NewEngine(p.Source, p.Target, harmony.Options{Flooding: true})
		e.Run()
		sel := e.Matrix().StableMatching(0.25)
		elapsed := time.Since(start)
		rows = append(rows, ScaleRow{
			Elements: len(p.Source.Elements()),
			Millis:   float64(elapsed.Microseconds()) / 1000,
			F1:       Score(sel, p.Truth).F1,
		})
	}
	return rows
}

// FormatScaling renders the scaling curve.
func FormatScaling(rows []ScaleRow) string {
	headers := []string{"Elements/side", "ms/pair", "F1"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{I(r.Elements), F2(r.Millis), F3(r.F1)})
	}
	return Table(headers, out)
}

// ---- E6c: per-voter raw precision/recall ----

// VoterRow is one voter's raw-vote quality: every pair the voter scores
// at or above the threshold counts as predicted (no one-to-one
// selection). This is the granularity of the paper's §4.1 claim that the
// documentation matchers "have good recall, although their precision is
// less impressive".
type VoterRow struct {
	Voter string
	PRF   PRF
}

// RunVoterPR scores each Harmony voter standalone on its raw votes.
func RunVoterPR(ps PairSet, threshold float64) []VoterRow {
	var rows []VoterRow
	for _, v := range match.DefaultVoters() {
		var agg PRF
		for _, p := range ps.Pairs {
			ctx := match.NewContext(p.Source, p.Target)
			m := v.Vote(ctx)
			s := Score(m.Above(threshold), p.Truth)
			agg.TP += s.TP
			agg.FP += s.FP
			agg.FN += s.FN
		}
		rows = append(rows, VoterRow{Voter: v.Name(), PRF: agg.finish()})
	}
	return rows
}

// FormatVoters renders per-voter rows.
func FormatVoters(rows []VoterRow) string {
	headers := []string{"Voter", "Precision", "Recall", "F1"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Voter, F3(r.PRF.Precision), F3(r.PRF.Recall), F3(r.PRF.F1)})
	}
	return Table(headers, out)
}

// ---- E7: iterative learning ----

// LearningRound is one iteration's score.
type LearningRound struct {
	Round int
	PRF   PRF
}

// RunIterativeLearning simulates the §4.3 loop: each round, the engineer
// confirms/rejects the engine's top-k most confident undecided links
// (consulting ground truth, i.e. an ideal engineer), the engine learns
// and re-runs, and the remaining undecided links are scored. With
// learning disabled the engine still pins decisions but never re-weights.
func RunIterativeLearning(p EvalPair, rounds, perRound int, learning bool) []LearningRound {
	e := harmony.NewEngine(p.Source, p.Target, harmony.Options{Flooding: true})
	e.Run()
	var out []LearningRound
	for round := 0; round <= rounds; round++ {
		// Score current machine ranking on undecided pairs.
		var preds []match.Correspondence
		for _, c := range e.Matrix().StableMatching(0.25) {
			if !e.IsUserDefined(c.Source.ID, c.Target.ID) {
				preds = append(preds, c)
			}
		}
		// Decided-correct pairs count as resolved TPs.
		resolved := 0
		for pair, d := range e.Decisions() {
			if d.Accepted && p.Truth.Pairs[pair[0]] == pair[1] {
				resolved++
			}
		}
		s := Score(preds, p.Truth)
		s.TP += resolved
		s.FN -= resolved
		if s.FN < 0 {
			s.FN = 0
		}
		out = append(out, LearningRound{Round: round, PRF: s.finish()})
		if round == rounds {
			break
		}
		// Engineer feedback on the top-k undecided links.
		top := e.Matrix().MaxPerSource(0.1)
		sort.Slice(top, func(i, j int) bool { return top[i].Confidence > top[j].Confidence })
		given := 0
		for _, c := range top {
			if given >= perRound {
				break
			}
			if e.IsUserDefined(c.Source.ID, c.Target.ID) {
				continue
			}
			if p.Truth.Pairs[c.Source.ID] == c.Target.ID {
				_ = e.Accept(c.Source.ID, c.Target.ID)
			} else {
				_ = e.Reject(c.Source.ID, c.Target.ID)
			}
			given++
		}
		if learning {
			e.Learn()
		}
		e.Run()
	}
	return out
}

// ---- E8: filter effectiveness ----

// FilterRow reports one filter configuration's clutter statistics.
type FilterRow struct {
	Config    string
	Shown     int
	Total     int
	TruthKept float64 // fraction of true links still visible
}

// RunFilterEffectiveness measures how much each §4.2 filter cuts the
// displayed links and how much truth survives.
func RunFilterEffectiveness(p EvalPair) []FilterRow {
	e := harmony.NewEngine(p.Source, p.Target, harmony.Options{Flooding: true})
	e.Run()
	total := len(e.Links(harmony.View{}))

	truthVisible := func(links []harmony.Link) float64 {
		vis := map[string]string{}
		for _, l := range links {
			vis[l.Source.ID+"\x00"+l.Target.ID] = ""
		}
		kept := 0
		for s, t := range p.Truth.Pairs {
			if _, ok := vis[s+"\x00"+t]; ok {
				kept++
			}
		}
		if len(p.Truth.Pairs) == 0 {
			return 1
		}
		return float64(kept) / float64(len(p.Truth.Pairs))
	}

	entityRoot := firstEntity(p.Source)
	configs := []struct {
		name string
		view harmony.View
	}{
		{"none", harmony.View{}},
		{"confidence>=0.25", harmony.View{LinkFilters: []harmony.LinkFilter{harmony.ConfidenceFilter(0.25)}}},
		{"confidence>=0.5", harmony.View{LinkFilters: []harmony.LinkFilter{harmony.ConfidenceFilter(0.5)}}},
		{"max-confidence", harmony.View{MaxConfidence: true}},
		{"max+conf>=0.25", harmony.View{MaxConfidence: true, LinkFilters: []harmony.LinkFilter{harmony.ConfidenceFilter(0.25)}}},
		{"depth<=1", harmony.View{SourceNodeFilters: []harmony.NodeFilter{harmony.DepthFilter(1)}, TargetNodeFilters: []harmony.NodeFilter{harmony.DepthFilter(1)}}},
		{"subtree", harmony.View{SourceNodeFilters: []harmony.NodeFilter{harmony.SubtreeFilter(entityRoot)}}},
	}
	var rows []FilterRow
	for _, c := range configs {
		links := e.Links(c.view)
		rows = append(rows, FilterRow{
			Config:    c.name,
			Shown:     len(links),
			Total:     total,
			TruthKept: truthVisible(links),
		})
	}
	return rows
}

func firstEntity(s *model.Schema) *model.Element {
	ents := s.ElementsOfKind(model.KindEntity)
	if len(ents) == 0 {
		return s.Root()
	}
	return ents[0]
}

// FormatFilters renders filter-effectiveness rows.
func FormatFilters(rows []FilterRow) string {
	headers := []string{"Filter", "Links shown", "Of total", "Reduction", "Truth kept"}
	var out [][]string
	for _, r := range rows {
		red := 0.0
		if r.Total > 0 {
			red = 100 * (1 - float64(r.Shown)/float64(r.Total))
		}
		out = append(out, []string{
			r.Config, I(r.Shown), I(r.Total),
			fmt.Sprintf("%.0f%%", red), F2(r.TruthKept),
		})
	}
	return Table(headers, out)
}

// ---- E11: mapping reuse (§5.1.3) ----

// ReuseRound is one project's scores with and without the library voter.
type ReuseRound struct {
	Project      int
	WithoutF1    float64
	WithF1       float64
	LibraryCells int
}

// RunMappingReuse plays a sequence of related integration projects
// against one fixed target standard (the common enterprise situation:
// many systems map to the same message format). Project k's source is a
// fresh perturbed variant of the same base model; its ground truth is
// the composition variant→base→standard. Each project is scored first
// without and then with the mapping-library voter; afterwards the
// project's (ideal-engineer) decisions enter the library — the §5.1.3
// reuse loop.
func RunMappingReuse(projects int, pcfg registry.PerturbConfig) []ReuseRound {
	cfg := registry.DefaultConfig()
	cfg.Models = 1
	cfg.ElementsTotal = 12
	cfg.AttributesTotal = 60
	cfg.DomainValuesTotal = 90
	reg := registry.Generate(cfg)
	base := reg.Models[0]

	// The fixed target standard.
	stdCfg := pcfg
	stdCfg.Seed = 999
	standard, gtStd := registry.Perturb(base, stdCfg)
	standard.Name = "standard"

	bb := blackboard.New()
	if _, err := bb.PutSchema(standard); err != nil {
		return nil
	}
	var rounds []ReuseRound
	for k := 0; k < projects; k++ {
		vcfg := pcfg
		vcfg.Seed = int64(500 + k)
		variant, gtVar := registry.Perturb(base, vcfg)
		variant.Name = fmt.Sprintf("system%d", k)
		// Re-key the variant's element IDs: Perturb names the schema
		// "<base>_tgt", but AddElement already baked IDs under that name;
		// renaming the schema keeps IDs stable, which is all we need.

		// Compose ground truth: variant elem ↔ standard elem via base.
		gt := &registry.GroundTruth{Pairs: map[string]string{}}
		for baseID, varID := range gtVar.Pairs {
			if stdID, ok := gtStd.Pairs[baseID]; ok {
				gt.Pairs[varID] = stdID
			}
		}

		without := harmony.NewEngine(variant, standard, harmony.Options{Flooding: true})
		without.Run()
		woF1 := Score(without.Matrix().StableMatching(0.25), gt).F1

		with := harmony.NewEngine(variant, standard, harmony.Options{
			Voters:   reuse.VotersWithLibrary(bb),
			Flooding: true,
		})
		with.Run()
		wF1 := Score(with.Matrix().StableMatching(0.25), gt).F1

		// Record the project's true decisions into the library.
		if _, err := bb.PutSchema(variant); err == nil {
			if mp, err := bb.NewMapping(fmt.Sprintf("project-%d", k), variant.Name, standard.Name); err == nil {
				decisions := map[[2]string]bool{}
				for s, t := range gt.Pairs {
					decisions[[2]string{s, t}] = true
				}
				reuse.RecordDecisions(mp, decisions, "engineer")
			}
		}

		cells := 0
		for _, id := range bb.Mappings() {
			if mp, err := bb.GetMapping(id); err == nil {
				cells += mp.Len()
			}
		}
		rounds = append(rounds, ReuseRound{Project: k, WithoutF1: woF1, WithF1: wF1, LibraryCells: cells})
	}
	return rounds
}

// FormatReuse renders reuse rounds.
func FormatReuse(rounds []ReuseRound) string {
	headers := []string{"Project", "F1 without library", "F1 with library", "Library cells after"}
	var out [][]string
	for _, r := range rounds {
		out = append(out, []string{I(r.Project), F3(r.WithoutF1), F3(r.WithF1), I(r.LibraryCells)})
	}
	return Table(headers, out)
}

// ---- E2: Figure 1 pipeline stage timings ----

// StageRow aggregates one pipeline stage's time across runs.
type StageRow struct {
	Stage  string
	Millis float64
}

// RunPipelineStages times each Harmony stage over a pair, averaged over
// iters runs.
func RunPipelineStages(p EvalPair, iters int) []StageRow {
	totals := map[string]time.Duration{}
	var order []string
	for i := 0; i < iters; i++ {
		e := harmony.NewEngine(p.Source, p.Target, harmony.Options{Flooding: true})
		for _, st := range e.Run() {
			if _, seen := totals[st.Stage]; !seen {
				order = append(order, st.Stage)
			}
			totals[st.Stage] += st.Duration
		}
	}
	var rows []StageRow
	for _, stage := range order {
		rows = append(rows, StageRow{stage, float64(totals[stage].Microseconds()) / 1000 / float64(iters)})
	}
	return rows
}

// ---- E12: fully automated integration (tasks 3–9 without a human) ----

// AutoResult is the outcome of RunAutoIntegration.
type AutoResult struct {
	// MatchF1 scores the automatic correspondences.
	MatchF1 float64
	// EntityRules and Columns count the generated mapping's pieces.
	EntityRules int
	Columns     int
	// RecordsIn / RecordsOut count instances through the mapping.
	RecordsIn  int
	RecordsOut int
	// Violations from target-schema verification of the output.
	Violations int
	// AbsorbedErrors counts evaluation errors the NullOnError policy
	// absorbed (wrong auto-correspondences feeding bad conversions).
	AbsorbedErrors int
	// GeneratedCode is the assembled mapping.
	GeneratedCode string
}

// RunAutoIntegration drives tasks 3–9 with zero human input: Harmony
// matches, every one-to-one correspondence above the threshold is taken
// as accepted, identity/type-conversion code is proposed for each
// matched attribute, the program is assembled, synthesized source
// instances are pushed through it, and the output is verified against
// the target schema. It measures how far the workbench gets unattended —
// the upper bound the §6 usability analysis compares engineers against.
func RunAutoIntegration(p EvalPair, threshold float64, records int) (*AutoResult, error) {
	e := harmony.NewEngine(p.Source, p.Target, harmony.Options{Flooding: true})
	e.Run()
	matches := e.Matrix().StableMatching(threshold)
	res := &AutoResult{MatchF1: Score(matches, p.Truth).F1}

	// Group attribute matches under their matched entity pairs.
	entityPair := map[string]string{} // source entity ID → target entity ID
	for _, c := range matches {
		if c.Source.Kind == model.KindEntity && c.Target.Kind == model.KindEntity {
			entityPair[c.Source.ID] = c.Target.ID
		}
	}
	type ruleKey struct{ src, tgt string }
	rules := map[ruleKey]*mapgen.EntityRule{}
	for _, c := range matches {
		if c.Source.Kind != model.KindAttribute || c.Target.Kind != model.KindAttribute {
			continue
		}
		se, te := c.Source.Parent(), c.Target.Parent()
		if se == nil || te == nil || entityPair[se.ID] != te.ID {
			continue // attribute match without a matched entity context
		}
		k := ruleKey{se.ID, te.ID}
		rule := rules[k]
		if rule == nil {
			rule = &mapgen.EntityRule{
				TargetEntity: te.Name,
				SourceEntity: se.Name,
				Var:          "r",
			}
			rules[k] = rule
		}
		ref := "$r/" + c.Source.Name
		code := ref
		// Numeric targets get a data() conversion — unless the source
		// draws from a coding scheme, whose codes are opaque strings.
		if c.Source.DomainRef == "" {
			switch c.Target.DataType {
			case "decimal", "int", "integer", "float", "double", "numeric":
				code = "data(" + ref + ")"
			}
		}
		rule.Columns = append(rule.Columns, mapgen.ColumnRule{
			TargetField: c.Target.Name,
			Code:        code,
		})
	}
	prog := &mapgen.Program{Name: "auto"}
	keys := make([]ruleKey, 0, len(rules))
	for k := range rules {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].src < keys[j].src })
	for _, k := range keys {
		prog.Rules = append(prog.Rules, rules[k])
		res.Columns += len(rules[k].Columns)
	}
	res.EntityRules = len(prog.Rules)
	if res.EntityRules == 0 {
		return res, nil // nothing mapped; still a valid (empty) outcome
	}
	if err := prog.Compile(); err != nil {
		return nil, err
	}
	res.GeneratedCode = prog.GenerateXQuery()

	src := instance.Synthesize(p.Source, records, 11)
	res.RecordsIn = len(src.Records)
	// Unattended runs use the NullOnError policy (task 12): a wrong
	// auto-correspondence must not abort the whole load.
	out, absorbed, err := prog.ExecuteWithPolicy(src, mapgen.NullOnError)
	if err != nil {
		return nil, err
	}
	res.AbsorbedErrors = absorbed
	res.RecordsOut = len(out.Records)
	res.Violations = len(instance.Validate(p.Target, out))
	return res, nil
}

// ---- Ablations (DESIGN.md §5) ----

// AblationRow is one ablation configuration's score.
type AblationRow struct {
	Config string
	PRF    PRF
}

// RunAblations scores the design-choice ablations over a pair set.
func RunAblations(ps PairSet) []AblationRow {
	configs := []struct {
		name string
		run  func(src, tgt *model.Schema) []match.Correspondence
	}{
		{"full", func(s, t *model.Schema) []match.Correspondence {
			return selectTop(s, t, nil, true, 0.25)
		}},
		{"no-flooding", func(s, t *model.Schema) []match.Correspondence {
			return selectTop(s, t, nil, false, 0.25)
		}},
		{"no-magnitude-weighting", func(s, t *model.Schema) []match.Correspondence {
			e := harmony.NewEngine(s, t, harmony.Options{Flooding: true})
			e.Merger().MagnitudeWeighting = false
			e.Run()
			return e.Matrix().StableMatching(0.25)
		}},
		{"no-thesaurus", func(s, t *model.Schema) []match.Correspondence {
			voters := []match.Voter{match.NameVoter{}, match.DocVoter{}, match.DomainVoter{}, match.TypeVoter{}, match.StructureVoter{}}
			return selectTop(s, t, voters, true, 0.25)
		}},
		{"no-stemming", func(s, t *model.Schema) []match.Correspondence {
			e := harmony.NewEngine(s, t, harmony.Options{
				Flooding:       true,
				ContextOptions: []match.ContextOption{match.WithoutStemming()},
			})
			e.Run()
			return e.Matrix().StableMatching(0.25)
		}},
		{"no-domain-voter", func(s, t *model.Schema) []match.Correspondence {
			voters := []match.Voter{match.NameVoter{}, match.DocVoter{}, match.ThesaurusVoter{}, match.TypeVoter{}, match.StructureVoter{}}
			return selectTop(s, t, voters, true, 0.25)
		}},
	}
	var rows []AblationRow
	for _, c := range configs {
		var agg PRF
		for _, p := range ps.Pairs {
			s := Score(c.run(p.Source, p.Target), p.Truth)
			agg.TP += s.TP
			agg.FP += s.FP
			agg.FN += s.FN
		}
		rows = append(rows, AblationRow{c.name, agg.finish()})
	}
	return rows
}

// FormatAblations renders ablation rows.
func FormatAblations(rows []AblationRow) string {
	headers := []string{"Configuration", "Precision", "Recall", "F1"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Config, F3(r.PRF.Precision), F3(r.PRF.Recall), F3(r.PRF.F1)})
	}
	return Table(headers, out)
}
