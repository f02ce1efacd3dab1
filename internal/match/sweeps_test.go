package match

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/registry"
)

// Reference checks for the full sweeps that read row indices: the
// documentation voter's vote over term postings, flooding over a tree
// table, and blocking's documentation channel over the context's
// postings. Each must reproduce, bit for bit, the per-pair or ID-keyed
// computation it replaced.

var sweepWords = []string{
	"order", "amount", "total", "customer", "address", "shipping", "code",
	"line", "net", "tax", "client", "street", "département", "école",
	"straße", "価格", "データ", "number", "date", "status",
}

// sweepSchema builds a random schema of entities, relationships (kind-
// incompatible with attributes and each other's attributes), nested
// entities and attributes. A quarter of the elements are undocumented;
// the rest draw 1–9 words, repeats included, so documented pairs share
// several terms and the order of a cosine's products matters.
func sweepSchema(rng *rand.Rand, name string, entities int) *model.Schema {
	s := model.NewSchema(name, "er")
	doc := func() string {
		if rng.Intn(4) == 0 {
			return ""
		}
		words := make([]string, 1+rng.Intn(9))
		for k := range words {
			words[k] = sweepWords[rng.Intn(len(sweepWords))]
		}
		return strings.Join(words, " ")
	}
	var attach func(parent *model.Element, prefix string, depth int)
	attach = func(parent *model.Element, prefix string, depth int) {
		for a := 0; a < rng.Intn(6); a++ {
			at := s.AddElement(parent, fmt.Sprintf("%s_a%d", prefix, a), model.KindAttribute, model.ContainsAttribute)
			at.Doc = doc()
		}
		if depth < 2 && rng.Intn(3) == 0 {
			sub := s.AddElement(parent, prefix+"_sub", model.KindEntity, model.ContainsElement)
			sub.Doc = doc()
			attach(sub, prefix+"_sub", depth+1)
		}
	}
	for e := 0; e < entities; e++ {
		kind := model.KindEntity
		if rng.Intn(4) == 0 {
			kind = model.KindRelationship
		}
		ent := s.AddElement(nil, fmt.Sprintf("E%d", e), kind, model.ContainsElement)
		ent.Doc = doc()
		attach(ent, fmt.Sprintf("E%d", e), 0)
	}
	return s
}

// assertDocVoteMatchesPairKernel checks DocVoter.Vote against votePair
// over the documentation scorer — the per-pair CosineIDs kernel — for
// every cell, bit for bit.
func assertDocVoteMatchesPairKernel(t *testing.T, label string, ctx *Context) {
	t.Helper()
	got := DocVoter{}.Vote(ctx)
	if got.Sparse() {
		t.Fatalf("%s: unblocked context produced a blocked vote", label)
	}
	score := DocVoter{}.scorer(ctx)
	for i := range ctx.srcRows {
		for j := range ctx.tgtRows {
			g, w := got.At(i, j), votePair(ctx, i, j, score)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: cell (%s, %s) = %v over postings, %v per pair",
					label, ctx.src[i].ID, ctx.tgt[j].ID, g, w)
			}
		}
	}
}

// TestDocVotePostingsMatchPairKernel covers the postings table's three
// derivations — NewContext, RederiveVectors after learned word weights,
// and a Refresh over a replaced target that moves target rows and a
// document — at Parallelism 1, 0 and 1000, which is more workers than
// any of these pairs has rows.
func TestDocVotePostingsMatchPairKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for n := 0; n < 12; n++ {
		for _, par := range []int{1, 0, 1000} {
			src, tgt := sweepSchema(rng, "s", 5+rng.Intn(6)), sweepSchema(rng, "t", 5+rng.Intn(6))
			ctx := NewContext(src, tgt, WithParallelism(par))
			label := fmt.Sprintf("pair %d, parallelism %d", n, par)
			assertDocVoteMatchesPairKernel(t, label+", fresh", ctx)

			// Learn: move some words' weights, then re-derive.
			for k := 0; k < 6; k++ {
				r := &ctx.tgtRows[rng.Intn(len(ctx.tgtRows))]
				if len(r.doc.Terms) == 0 {
					continue
				}
				factor := 1.15
				if k%2 == 1 {
					factor = 0.9
				}
				ctx.Corpus.AdjustWordWeight(ctx.strs[r.doc.Terms[rng.Intn(len(r.doc.Terms))]], factor)
			}
			ctx.RederiveVectors()
			assertDocVoteMatchesPairKernel(t, label+", learned", ctx)

			// A new target object: an undocumented attribute added under
			// the first entity shifts every later target row, dropping an
			// undocumented one shifts them back past it, and a new word in
			// the first entity's document moves every IDF weight.
			tgt = tgt.Clone()
			first := tgt.Root().Children()[0]
			first.Doc += " zeppelin"
			added := tgt.AddElement(first, "late", model.KindAttribute, model.ContainsAttribute)
			dirtyTgt := map[string]bool{first.ID: true, added.ID: true}
			for _, e := range tgt.Elements() {
				if e.Kind == model.KindAttribute && e.Doc == "" && e != added && e.Parent() != first {
					tgt.RemoveElement(e.ID)
					dirtyTgt[e.ID] = true
					break
				}
			}
			ctx.Refresh(src, tgt, nil, dirtyTgt)
			assertDocVoteMatchesPairKernel(t, label+", refreshed", ctx)
		}
	}
}

// docVoteBlockedPostings is the documentation vote over a blocked
// matrix through the postings, sequentially: each source row
// accumulates its dot products with every target in a full-width row,
// and then only the row's stored cells are scored, as docRow scores
// them. DocVoter.Vote keeps the per-pair kernel for a blocked matrix
// instead; BenchmarkBlockedDocumentationVote times the two.
func docVoteBlockedPostings(ctx *Context) *Matrix {
	m := ctx.NewMatrix()
	dot := make([]float64, len(ctx.tgtRows))
	for i := range m.Sources {
		clear(dot)
		s := &ctx.srcRows[i]
		vs := &s.doc
		for k, id := range vs.Terms {
			rows, weights := ctx.postings.of(id)
			for x, j := range rows {
				dot[j] += vs.Weights[k] * weights[x]
			}
		}
		for k, j := range m.pat.Rows[i] {
			t := &ctx.tgtRows[j]
			switch {
			case !kindCompatible(s.kind, t.kind):
				m.vals[i][k] = -0.75
			case len(vs.Terms) == 0 || len(t.doc.Terms) == 0:
			default:
				var sim float64
				if vs.Norm != 0 && t.doc.Norm != 0 {
					sim = dot[j] / (vs.Norm * t.doc.Norm)
				}
				m.vals[i][k] = calibrate(sim, 0.2, 0.9, 0.2)
			}
		}
	}
	return m
}

var matrixSink *Matrix

// BenchmarkBlockedDocumentationVote times the documentation vote over a
// blocked registry pair both ways, sequentially: the per-pair kernel
// DocVoter.Vote runs ("pair") and a walk over the postings ("postings").
// The per-pair cost follows the cells the pattern stores, a few dozen
// per source row (PerSourceK plus the parent pairs the pattern is closed
// over); the postings cost follows every target that shares a term with
// the row, which grows with the schema.
func BenchmarkBlockedDocumentationVote(b *testing.B) {
	for _, n := range []int{1000, 3000, 10000} {
		cfg := registry.DefaultConfig()
		cfg.Seed, cfg.Models = 1, 1
		cfg.ElementsTotal = n * 8 / 100
		cfg.AttributesTotal = n - cfg.ElementsTotal
		cfg.DomainValuesTotal = n
		src := registry.Generate(cfg).Models[0]
		tgt, _ := registry.Perturb(src, registry.DefaultPerturb())
		ctx := NewContext(src, tgt, WithParallelism(1))
		ctx.SetCandidates(BuildCandidates(ctx, BlockingOptions{Enabled: true}))
		pair, post := DocVoter{}.Vote(ctx), docVoteBlockedPostings(ctx)
		for i := range pair.vals {
			for k := range pair.vals[i] {
				if math.Float64bits(pair.vals[i][k]) != math.Float64bits(post.vals[i][k]) {
					b.Fatalf("%d elements: cell (%d, %d) = %v per pair, %v over postings",
						n, i, pair.pat.Rows[i][k], pair.vals[i][k], post.vals[i][k])
				}
			}
		}
		b.Run(fmt.Sprintf("%delem/pair", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matrixSink = DocVoter{}.Vote(ctx)
			}
			b.ReportMetric(float64(pair.NNZ()), "cells")
		})
		b.Run(fmt.Sprintf("%delem/postings", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matrixSink = docVoteBlockedPostings(ctx)
			}
		})
	}
}

// floodCellRef and childLiftRef are the ID-keyed flooding kernels the
// tree table replaced: every neighbour read resolves two element IDs
// through Get.
func floodCellRef(m *Matrix, s, t *model.Element, v0 float64, opts FloodOptions) float64 {
	v := v0
	if opts.UpWeight > 0 && !s.IsLeaf() && !t.IsLeaf() && kindCompatible(s.Kind, t.Kind) {
		if lift := childLiftRef(m, s, t); lift > 0 {
			v = blend(v0, lift, opts.UpWeight)
		}
	}
	if opts.DownWeight > 0 {
		ps, pt := s.Parent(), t.Parent()
		if ps != nil && ps.Kind != model.KindSchema && pt != nil && pt.Kind != model.KindSchema {
			if parentScore := m.Get(ps.ID, pt.ID); parentScore < 0 {
				v = blend(v0, parentScore, opts.DownWeight)
			}
		}
	}
	if v < -0.99 {
		v = -0.99
	}
	if v > 0.99 {
		v = 0.99
	}
	return v
}

func childLiftRef(m *Matrix, s, t *model.Element) float64 {
	var sum float64
	n := 0
	for _, cs := range s.Children() {
		best := 0.0
		for _, ct := range t.Children() {
			if v := m.Get(cs.ID, ct.ID); v > best {
				best = v
			}
		}
		sum += best
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// harmonyFloodRef runs the ID-keyed rounds sequentially and returns
// every round, the input first.
func harmonyFloodRef(m *Matrix, opts FloodOptions) []*Matrix {
	opts.defaults()
	rounds := []*Matrix{m}
	for it := 0; it < opts.Iterations; it++ {
		next := NewMatrixLike(m)
		for i, cols := range m.pat.Rows {
			for k, j := range cols {
				next.vals[i][k] = floodCellRef(m, m.Sources[i], m.Targets[j], m.vals[i][k], opts)
			}
		}
		m = next
		rounds = append(rounds, m)
	}
	return rounds
}

// floodInput builds a random merged matrix over some of the schemas'
// elements, so that some children and parents have no index, either
// over every pair or over a random blocking pattern.
func floodInput(rng *rand.Rand, src, tgt *model.Schema, blocked bool) *Matrix {
	subset := func(els []*model.Element) []*model.Element {
		var out []*model.Element
		for _, e := range els {
			if rng.Intn(8) != 0 {
				out = append(out, e)
			}
		}
		return out
	}
	ss, ts := subset(src.Elements()), subset(tgt.Elements())
	m := NewMatrix(ss, ts)
	if blocked {
		rows := make([][]int32, len(ss))
		for i := range rows {
			for j := range ts {
				if rng.Intn(3) == 0 {
					rows[i] = append(rows[i], int32(j))
				}
			}
		}
		m = NewSparseMatrix(ss, ts, NewPattern(rows))
	}
	for i, cols := range m.pat.Rows {
		for k := range cols {
			m.vals[i][k] = 2*rng.Float64() - 1
		}
	}
	return m
}

var floodSchedules = []FloodOptions{
	{},
	{Iterations: 3, UpWeight: 0.5, DownWeight: 0.2},
	{Iterations: 2, UpWeight: DisableFlood},
	{Iterations: 2, DownWeight: DisableFlood},
}

// TestFloodTreeMatchesIDKernel checks HarmonyFloodState, round by round,
// against the ID-keyed kernels, on full and blocked patterns over
// element lists that leave some parents and children out.
func TestFloodTreeMatchesIDKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for n := 0; n < 10; n++ {
		src, tgt := sweepSchema(rng, "s", 4+rng.Intn(5)), sweepSchema(rng, "t", 4+rng.Intn(5))
		for _, blocked := range []bool{false, true} {
			m := floodInput(rng, src, tgt, blocked)
			for si, opts := range floodSchedules {
				want := harmonyFloodRef(m, opts)
				for _, par := range []int{1, 0} {
					opts.Parallelism = par
					_, st := HarmonyFloodState(m, src, tgt, opts)
					if len(st.Rounds) != len(want) {
						t.Fatalf("%d rounds, reference %d", len(st.Rounds), len(want))
					}
					for k := range want {
						matricesBitIdentical(t, fmt.Sprintf("pair %d, blocked %v, schedule %d, parallelism %d, round %d", n, blocked, si, par, k), want[k], st.Rounds[k])
					}
				}
			}
		}
	}
}

// TestFloodPatchMatchesIDKernel re-randomizes the cells of random dirty
// rows and columns and checks HarmonyFloodPatch, warm-started from the
// previous state, against the ID-keyed rounds over the new input.
func TestFloodPatchMatchesIDKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for n := 0; n < 10; n++ {
		src, tgt := sweepSchema(rng, "s", 4+rng.Intn(5)), sweepSchema(rng, "t", 4+rng.Intn(5))
		for _, blocked := range []bool{false, true} {
			m := floodInput(rng, src, tgt, blocked)
			for si, opts := range floodSchedules {
				_, prev := HarmonyFloodState(m, src, tgt, opts)
				next := m.Clone()
				dirtySrc, dirtyTgt := map[string]bool{}, map[string]bool{}
				for i, e := range next.Sources {
					if rng.Intn(6) == 0 {
						dirtySrc[e.ID] = true
						for k := range next.vals[i] {
							next.vals[i][k] = 2*rng.Float64() - 1
						}
					}
				}
				for j, e := range next.Targets {
					if rng.Intn(6) != 0 {
						continue
					}
					dirtyTgt[e.ID] = true
					for i := range next.pat.Rows {
						if k := next.pat.pos(i, int32(j)); k >= 0 {
							next.vals[i][k] = 2*rng.Float64() - 1
						}
					}
				}
				want := harmonyFloodRef(next, opts)
				for _, par := range []int{1, 0} {
					opts.Parallelism = par
					_, st, ok := HarmonyFloodPatch(prev, next, src, tgt, dirtySrc, dirtyTgt, opts)
					if !ok {
						t.Fatal("HarmonyFloodPatch refused a state over the same pattern and schedule")
					}
					for k := range want {
						matricesBitIdentical(t, fmt.Sprintf("pair %d, blocked %v, schedule %d, parallelism %d, round %d", n, blocked, si, par, k), want[k], st.Rounds[k])
					}
				}
			}
		}
	}
}

// buildCandidatesRef is BuildCandidates with the documentation channel
// it had before the context kept postings: its own postings over the
// targets with a positive norm, each holding the normalized weight.
func buildCandidatesRef(ctx *Context, opts BlockingOptions) *Pattern {
	opts = opts.withDefaults()
	srcs, tgts := ctx.src, ctx.tgt
	nt := len(tgts)
	maxPost := int(opts.MaxPostingFrac*float64(nt)) + 8

	type docHit struct {
		j int32
		w float64
	}
	tokPost := make([][]int32, len(ctx.strs))
	expPost := make([][]int32, len(ctx.strs))
	docPost := make([][]docHit, len(ctx.strs))
	var qPost map[string][]int32
	if opts.QGramSize > 0 {
		qPost = make(map[string][]int32)
	}
	for j := range tgts {
		jj, r := int32(j), &ctx.tgtRows[j]
		for _, id := range r.name {
			tokPost[id] = append(tokPost[id], jj)
		}
		for _, id := range r.expanded {
			expPost[id] = append(expPost[id], jj)
		}
		if qPost != nil {
			for _, g := range gramKeys(r.lower, opts.QGramSize) {
				qPost[g] = append(qPost[g], jj)
			}
		}
		if v := &r.doc; v.Norm > 0 {
			for k, id := range v.Terms {
				docPost[id] = append(docPost[id], docHit{jj, v.Weights[k] / v.Norm})
			}
		}
	}
	tgtIdx := make(map[string]int32, nt)
	for j, t := range tgts {
		tgtIdx[t.ID] = int32(j)
	}
	tgtChildren := make([][]int32, nt)
	for j, t := range tgts {
		if q := t.Parent(); q != nil && q.Kind != model.KindSchema {
			if qi, ok := tgtIdx[q.ID]; ok {
				tgtChildren[qi] = append(tgtChildren[qi], int32(j))
			}
		}
	}
	srcIdx := make(map[string]int, len(srcs))
	for i, s := range srcs {
		srcIdx[s.ID] = i
	}
	acc := make([]float64, nt)
	var touched []int32
	bump := func(j int32, w float64) {
		if acc[j] == 0 {
			touched = append(touched, j)
		}
		acc[j] += w
	}
	rows := make([][]int32, len(srcs))
	rowScores := make([][]float64, len(srcs))
	for i, s := range srcs {
		r := &ctx.srcRows[i]
		for _, id := range r.name {
			if p := tokPost[id]; len(p) <= maxPost {
				for _, j := range p {
					bump(j, blockTokenWeight)
				}
			}
		}
		for _, id := range r.expanded {
			if p := expPost[id]; len(p) <= maxPost {
				for _, j := range p {
					bump(j, blockExpandWeight)
				}
			}
		}
		if qPost != nil {
			if grams := gramKeys(r.lower, opts.QGramSize); len(grams) > 0 {
				gw := 1.0 / float64(len(grams))
				for _, g := range grams {
					if p := qPost[g]; len(p) <= maxPost {
						for _, j := range p {
							bump(j, gw)
						}
					}
				}
			}
		}
		if v := &r.doc; v.Norm > 0 {
			for k, id := range v.Terms {
				w := blockDocWeight * v.Weights[k] / v.Norm
				if p := docPost[id]; len(p) <= maxPost {
					for _, h := range p {
						bump(h.j, w*h.w)
					}
				}
			}
		}
		if p := s.Parent(); p != nil && p.Kind != model.KindSchema {
			if pi, ok := srcIdx[p.ID]; ok && pi < i && len(rows[pi]) > 0 {
				best := 0.0
				for _, sc := range rowScores[pi] {
					if sc > best {
						best = sc
					}
				}
				if best > 0 {
					for k, c := range rows[pi] {
						w := blockStructWeight * rowScores[pi][k] / best
						for _, j := range tgtChildren[c] {
							bump(j, w)
						}
					}
				}
			}
		}
		rows[i], rowScores[i] = topKColumns(acc, touched, opts.PerSourceK)
		for _, j := range touched {
			acc[j] = 0
		}
		touched = touched[:0]
	}
	if !opts.NoParentClosure {
		closeOverParents(rows, ctx)
	}
	return NewPattern(rows)
}

// TestBuildCandidatesPostingsMatchOldDocChannel checks BuildCandidates against
// its own documentation postings of before, on the registry fixture and
// on random pairs, with learned word weights, and with a tight K and a
// low posting cap so the documentation channel decides the cut.
func TestBuildCandidatesPostingsMatchOldDocChannel(t *testing.T) {
	optsList := []BlockingOptions{{}, {PerSourceK: 3, MaxPostingFrac: 0.05}, {PerSourceK: 5, QGramSize: -1, NoParentClosure: true}}
	check := func(label string, ctx *Context) {
		t.Helper()
		for k, opts := range optsList {
			if got, want := BuildCandidates(ctx, opts), buildCandidatesRef(ctx, opts); !got.Equal(want) {
				t.Fatalf("%s, options %d: %d cells, reference %d", label, k, got.NNZ(), want.NNZ())
			}
		}
	}
	fix, _ := blockingFixture(t)
	check("registry fixture", fix)
	rng := rand.New(rand.NewSource(41))
	for n := 0; n < 10; n++ {
		ctx := NewContext(sweepSchema(rng, "s", 6+rng.Intn(8)), sweepSchema(rng, "t", 6+rng.Intn(8)))
		check(fmt.Sprintf("pair %d", n), ctx)
		for k := 0; k < 4; k++ {
			if r := &ctx.srcRows[rng.Intn(len(ctx.srcRows))]; len(r.doc.Terms) > 0 {
				ctx.Corpus.AdjustWordWeight(ctx.strs[r.doc.Terms[0]], 0.9)
			}
		}
		ctx.RederiveVectors()
		check(fmt.Sprintf("pair %d, learned", n), ctx)
	}
}

// TestFloodStatesRecordByReference checks that a recorded state holds
// the matrices themselves: its first round is the input and its last
// the returned matrix, for a cold flood and a warm-started patch alike,
// and a zero-round flood returns its input. Neither call writes its
// input.
func TestFloodStatesRecordByReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	src, tgt := sweepSchema(rng, "s", 6), sweepSchema(rng, "t", 6)
	schedules := append([]FloodOptions{{Iterations: DisableFlood}}, floodSchedules...)
	for _, blocked := range []bool{false, true} {
		for si, opts := range schedules {
			label := fmt.Sprintf("blocked %v, schedule %d", blocked, si)
			m := floodInput(rng, src, tgt, blocked)
			before := m.Clone()
			out, st := HarmonyFloodState(m, src, tgt, opts)
			if st.Rounds[0] != m || st.Rounds[len(st.Rounds)-1] != out {
				t.Fatalf("%s: HarmonyFloodState's rounds are not its input and result", label)
			}
			matricesBitIdentical(t, label+": input after the flood", before, m)

			next := m.Clone()
			dirty := map[string]bool{next.Sources[0].ID: true}
			for k := range next.vals[0] {
				next.vals[0][k] = 2*rng.Float64() - 1
			}
			out, pst, ok := HarmonyFloodPatch(st, next, src, tgt, dirty, map[string]bool{}, opts)
			if !ok {
				t.Fatalf("%s: HarmonyFloodPatch refused its own state", label)
			}
			if pst.Rounds[0] != next || pst.Rounds[len(pst.Rounds)-1] != out {
				t.Fatalf("%s: HarmonyFloodPatch's rounds are not its input and result", label)
			}
			matricesBitIdentical(t, label+": previous state after the patch", before, st.Rounds[0])
		}
	}
}
