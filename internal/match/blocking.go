package match

import (
	"sort"

	"repro/internal/lingo"
	"repro/internal/model"
)

// Blocking (candidate generation). At registry scale the full
// source×target cross product is the enemy: 10k×10k pairs is 10^8 cells
// per voter. BuildCandidates prunes that space *before* any voter runs,
// using only per-element evidence that can be inverted into indexes:
//
//   - an inverted index over stemmed name tokens (the context rows'
//     interned token IDs),
//   - an inverted index over thesaurus-expanded surface tokens, so a
//     synonym rename ("client" → "customer") still meets its partner,
//   - a character q-gram index over lowercased names (lingo.NGrams), so
//     abbreviations and typos sharing substrings stay reachable,
//   - the context's documentation postings (term ID → target rows,
//     with the term's TF-IDF weight), which accumulate exact cosine
//     contributions sparsely — the top-k cosine prefilter — instead of
//     comparing every vector pair. Every documented row has a positive
//     norm (IDF ≥ 1, learned word weight ≥ 0.1), so the table lists
//     exactly the rows a channel over normalized vectors would,
//   - a hierarchical channel: children of a source element's surviving
//     parent candidates get a bump proportional to the parent pair's
//     score. This is what rescues the pairs no per-element evidence can
//     reach (an undocumented attribute renamed past the thesaurus) —
//     the parent entities usually still recognize each other.
//
// Each channel bumps a per-target accumulator; the top-K targets per
// source row survive. The result is a Pattern the whole pipeline shares:
// voters, merger and flooding only ever touch surviving cells.
type BlockingOptions struct {
	// Enabled turns blocking on. Off (the zero value) keeps the dense
	// pipeline bit-identical to the pre-blocking engine.
	Enabled bool
	// PerSourceK is the number of candidate targets kept per source
	// element (0 = default 24).
	PerSourceK int
	// QGramSize is the character q-gram width for the name-substring
	// channel (0 = default 3, negative = channel disabled).
	QGramSize int
	// MaxPostingFrac caps a posting list's fan-out at this fraction of
	// the target count (0 = default 0.25): terms more common than that
	// carry almost no information (their IDF is near zero) but would
	// reintroduce quadratic work.
	MaxPostingFrac float64
	// NoParentClosure disables the structural closure that adds the
	// parent pair of every surviving pair. The closure is what lets
	// similarity flooding propagate through the sparse matrix, so leave
	// it on outside of ablations.
	NoParentClosure bool
}

func (o BlockingOptions) withDefaults() BlockingOptions {
	if o.PerSourceK <= 0 {
		o.PerSourceK = 24
	}
	if o.QGramSize == 0 {
		o.QGramSize = 3
	}
	if o.MaxPostingFrac <= 0 {
		o.MaxPostingFrac = 0.25
	}
	return o
}

// Channel weights. Token identity is the strongest single signal; the
// expanded channel is deliberately weaker (expansion inflates sets); the
// whole q-gram channel sums to at most 1 for a fully shared gram set;
// documentation cosine sums to at most its weight.
const (
	blockTokenWeight  = 1.0
	blockExpandWeight = 0.4
	blockDocWeight    = 1.5
	// blockStructWeight scales the hierarchical bump; it is multiplied
	// by the parent candidate's relative score, so children of the
	// best-ranked parent pair receive the full weight and children of
	// marginal parent candidates receive proportionally less.
	blockStructWeight = 1.2
)

// BuildCandidates runs the blocking index over ctx's schema pair and
// returns the surviving cell pattern. The construction is deterministic:
// postings are built in target order and keyed by interned ID, each
// source consults its documentation terms in ascending ID order — their
// string order, so the accumulated cosine sums are those of a walk over
// the strings — and ties in the top-K cut break by ascending column.
// Within the other channels every bump of one source carries the same
// weight, so their order cannot move a sum.
func BuildCandidates(ctx *Context, opts BlockingOptions) *Pattern {
	opts = opts.withDefaults()
	srcs, tgts := ctx.src, ctx.tgt
	nt := len(tgts)
	maxPost := int(opts.MaxPostingFrac*float64(nt)) + 8

	tokPost := make([][]int32, len(ctx.strs))
	expPost := make([][]int32, len(ctx.strs))
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
	}

	// Hierarchical channel inputs: target children by parent row, source
	// parent row by child row. Elements() is pre-order, so a source's
	// parent row is always finished before the source itself is scored.
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
	touched := make([]int32, 0, 4*opts.PerSourceK)
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
			grams := gramKeys(r.lower, opts.QGramSize)
			if len(grams) > 0 {
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
				if p, pw := ctx.postings.of(id); len(p) <= maxPost {
					for x, j := range p {
						bump(j, w*(pw[x]/ctx.tgtRows[j].doc.Norm))
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

// closeOverParents adds, for every surviving pair, the pair of its
// parents (transitively), so flooding's down-sweep always finds the
// parent cell it reads and the up-sweep has an entity-level cell to
// lift. Without this, a sparse matrix would silently disable structural
// propagation for rows whose entity pair scored below the lexical cut.
func closeOverParents(rows [][]int32, ctx *Context) {
	srcs, tgts := ctx.src, ctx.tgt
	srcIdx := make(map[string]int32, len(srcs))
	for i, e := range srcs {
		srcIdx[e.ID] = int32(i)
	}
	tgtIdx := make(map[string]int32, len(tgts))
	for j, e := range tgts {
		tgtIdx[e.ID] = int32(j)
	}
	present := make(map[int64]bool)
	type pair struct{ i, j int32 }
	var queue []pair
	for i, cols := range rows {
		for _, j := range cols {
			present[cellKey(i, int(j))] = true
			queue = append(queue, pair{int32(i), j})
		}
	}
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		ps := srcs[p.i].Parent()
		pt := tgts[p.j].Parent()
		if ps == nil || pt == nil || ps.Kind == model.KindSchema || pt.Kind == model.KindSchema {
			continue
		}
		pi, ok1 := srcIdx[ps.ID]
		pj, ok2 := tgtIdx[pt.ID]
		if !ok1 || !ok2 {
			continue
		}
		key := cellKey(int(pi), int(pj))
		if present[key] {
			continue
		}
		present[key] = true
		rows[pi] = append(rows[pi], pj)
		queue = append(queue, pair{pi, pj})
	}
}

// gramKeys returns the distinct character q-grams of s in sorted order.
func gramKeys(s string, n int) []string {
	grams := lingo.NGrams(s, n)
	if len(grams) == 0 {
		return nil
	}
	out := make([]string, 0, len(grams))
	for g := range grams {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// topKColumns selects the k highest-scoring touched columns (score
// descending, column ascending on ties) and returns them sorted
// ascending, ready for a Pattern row, alongside their scores (aligned
// with the returned columns; the hierarchical channel reads them).
func topKColumns(acc []float64, touched []int32, k int) ([]int32, []float64) {
	if len(touched) == 0 {
		return nil, nil
	}
	cand := make([]int32, len(touched))
	copy(cand, touched)
	sort.Slice(cand, func(a, b int) bool {
		x, y := cand[a], cand[b]
		if acc[x] != acc[y] {
			return acc[x] > acc[y]
		}
		return x < y
	})
	if len(cand) > k {
		cand = cand[:k]
	}
	sort.Slice(cand, func(a, b int) bool { return cand[a] < cand[b] })
	scores := make([]float64, len(cand))
	for i, c := range cand {
		scores[i] = acc[c]
	}
	return cand, scores
}
