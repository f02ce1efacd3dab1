package match

import (
	"strings"

	"repro/internal/lingo"
	"repro/internal/model"
)

// Baseline matchers for experiment E6 (DESIGN.md): simpler strategies the
// Harmony panel is compared against.

// NameEqualityMatcher marks pairs whose names are equal
// (case-insensitively) with +0.95 and everything else with 0 — the
// no-tooling strawman.
type NameEqualityMatcher struct{}

// Name implements Voter.
func (NameEqualityMatcher) Name() string { return "baseline-name-equality" }

// Vote implements Voter.
func (NameEqualityMatcher) Vote(ctx *Context) *Matrix {
	m := ctx.fullMatrix()
	for i, s := range m.Sources {
		for j, t := range m.Targets {
			if strings.EqualFold(s.Name, t.Name) {
				m.SetAt(i, j, 0.95)
			}
		}
	}
	return m
}

// EditDistanceMatcher scores pairs purely by normalized edit similarity
// over raw names — the classic string-matcher baseline.
type EditDistanceMatcher struct{}

// Name implements Voter.
func (EditDistanceMatcher) Name() string { return "baseline-edit-distance" }

// Vote implements Voter.
func (EditDistanceMatcher) Vote(ctx *Context) *Matrix {
	m := ctx.fullMatrix()
	for i, s := range ctx.srcRows {
		for j, t := range ctx.tgtRows {
			sim := lingo.EditSimilarity(s.lower, t.lower)
			m.SetAt(i, j, calibrate(sim, 0.5, 0.9, 0.5))
		}
	}
	return m
}

// COMAMatcher is a COMA-style composite (Do & Rahm, VLDB 2002): the
// average of a name-token matcher, a character-trigram matcher and a
// children-name matcher — structure and strings, but no documentation and
// no thesaurus, which is precisely the signal the paper argues enterprise
// schemata reward.
type COMAMatcher struct{}

// Name implements Voter.
func (COMAMatcher) Name() string { return "baseline-coma" }

// Vote implements Voter.
func (COMAMatcher) Vote(ctx *Context) *Matrix {
	m := ctx.fullMatrix()
	src, tgt := ctx.srcRows, ctx.tgtRows
	forEachPair(ctx, m, func(i, j int) float64 {
		s, t := &src[i], &tgt[j]
		name := lingo.JaccardIDs(s.name, t.name)
		tri := lingo.TrigramSimilarity(s.lower, t.lower)
		n := 2.0
		childSim := 0.0
		if s.kids > 0 && t.kids > 0 {
			childSim = lingo.JaccardIDs(s.children, t.children)
			n = 3
		}
		sim := (name + tri + childSim) / n
		return calibrate(sim, 0.4, 0.9, 0.5)
	})
	return m
}

// CupidMatcher is a Cupid-style baseline (Madhavan, Bernstein, Rahm,
// VLDB 2001): per-pair similarity is a weighted blend of linguistic
// similarity (name tokens + thesaurus) and structural similarity (for
// leaves, the parents' linguistic similarity; for inner nodes, the mean
// best leaf-pair similarity of their subtrees), wsim = wstruct·ssim +
// (1−wstruct)·lsim with the classic wstruct = 0.5.
type CupidMatcher struct {
	// WStruct is the structural weight (default 0.5 when zero).
	WStruct float64
}

// Name implements Voter.
func (CupidMatcher) Name() string { return "baseline-cupid" }

// Vote implements Voter.
func (c CupidMatcher) Vote(ctx *Context) *Matrix {
	ws := c.WStruct
	if ws == 0 {
		ws = 0.5
	}
	m := ctx.fullMatrix()
	// Linguistic similarity for every pair, computed up front (one row
	// per worker) so the scoring pass below only reads shared state. The
	// pass asks only for pairs of the matrix's own elements: parents
	// and children of non-root elements are non-root elements too.
	srcIdx := make(map[*model.Element]int, len(m.Sources))
	for i, e := range m.Sources {
		srcIdx[e] = i
	}
	tgtIdx := make(map[*model.Element]int, len(m.Targets))
	for j, e := range m.Targets {
		tgtIdx[e] = j
	}
	lsims := make([][]float64, len(m.Sources))
	shardRows(ctx.Workers(), len(m.Sources), func(i int) {
		row := make([]float64, len(m.Targets))
		for j := range row {
			row[j] = cupidLinguistic(ctx, i, j)
		}
		lsims[i] = row
	})
	lsim := func(s, t *model.Element) float64 { return lsims[srcIdx[s]][tgtIdx[t]] }
	forEachPair(ctx, m, func(i, j int) float64 {
		s, t := m.Sources[i], m.Targets[j]
		l := lsims[i][j]
		var ssim float64
		if s.IsLeaf() && t.IsLeaf() {
			// Leaves inherit context from their parents.
			ps, pt := s.Parent(), t.Parent()
			if ps != nil && pt != nil && ps.Kind != model.KindSchema && pt.Kind != model.KindSchema {
				ssim = lsim(ps, pt)
			}
		} else if !s.IsLeaf() && !t.IsLeaf() {
			// Inner nodes: mean best leaf-pair linguistic similarity.
			var sum float64
			n := 0
			for _, cs := range s.Children() {
				best := 0.0
				for _, ct := range t.Children() {
					if v := lsim(cs, ct); v > best {
						best = v
					}
				}
				sum += best
				n++
			}
			if n > 0 {
				ssim = sum / float64(n)
			}
		}
		wsim := ws*ssim + (1-ws)*l
		return calibrate(wsim, 0.35, 0.9, 0.4)
	})
	return m
}

// cupidLinguistic is Cupid's linguistic similarity of source row i and
// target row j: name-token Jaccard, or the thesaurus-expanded Jaccard
// when that is higher.
func cupidLinguistic(ctx *Context, i, j int) float64 {
	s, t := &ctx.srcRows[i], &ctx.tgtRows[j]
	base := lingo.JaccardIDs(s.name, t.name)
	if ctx.Thesaurus != nil {
		if exp := lingo.JaccardIDs(s.expanded, t.expanded); exp > base {
			base = exp
		}
	}
	return base
}

// MelnikMatcher is pure similarity flooding seeded with trigram name
// similarity — the Melnik ICDE 2002 system as a baseline matcher.
type MelnikMatcher struct{}

// Name implements Voter.
func (MelnikMatcher) Name() string { return "baseline-similarity-flooding" }

// Vote implements Voter.
func (MelnikMatcher) Vote(ctx *Context) *Matrix {
	init := ctx.fullMatrix()
	for i, s := range ctx.srcRows {
		for j, t := range ctx.tgtRows {
			init.SetAt(i, j, lingo.TrigramSimilarity(s.lower, t.lower))
		}
	}
	out := MelnikFlood(init, ctx.Source, ctx.Target, 50, 1e-3)
	// Rescale [0,1] → (-1,+1) confidence convention.
	out.Each(func(i, j int, v float64) { out.SetAt(i, j, v*2-1) })
	out.Clamp(-0.99, 0.99)
	return out
}
