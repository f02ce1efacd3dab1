package match

import "repro/internal/model"

// Incremental recomputation (DESIGN.md §12). The refinement loop edits a
// handful of elements between runs, so each stage re-scores only the
// dirty rows and columns and copies every other cell from the previous
// run's output, aligned by element ID. Bit-identity with a cold run
// follows from two rules enforced here and in the engine:
//
//  1. Every recomputed cell goes through the exact same per-cell kernel
//     as the full path (votePair, Merger.mergeCell, floodCell) — same
//     float64 ops, same order. The one exception is the documentation
//     voter's unblocked full vote, which accumulates the same products
//     in the same order over term postings (DocVoter.Vote).
//  2. A cell is only ever copied when none of its inputs changed; the
//     caller's dirty sets must be closed under each stage's
//     dependencies (parents for StructureVoter, per-round
//     parent/children expansion for flooding — see HarmonyFloodPatch).

// scoreFunc scores one kind-compatible pair, source row i against target
// row j of the context; each built-in voter exposes its scoring closure
// so Vote and VotePatch share it.
type scoreFunc func(i, j int) float64

// IncrementalVoter is a Voter that can re-score only dirty rows and
// columns against a previous vote over the same context options.
type IncrementalVoter interface {
	Voter
	// VotePatch returns the matrix Vote(ctx) would return, reusing prev
	// (an earlier Vote output, aligned by element ID) for every cell
	// whose source row and target column are both clean.
	VotePatch(ctx *Context, prev *Matrix, dirtySrc, dirtyTgt map[string]bool) *Matrix
}

// CorpusSensitive marks voters whose scores depend on corpus-global
// state (TF-IDF document frequencies): any documentation change moves
// every IDF weight, so such voters need a full revote whenever the
// corpus fingerprint changes, not just dirty rows. Implemented by
// DocVoter.
type CorpusSensitive interface {
	CorpusSensitive() bool
}

// voteAll is the shared full-sweep body of every built-in voter.
func voteAll(ctx *Context, score scoreFunc) *Matrix {
	m := ctx.NewMatrix()
	forEachPair(ctx, m, score)
	return m
}

// votePatch recomputes rows in dirtySrc and columns in dirtyTgt (plus
// any row/column with no counterpart in prev) and copies the rest from
// prev. A recomputed cell goes through votePair, as in the full sweep,
// so it is bit-identical to its full-sweep value.
//
// The copy additionally requires the cell to be stored in prev: a cell
// new to the current pattern (blocking drifted or was toggled) has no
// previous value and is recomputed, which is exactly what a cold run
// computes for it — both sides are clean, so the scorer reads identical
// context state. A vote is per-cell, so prev's pattern never affects a
// copied value.
func votePatch(ctx *Context, prev *Matrix, dirtySrc, dirtyTgt map[string]bool, score scoreFunc) *Matrix {
	if prev == nil {
		return voteAll(ctx, score)
	}
	m := ctx.NewMatrix()
	oldRow := dropDirty(alignIndices(m.Sources, prev.SourceIndex), m.Sources, dirtySrc)
	oldCol := dropDirty(alignIndices(m.Targets, prev.TargetIndex), m.Targets, dirtyTgt)
	shardRows(ctx.Workers(), len(m.Sources), func(i int) {
		vals := m.vals[i]
		oi := int(oldRow[i])
		for k, j := range m.pat.Rows[i] {
			if oi >= 0 {
				if oj := oldCol[j]; oj >= 0 {
					if op := prev.pat.pos(oi, oj); op >= 0 {
						vals[k] = prev.vals[oi][op]
						continue
					}
				}
			}
			vals[k] = votePair(ctx, i, int(j), score)
		}
	})
	return m
}

// alignIndices maps each element to its index in a previous matrix
// (-1 when the element is new).
func alignIndices(elems []*model.Element, index func(string) int) []int32 {
	out := make([]int32, len(elems))
	for i, e := range elems {
		out[i] = int32(index(e.ID))
	}
	return out
}

// dropDirty sets the aligned index of every element in dirty to -1 and
// returns aligned. The patches resolve their dirty sets this way once
// per call, so a copy loop tests an index per cell, not a map.
func dropDirty(aligned []int32, elems []*model.Element, dirty map[string]bool) []int32 {
	for i, e := range elems {
		if dirty[e.ID] {
			aligned[i] = -1
		}
	}
	return aligned
}

// ExpandDirty closes a dirty element-ID set under the voter panel's
// structural dependency: StructureVoter scores an element by its
// children's names, so whenever an element changed, its current parent
// must be re-scored too. Parents of *removed* elements are the caller's
// job (they are absent from sch); the engine folds them in from its
// previous-run snapshot.
func ExpandDirty(sch *model.Schema, dirty map[string]bool) map[string]bool {
	out := make(map[string]bool, 2*len(dirty))
	for id := range dirty {
		out[id] = true
		e := sch.Element(id)
		if e == nil {
			continue
		}
		if p := e.Parent(); p != nil && p.Kind != model.KindSchema {
			out[p.ID] = true
		}
	}
	return out
}

// HarmonyFloodPatch warm-starts flooding from a previous run's recorded
// FloodState. Per round it recomputes only cells in the cross-shaped
// region R×all ∪ all×C and copies the rest from the corresponding
// recorded round, where R and C start as the callers' dirty sets and
// grow by parents(R) ∪ children(R) each round — exactly the cells a
// changed cell can influence: an up-sweep reads children-pair scores
// (dirty child ⇒ parent pair dirty next round) and a down-sweep reads
// the parent pair (dirty parent ⇒ child pairs dirty next round). The
// cross shape is closed under that expansion, so every recomputed cell
// reads a round-start matrix equal to the cold run's, and floodCell
// makes the recomputation itself bit-identical. Like HarmonyFloodState,
// the returned state records merged and each round by reference.
//
// ok is false when prev cannot warm-start this schedule (nil, different
// resolved options, wrong round count, or different blocking); callers
// then fall back to HarmonyFloodState.
func HarmonyFloodPatch(prev *FloodState, merged *Matrix, source, target *model.Schema, dirtySrc, dirtyTgt map[string]bool, opts FloodOptions) (*Matrix, *FloodState, bool) {
	opts.defaults()
	if prev == nil || len(prev.Rounds) != opts.Iterations+1 ||
		prev.Iterations != opts.Iterations ||
		prev.UpWeight != opts.UpWeight || prev.DownWeight != opts.DownWeight {
		return nil, nil, false
	}
	if !prev.Rounds[0].pat.sameBlocking(merged.pat) {
		// Flooding is the one stage with cross-cell reads: a cell's value
		// depends on which of its structural neighbors exist in the
		// pattern. An edit that reshuffles any row's top-K therefore moves
		// flood values in rows the dirty-set closure cannot see, so a
		// drifted blocking pattern, or blocking toggled either way,
		// forfeits the warm start entirely. Two full patterns never
		// drift: grown or shrunk element lists are dirty by definition
		// below. (Voter and merge patches stay safe under any pattern
		// change — they are strictly per-cell.)
		return nil, nil, false
	}
	workers := ResolveWorkers(opts.Parallelism)
	old := prev.Rounds[0]
	oldRow := alignIndices(merged.Sources, old.SourceIndex)
	oldCol := alignIndices(merged.Targets, old.TargetIndex)
	// Elements without a counterpart in the previous run are dirty by
	// definition; fold them in so the copy branch never misaligns.
	R := copyIDSet(dirtySrc)
	C := copyIDSet(dirtyTgt)
	for i, e := range merged.Sources {
		if oldRow[i] < 0 {
			R[e.ID] = true
		}
	}
	for j, e := range merged.Targets {
		if oldCol[j] < 0 {
			C[e.ID] = true
		}
	}
	st := newFloodState(merged, opts)
	tree := newFloodTree(merged)
	m := merged
	for it := 0; it < opts.Iterations; it++ {
		R = expandFloodSet(R, source)
		C = expandFloodSet(C, target)
		// The sets only grow, so the aligned indices are dropped in
		// place: -1 marks a dirty row or column.
		dropDirty(oldRow, merged.Sources, R)
		dropDirty(oldCol, merged.Targets, C)
		prevRound := prev.Rounds[it+1]
		// Cross-shaped patch: a clean cell is copied from its position in
		// the recorded round, every other cell recomputed.
		cur, next := m, NewMatrixLike(m)
		shardRows(workers, len(cur.Sources), func(i int) {
			oi := int(oldRow[i])
			for k, j := range cur.pat.Rows[i] {
				if oi >= 0 {
					if oj := oldCol[j]; oj >= 0 {
						if op := prevRound.pat.pos(oi, oj); op >= 0 {
							next.vals[i][k] = prevRound.vals[oi][op]
							continue
						}
					}
				}
				next.vals[i][k] = floodCell(cur, tree, i, int(j), cur.vals[i][k], opts)
			}
		})
		m = next
		st.Rounds = append(st.Rounds, next)
	}
	return m, st, true
}

func copyIDSet(in map[string]bool) map[string]bool {
	out := make(map[string]bool, len(in))
	for id, v := range in {
		if v {
			out[id] = true
		}
	}
	return out
}

// expandFloodSet grows a dirty set by one structural hop in each
// direction on the current schema.
func expandFloodSet(set map[string]bool, sch *model.Schema) map[string]bool {
	out := make(map[string]bool, 2*len(set))
	for id := range set {
		out[id] = true
		e := sch.Element(id)
		if e == nil {
			continue
		}
		if p := e.Parent(); p != nil && p.Kind != model.KindSchema {
			out[p.ID] = true
		}
		for _, c := range e.Children() {
			out[c.ID] = true
		}
	}
	return out
}
