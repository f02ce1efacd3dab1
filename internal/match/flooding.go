package match

import (
	"math"

	"repro/internal/model"
)

// Structural score adjustment (paper §4): "A version of similarity
// flooding adjusts the confidence scores based on structural information.
// Positive confidence scores propagate up the schema graph (e.g., from
// attributes to entities), and negative confidence scores trickle down
// the schema graph. Intuitively, two attributes are unlikely to match if
// their parent entities do not match."

// DisableFlood is a sentinel for FloodOptions fields meaning "off": a
// direction weight of DisableFlood (or any negative value) disables
// propagation in that direction, and Iterations = DisableFlood runs zero
// rounds. The zero value still selects the defaults, so existing callers
// that leave fields unset keep today's behavior.
const DisableFlood = -1

// FloodOptions tunes HarmonyFlood.
type FloodOptions struct {
	// Iterations is the number of propagation rounds (0 = default 2,
	// negative = no rounds).
	Iterations int
	// UpWeight scales child→parent positive propagation (0 = default 0.3,
	// negative = direction disabled).
	UpWeight float64
	// DownWeight scales parent→child negative propagation (0 = default
	// 0.3, negative = direction disabled).
	DownWeight float64
	// Parallelism shards each propagation round row-wise across a worker
	// pool (0 = GOMAXPROCS, 1 = sequential). Each goroutine owns disjoint
	// rows of the next-round matrix, so results are bit-identical at any
	// setting.
	Parallelism int
}

// defaults resolves the unset-vs-disabled convention: zero fields take
// the documented defaults, negative sentinels collapse to an inert 0.
func (o *FloodOptions) defaults() {
	switch {
	case o.Iterations == 0:
		o.Iterations = 2
	case o.Iterations < 0:
		o.Iterations = 0
	}
	switch {
	case o.UpWeight == 0:
		o.UpWeight = 0.3
	case o.UpWeight < 0:
		o.UpWeight = 0
	}
	switch {
	case o.DownWeight == 0:
		o.DownWeight = 0.3
	case o.DownWeight < 0:
		o.DownWeight = 0
	}
}

// HarmonyFlood applies the Harmony flooding variant to a merged matrix
// and returns the result; m itself is never written.
//
// Up-propagation: for each (sourceEntity, targetEntity) pair, the mean of
// the positive best-per-child correspondences among their children raises
// the pair's score. Down-propagation: for each (sourceChild, targetChild)
// pair whose parents score negatively, the parents' negativity drags the
// pair down.
func HarmonyFlood(m *Matrix, source, target *model.Schema, opts FloodOptions) *Matrix {
	out, _ := HarmonyFloodState(m, source, target, opts)
	return out
}

// FloodState records the matrix of every flooding round by reference
// (Rounds[0] is the pre-flood input, Rounds[k] the matrix round k
// produced, the last one the result), so a later incremental pass can
// copy unaffected cells round by round. Recorded rounds are immutable,
// like every snapshot matrix a cache index shares. The resolved option
// values are kept for a validity check: a state warm-starts a patch
// only under the exact same propagation schedule. Parallelism is
// deliberately not recorded — results are bit-identical at any worker
// count.
type FloodState struct {
	Rounds     []*Matrix
	Iterations int
	UpWeight   float64
	DownWeight float64
}

// HarmonyFloodState is HarmonyFlood plus the recorded FloodState, for
// warm-starting HarmonyFloodPatch later.
func HarmonyFloodState(m *Matrix, source, target *model.Schema, opts FloodOptions) (*Matrix, *FloodState) {
	opts.defaults()
	workers := ResolveWorkers(opts.Parallelism)
	st := newFloodState(m, opts)
	tree := newFloodTree(m)
	for it := 0; it < opts.Iterations; it++ {
		// Only stored cells propagate. floodCell reads only the frozen
		// round-start matrix cur and each goroutine owns disjoint rows of
		// next, so sharding is race-free. The structural reads inside
		// floodCell (children pairs, parent pair) go through At, which
		// reads a blocking-pruned pair as 0 — the parent closure in
		// BuildCandidates keeps the cells flooding actually needs inside
		// a blocking pattern.
		cur, next := m, NewMatrixLike(m)
		shardRows(workers, len(cur.Sources), func(i int) {
			for k, j := range cur.pat.Rows[i] {
				next.vals[i][k] = floodCell(cur, tree, i, int(j), cur.vals[i][k], opts)
			}
		})
		m = next
		st.Rounds = append(st.Rounds, next)
	}
	return m, st
}

// newFloodState starts the state of a flood of m under the resolved
// opts.
func newFloodState(m *Matrix, opts FloodOptions) *FloodState {
	return &FloodState{Rounds: []*Matrix{m}, Iterations: opts.Iterations, UpWeight: opts.UpWeight, DownWeight: opts.DownWeight}
}

// floodTree is the element tree of a matrix's two sides by row and
// column index, so floodCell reads its structural neighbours with At
// instead of resolving two element IDs per read. Every matrix of one
// flooding call shares its element lists, so the table is built once
// per call, in O(elements) index lookups.
type floodTree struct {
	src, tgt treeSide
}

// treeSide indexes one side's elements. parent[i] is the index of
// element i's parent: -1 under the root, or when the parent is not in
// the matrix. kids[i] holds the indices of its children in Children()
// order, -1 for a child not in the matrix (it still counts in
// childLift's mean, with best 0).
type treeSide struct {
	parent []int32
	kids   [][]int32
}

func newFloodTree(m *Matrix) *floodTree {
	return &floodTree{src: newTreeSide(m.Sources, m.srcIdx), tgt: newTreeSide(m.Targets, m.tgtIdx)}
}

func newTreeSide(els []*model.Element, index map[string]int) treeSide {
	at := func(e *model.Element) int32 {
		if i, ok := index[e.ID]; ok {
			return int32(i)
		}
		return -1
	}
	n := 0
	for _, e := range els {
		n += len(e.Children())
	}
	back := make([]int32, 0, n)
	t := treeSide{parent: make([]int32, len(els)), kids: make([][]int32, len(els))}
	for i, e := range els {
		t.parent[i] = -1
		if p := e.Parent(); p != nil && p.Kind != model.KindSchema {
			t.parent[i] = at(p)
		}
		start := len(back)
		for _, c := range e.Children() {
			back = append(back, at(c))
		}
		t.kids[i] = back[start:len(back):len(back)]
	}
	return t
}

// floodCell computes cell (i, j) of the next flooding round from the
// frozen round-start matrix m; v0 is that cell's round-start value
// (passed in so sweeps avoid a per-cell pattern lookup). This single
// kernel serves both the full sweep and the incremental patch, which is
// what makes warm-started results bit-identical to cold runs: both paths
// run the exact same float64 operations in the exact same order for
// every recomputed cell.
//
// The overwrite order mirrors the original two-sweep formulation: the
// up-propagation result is discarded when down-propagation also fires
// (both blend from the round-start value), and the clamp applies last.
func floodCell(m *Matrix, tree *floodTree, i, j int, v0 float64, opts FloodOptions) float64 {
	v := v0
	sk, tk := tree.src.kids[i], tree.tgt.kids[j]
	if opts.UpWeight > 0 && len(sk) > 0 && len(tk) > 0 && kindCompatible(m.Sources[i].Kind, m.Targets[j].Kind) {
		// Up: children lift parents.
		if lift := childLift(m, sk, tk); lift > 0 {
			v = blend(v0, lift, opts.UpWeight)
		}
	}
	if opts.DownWeight > 0 {
		// Down: negative parents drag children.
		if pi, pj := tree.src.parent[i], tree.tgt.parent[j]; pi >= 0 && pj >= 0 {
			if parentScore := m.At(int(pi), int(pj)); parentScore < 0 {
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

// childLift computes the mean positive best-match score between the
// source children sk and the target children tk (row and column
// indices, -1 for a child outside the matrix, whose scores read as 0).
func childLift(m *Matrix, sk, tk []int32) float64 {
	var sum float64
	n := 0
	for _, ci := range sk {
		best := 0.0
		if ci >= 0 {
			for _, cj := range tk {
				if cj < 0 {
					continue
				}
				if v := m.At(int(ci), int(cj)); v > best {
					best = v
				}
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

// blend moves cur toward val by weight w.
func blend(cur, val, w float64) float64 {
	return cur*(1-w) + val*w
}

// MelnikFlood is the classic similarity-flooding baseline (Melnik,
// Garcia-Molina, Rahm, ICDE 2002): build the pairwise connectivity graph
// over element pairs connected when both schemata connect them with the
// same edge label, then iterate sim' = normalize(sim0 + sim + Σ neighbor
// contributions) until the residual drops below epsilon or maxIter.
//
// Scores here live in [0,1]; the caller rescales to (-1,+1) when mixing
// with Harmony confidences. The initial matrix should also be in [0,1].
func MelnikFlood(init *Matrix, source, target *model.Schema, maxIter int, epsilon float64) *Matrix {
	if maxIter <= 0 {
		maxIter = 50
	}
	if epsilon <= 0 {
		epsilon = 1e-3
	}
	type pairKey struct{ i, j int }
	// Propagation edges: (parent pair) <-> (child pair) when edges share
	// a label. In the canonical tree model, each element has one parent
	// edge, so pairs are neighbors when both child edges carry the same
	// label.
	neighbors := map[pairKey][]pairKey{}
	addEdge := func(a, b pairKey) {
		neighbors[a] = append(neighbors[a], b)
		neighbors[b] = append(neighbors[b], a)
	}
	for i, s := range init.Sources {
		for j, t := range init.Targets {
			ps, pt := s.Parent(), t.Parent()
			if ps == nil || pt == nil {
				continue
			}
			if s.EdgeFromParent != t.EdgeFromParent {
				continue
			}
			pi, pj := init.SourceIndex(ps.ID), init.TargetIndex(pt.ID)
			if pi < 0 || pj < 0 {
				continue // parent is the root
			}
			addEdge(pairKey{pi, pj}, pairKey{i, j})
		}
	}

	// The fixpoint iteration normalises over every pair, so each round
	// is an unblocked matrix; a blocked init reads as 0 outside its
	// pattern.
	cur := init.Clone()
	for it := 0; it < maxIter; it++ {
		next := NewMatrix(init.Sources, init.Targets)
		maxVal := 0.0
		for i := range init.Sources {
			for j := range init.Targets {
				v := init.At(i, j) + cur.At(i, j)
				for _, nb := range neighbors[pairKey{i, j}] {
					deg := float64(len(neighbors[nb]))
					if deg > 0 {
						v += cur.At(nb.i, nb.j) / deg
					}
				}
				next.SetAt(i, j, v)
				if v > maxVal {
					maxVal = v
				}
			}
		}
		if maxVal > 0 {
			next.Each(func(i, j int, v float64) { next.SetAt(i, j, v/maxVal) })
		}
		// Residual.
		res := 0.0
		next.Each(func(i, j int, v float64) { res += math.Abs(v - cur.At(i, j)) })
		cur = next
		if res < epsilon {
			break
		}
	}
	return cur
}
