package match

import "math"

// Merger combines the voter panel's matrices into one (paper §4: "Given k
// match voters, the vote merger combines the k values for each pair into
// a single confidence score. The vote merger weights each matcher's
// confidence based on its magnitude ... [and] weights each matcher in
// toto based on past performance").
type Merger struct {
	// weights holds the per-voter performance weight (default 1).
	weights map[string]float64
	// MagnitudeWeighting toggles |score| weighting (the DESIGN.md merger
	// ablation). On by default.
	MagnitudeWeighting bool
}

// NewMerger returns a merger with uniform voter weights.
func NewMerger() *Merger {
	return &Merger{weights: map[string]float64{}, MagnitudeWeighting: true}
}

// Weight returns the performance weight of a voter (1 when unlearned).
func (g *Merger) Weight(voter string) float64 {
	if w, ok := g.weights[voter]; ok {
		return w
	}
	return 1
}

// SetWeight assigns a voter's performance weight, clamped to [0.05, 5].
func (g *Merger) SetWeight(voter string, w float64) {
	if w < 0.05 {
		w = 0.05
	}
	if w > 5 {
		w = 5
	}
	g.weights[voter] = w
}

// Vote is one voter's matrix tagged with the voter's name.
type Vote struct {
	Voter  string
	Matrix *Matrix
}

// Merge combines per-voter matrices. Each cell's merged confidence is
//
//	Σ_i w_i · |c_i| · c_i  /  Σ_i w_i · |c_i|
//
// so voters near zero ("did not see enough evidence to make a strong
// prediction") barely influence the result, and per-voter performance
// weights w_i scale whole matchers. With MagnitudeWeighting off, |c_i| is
// replaced by 1 (plain weighted mean), the ablation baseline.
func (g *Merger) Merge(votes []Vote) *Matrix {
	if len(votes) == 0 {
		return nil
	}
	out := NewMatrixLike(votes[0].Matrix)
	aligned := votesAligned(votes, out.pat)
	weights := g.panelWeights(votes)
	for i, cols := range out.pat.Rows {
		for k, j := range cols {
			out.vals[i][k] = g.mergeCell(votes, weights, aligned, i, k, int(j))
		}
	}
	return out
}

// panelWeights resolves each vote's performance weight, in panel order,
// once per merge, so mergeCell looks no voter name up.
func (g *Merger) panelWeights(votes []Vote) []float64 {
	out := make([]float64, len(votes))
	for x, v := range votes {
		out[x] = g.Weight(v.Voter)
	}
	return out
}

// votesAligned reports whether every vote matrix stores exactly pat's
// cells (with no overflow cells), which licenses positional reads.
func votesAligned(votes []Vote, pat *Pattern) bool {
	for _, v := range votes {
		if len(v.Matrix.extra) > 0 || !v.Matrix.pat.Equal(pat) {
			return false
		}
	}
	return true
}

// mergeCell merges cell (i, j), stored at offset k of row i, across the
// panel, clamped to (-1, +1) open bounds (exactly ±1 is reserved for
// user decisions). Aligned votes are read at offset k; otherwise — a
// vote over a foreign pattern, such as a baseline's unblocked matrix
// under blocking — every vote is read exactly through At. The single
// kernel serves Merge and MergePatch so incremental re-merges are
// bit-identical — the votes slice must present the panel in the same
// order. weights[x] is the performance weight of votes[x]
// (panelWeights).
func (g *Merger) mergeCell(votes []Vote, weights []float64, aligned bool, i, k, j int) float64 {
	var num, den float64
	for x, v := range votes {
		var c float64
		if aligned {
			c = v.Matrix.vals[i][k]
		} else {
			c = v.Matrix.At(i, j)
		}
		w := weights[x]
		mag := 1.0
		if g.MagnitudeWeighting {
			mag = math.Abs(c)
		}
		num += w * mag * c
		den += w * mag
	}
	return clampMerged(num, den)
}

func clampMerged(num, den float64) float64 {
	var out float64
	if den > 0 {
		out = num / den
	}
	if out < -0.99 {
		out = -0.99
	}
	if out > 0.99 {
		out = 0.99
	}
	return out
}

// MergePatch re-merges only cells whose source row or target column is
// dirty, copying every other cell from prev (a full Merge output over
// the previous element lists, aligned by element ID). Rows or columns
// absent from prev are treated as dirty. The votes must be over the
// current element lists, in the same panel order as the run that
// produced prev.
func (g *Merger) MergePatch(votes []Vote, prev *Matrix, dirtySrc, dirtyTgt map[string]bool) *Matrix {
	if len(votes) == 0 {
		return nil
	}
	if prev == nil || len(prev.extra) > 0 {
		// No previous matrix, or one carrying out-of-pattern cells
		// (shouldn't happen for a pre-pin merge): recompute everything.
		return g.Merge(votes)
	}
	out := NewMatrixLike(votes[0].Matrix)
	aligned := votesAligned(votes, out.pat)
	weights := g.panelWeights(votes)
	oldRow := dropDirty(alignIndices(out.Sources, prev.SourceIndex), out.Sources, dirtySrc)
	oldCol := dropDirty(alignIndices(out.Targets, prev.TargetIndex), out.Targets, dirtyTgt)
	for i := range out.Sources {
		oi := int(oldRow[i])
		for k, j := range out.pat.Rows[i] {
			if oi >= 0 {
				if oj := oldCol[j]; oj >= 0 {
					if op := prev.pat.pos(oi, oj); op >= 0 {
						out.vals[i][k] = prev.vals[oi][op]
						continue
					}
					// Cell not stored in prev (blocking drifted or was
					// toggled): recompute. Both sides are clean, so the
					// merge reads votes identical to a cold run's.
				}
			}
			out.vals[i][k] = g.mergeCell(votes, weights, aligned, i, k, int(j))
		}
	}
	return out
}

// Feedback is one user decision on a pair: accepted (confidence pinned to
// +1) or rejected (pinned to -1).
type Feedback struct {
	SourceID, TargetID string
	Accepted           bool
}

// LearnWeights updates per-voter performance weights from user feedback
// (§4.3). A voter is credited when the sign of its vote agrees with the
// user's decision, proportionally to the magnitude of its vote, and
// debited when it disagrees. The learning rate is deliberately gentle:
// "learning new weights must be done carefully" (§4.3).
func (g *Merger) LearnWeights(votes []Vote, feedback []Feedback, rate float64) {
	if rate <= 0 {
		rate = 0.1
	}
	for _, v := range votes {
		var credit float64
		n := 0
		for _, f := range feedback {
			c := v.Matrix.Get(f.SourceID, f.TargetID)
			if c == 0 {
				continue // abstained: no credit either way
			}
			want := 1.0
			if !f.Accepted {
				want = -1
			}
			credit += want * c // agreement in sign → positive
			n++
		}
		if n == 0 {
			continue
		}
		avg := credit / float64(n) // in [-1, 1]
		g.SetWeight(v.Voter, g.Weight(v.Voter)*(1+rate*avg))
	}
}

// Weights returns a copy of the learned weight table.
func (g *Merger) Weights() map[string]float64 {
	out := make(map[string]float64, len(g.weights))
	for k, v := range g.weights {
		out[k] = v
	}
	return out
}
