// Package match implements the Harmony match engine's voting layer
// (paper §4, Figure 1): a panel of match voters, each scoring every
// [source element, target element] pair with a confidence in (-1, +1); a
// vote merger that combines the panel magnitude- and performance-weighted;
// and the structural similarity-flooding adjustment. Baseline matchers
// (name equality, edit distance, Melnik-style flooding, a COMA-style
// composite) live here too so that experiments can compare approaches.
package match

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/model"
)

// Confidence semantics (paper §4): -1 = definitely no correspondence,
// +1 = definite correspondence, 0 = complete uncertainty.

// Matrix holds a confidence score for (source, target) element pairs.
// Element order is the schemata's deterministic pre-order.
//
// A matrix stores the cells of a Pattern, CSR-style: one backing value
// array carved into per-row slices aligned with Pattern.Rows. An
// unblocked matrix stores the full pattern, every pair; a blocked one
// stores only the cells of its blocking pattern, and every other pair
// reads as 0 ("no evidence"). Out-of-pattern writes (user decision
// pins) land in an overflow map so a Set never silently drops.
type Matrix struct {
	Sources []*model.Element
	Targets []*model.Element

	// pat is the shared immutable cell pattern, vals[i][k] the value of
	// cell (i, pat.Rows[i][k]), and extra holds out-of-pattern writes
	// keyed by i<<32|j.
	pat   *Pattern
	vals  [][]float64
	extra map[int64]float64

	srcIdx map[string]int
	tgtIdx map[string]int
}

// NewMatrix allocates a zero matrix storing every pair of the given
// element lists.
func NewMatrix(sources, targets []*model.Element) *Matrix {
	return NewSparseMatrix(sources, targets, fullPattern(len(sources), len(targets)))
}

// MatrixOver builds a matrix over all non-root elements of two schemata.
func MatrixOver(source, target *model.Schema) *Matrix {
	return NewMatrix(source.Elements(), target.Elements())
}

// NewSparseMatrix allocates a zero matrix storing only the cells of pat.
// pat.Rows must have exactly len(sources) rows with columns
// < len(targets); the pattern is shared, not copied.
func NewSparseMatrix(sources, targets []*model.Element, pat *Pattern) *Matrix {
	m := &Matrix{
		Sources: sources,
		Targets: targets,
		pat:     pat,
		vals:    make([][]float64, len(sources)),
		srcIdx:  make(map[string]int, len(sources)),
		tgtIdx:  make(map[string]int, len(targets)),
	}
	back := make([]float64, pat.NNZ())
	off := 0
	for i, cols := range pat.Rows {
		m.vals[i] = back[off : off+len(cols) : off+len(cols)]
		off += len(cols)
	}
	for i, e := range sources {
		m.srcIdx[e.ID] = i
	}
	for j, e := range targets {
		m.tgtIdx[e.ID] = j
	}
	return m
}

// NewMatrixLike allocates a zero matrix over proto's element lists and
// pattern.
func NewMatrixLike(proto *Matrix) *Matrix {
	return NewSparseMatrix(proto.Sources, proto.Targets, proto.pat)
}

// Sparse reports whether the matrix holds a blocking pattern, that is,
// stores only some pairs.
func (m *Matrix) Sparse() bool { return !m.pat.full }

// CandidatePattern returns the blocking pattern (nil when unblocked).
func (m *Matrix) CandidatePattern() *Pattern {
	if m.pat.full {
		return nil
	}
	return m.pat
}

// NNZ returns the number of stored cells: pattern cells plus overflow
// cells (the full cross product for an unblocked matrix).
func (m *Matrix) NNZ() int { return m.pat.NNZ() + len(m.extra) }

// At returns the confidence at (row i, column j): 0 for any pair outside
// the pattern and overflow storage.
func (m *Matrix) At(i, j int) float64 {
	if k := m.pat.pos(i, int32(j)); k >= 0 {
		return m.vals[i][k]
	}
	if len(m.extra) > 0 {
		return m.extra[cellKey(i, j)]
	}
	return 0
}

// SetAt assigns the confidence at (row i, column j). An out-of-pattern
// write lands in overflow storage (setting such a cell back to exactly 0
// removes it again), so user decision pins always stick regardless of
// the blocking pattern.
func (m *Matrix) SetAt(i, j int, v float64) {
	if k := m.pat.pos(i, int32(j)); k >= 0 {
		m.vals[i][k] = v
		return
	}
	if v == 0 {
		delete(m.extra, cellKey(i, j))
		return
	}
	if m.extra == nil {
		m.extra = make(map[int64]float64)
	}
	m.extra[cellKey(i, j)] = v
}

func cellKey(i, j int) int64 { return int64(i)<<32 | int64(uint32(j)) }

// Each calls fn for every stored cell — pattern plus overflow cells — in
// row-major (i asc, then j asc) order. fn may write the visited cell via
// SetAt but must not touch other out-of-pattern cells.
func (m *Matrix) Each(fn func(i, j int, v float64)) {
	w := m.Walker()
	for i := range m.vals {
		w.Row(i, fn)
	}
}

// RowWalker visits a matrix's stored cells one row at a time, in any row
// order. It sorts the overflow cells once, when it is made, so walking
// many rows never rescans them.
type RowWalker struct {
	m     *Matrix
	extra []int64 // overflow cell keys in row-major order
}

// Walker returns a RowWalker over m's stored cells. Overflow cells
// written after the call are not visited.
func (m *Matrix) Walker() RowWalker {
	w := RowWalker{m: m}
	if len(m.extra) > 0 {
		w.extra = make([]int64, 0, len(m.extra))
		for k := range m.extra {
			w.extra = append(w.extra, k)
		}
		// The i<<32|j packing makes row-major order a plain integer sort.
		sort.Slice(w.extra, func(a, b int) bool { return w.extra[a] < w.extra[b] })
	}
	return w
}

// Row calls fn(i, j, v) for every stored cell of row i, pattern and
// overflow cells merged in ascending column order. fn may write the
// visited cell via SetAt but must not touch other out-of-pattern cells.
func (w RowWalker) Row(i int, fn func(i, j int, v float64)) {
	cols, vals := w.m.pat.Rows[i], w.m.vals[i]
	vals = vals[:len(cols)]
	k := 0
	if ex := w.extra; len(ex) > 0 {
		x := sort.Search(len(ex), func(x int) bool { return ex[x]>>32 >= int64(i) })
		for ; x < len(ex) && ex[x]>>32 == int64(i); x++ {
			j := int(uint32(ex[x]))
			for ; k < len(cols) && int(cols[k]) < j; k++ {
				fn(i, int(cols[k]), vals[k])
			}
			fn(i, j, w.m.extra[ex[x]])
		}
	}
	for ; k < len(cols); k++ {
		fn(i, int(cols[k]), vals[k])
	}
}

// SourceIndex returns the row of a source element ID, or -1.
func (m *Matrix) SourceIndex(id string) int {
	if i, ok := m.srcIdx[id]; ok {
		return i
	}
	return -1
}

// TargetIndex returns the column of a target element ID, or -1.
func (m *Matrix) TargetIndex(id string) int {
	if j, ok := m.tgtIdx[id]; ok {
		return j
	}
	return -1
}

// Get returns the confidence for a pair of element IDs (0 when unknown).
func (m *Matrix) Get(srcID, tgtID string) float64 {
	i, j := m.SourceIndex(srcID), m.TargetIndex(tgtID)
	if i < 0 || j < 0 {
		return 0
	}
	return m.At(i, j)
}

// Set assigns the confidence for a pair of element IDs.
func (m *Matrix) Set(srcID, tgtID string, v float64) {
	i, j := m.SourceIndex(srcID), m.TargetIndex(tgtID)
	if i < 0 || j < 0 {
		return
	}
	m.SetAt(i, j, v)
}

// Clone deep-copies the matrix (sharing the element slices and the
// immutable pattern).
func (m *Matrix) Clone() *Matrix {
	out := NewMatrixLike(m)
	for i := range m.vals {
		copy(out.vals[i], m.vals[i])
	}
	if len(m.extra) > 0 {
		out.extra = make(map[int64]float64, len(m.extra))
		for k, v := range m.extra {
			out.extra[k] = v
		}
	}
	return out
}

// Clamp bounds every stored score to [lo, hi]; the engine uses (-1, +1)
// open bounds for machine scores, reserving exactly ±1 for user
// decisions. Pairs a blocking pattern pruned stay at their implicit 0.
func (m *Matrix) Clamp(lo, hi float64) {
	m.Each(func(i, j int, v float64) {
		if v < lo {
			m.SetAt(i, j, lo)
		}
		if v > hi {
			m.SetAt(i, j, hi)
		}
	})
}

// Correspondence is one scored pair, the unit the GUI displays as a line.
type Correspondence struct {
	Source     *model.Element
	Target     *model.Element
	Confidence float64
}

// String renders "source ↔ target (+0.80)".
func (c Correspondence) String() string {
	return fmt.Sprintf("%s ↔ %s (%+.2f)", c.Source.ID, c.Target.ID, c.Confidence)
}

// Above returns all pairs with confidence >= threshold, row-major order.
// Only stored cells participate: a pair that blocking pruned is "no
// evidence", never a link (even when threshold <= 0). It scans each
// row's stored values in place and merges the row's overflow cells in
// column order, as RowWalker does.
func (m *Matrix) Above(threshold float64) []Correspondence {
	var out []Correspondence
	ex := m.Walker().extra
	for i, cols := range m.pat.Rows {
		vals := m.vals[i][:len(cols)]
		k := 0
		for ; len(ex) > 0 && ex[0]>>32 == int64(i); ex = ex[1:] {
			j := int32(uint32(ex[0]))
			for ; k < len(cols) && cols[k] < j; k++ {
				if vals[k] >= threshold {
					out = append(out, Correspondence{m.Sources[i], m.Targets[cols[k]], vals[k]})
				}
			}
			if v := m.extra[ex[0]]; v >= threshold {
				out = append(out, Correspondence{m.Sources[i], m.Targets[j], v})
			}
		}
		for ; k < len(cols); k++ {
			if vals[k] >= threshold {
				out = append(out, Correspondence{m.Sources[i], m.Targets[cols[k]], vals[k]})
			}
		}
	}
	return out
}

// MaxPerSource returns, for each source element, its highest-confidence
// stored target pair(s) — ties included — provided the score is at least
// threshold. This is the paper's third link filter ("displays, for each
// schema element, those links with maximal confidence (usually a single
// link, but ties are possible)").
func (m *Matrix) MaxPerSource(threshold float64) []Correspondence {
	var out []Correspondence
	w := m.Walker()
	for i, s := range m.Sources {
		best := math.Inf(-1)
		w.Row(i, func(_, _ int, v float64) {
			if v > best {
				best = v
			}
		})
		if best < threshold {
			continue
		}
		w.Row(i, func(_, j int, v float64) {
			if v == best {
				out = append(out, Correspondence{s, m.Targets[j], best})
			}
		})
	}
	return out
}

// StableMatching selects a one-to-one correspondence set by greedy
// highest-score-first assignment (the standard "stable marriage"-style
// selection used by matcher evaluations). Only pairs scoring at least
// threshold participate.
func (m *Matrix) StableMatching(threshold float64) []Correspondence {
	type cell struct {
		i, j int
		v    float64
	}
	var cells []cell
	m.Each(func(i, j int, v float64) {
		if v >= threshold {
			cells = append(cells, cell{i, j, v})
		}
	})
	// Sort descending by score, then by indices — a total order, so the
	// selection is deterministic even on fully tied matrices.
	sort.Slice(cells, func(a, b int) bool {
		x, y := cells[a], cells[b]
		if x.v != y.v {
			return x.v > y.v
		}
		if x.i != y.i {
			return x.i < y.i
		}
		return x.j < y.j
	})
	usedS := make([]bool, len(m.Sources))
	usedT := make([]bool, len(m.Targets))
	var out []Correspondence
	for _, c := range cells {
		if usedS[c.i] || usedT[c.j] {
			continue
		}
		usedS[c.i] = true
		usedT[c.j] = true
		out = append(out, Correspondence{m.Sources[c.i], m.Targets[c.j], c.v})
	}
	return out
}

// String renders the matrix as a compact table for debugging and the
// Figure 3 reproduction.
func (m *Matrix) String() string {
	var b strings.Builder
	b.WriteString("            ")
	for _, t := range m.Targets {
		fmt.Fprintf(&b, "%-14s", tail(t.ID))
	}
	b.WriteString("\n")
	for i, s := range m.Sources {
		fmt.Fprintf(&b, "%-12s", tail(s.ID))
		for j := range m.Targets {
			fmt.Fprintf(&b, "%+.2f         ", m.At(i, j))
		}
		b.WriteString("\n")
	}
	return b.String()
}

func tail(id string) string {
	if i := strings.LastIndex(id, "/"); i >= 0 {
		return id[i+1:]
	}
	return id
}
