package match

import "sort"

// Pattern is the cell pattern of a matrix: for every source row, the
// sorted list of target columns the matrix stores. An unblocked matrix
// stores the full pattern (every column of every row); a blocked one
// stores only the candidate pairs that survived blocking. A Pattern is
// immutable once built and is shared by every matrix of one engine run
// (the voter panel, the merged matrix, each flooding round), so
// positional kernels can copy and merge values without per-cell index
// lookups.
type Pattern struct {
	// Rows[i] holds the stored target columns of source row i, strictly
	// ascending. Column indices are int32 — a matrix side is bounded by
	// element count, far below 2^31 — which halves the index footprint
	// at registry scale.
	Rows [][]int32

	nnz int
	// full marks the pattern storing every one of cols columns in every
	// row. Its rows all alias one ascending 0..cols-1 slice, so the
	// index costs O(rows + cols), and a cell's storage offset is its
	// column.
	full bool
	cols int
}

// NewPattern wraps per-row column lists into a Pattern. Each row is
// sorted and deduplicated defensively; rows may be nil (no candidates).
func NewPattern(rows [][]int32) *Pattern {
	p := &Pattern{Rows: rows}
	for i, cols := range rows {
		if !int32Sorted(cols) {
			sort.Slice(cols, func(a, b int) bool { return cols[a] < cols[b] })
		}
		rows[i] = int32Dedup(cols)
		p.nnz += len(rows[i])
	}
	return p
}

// fullPattern returns the pattern of an unblocked rows×cols matrix.
func fullPattern(rows, cols int) *Pattern {
	all := make([]int32, cols)
	for j := range all {
		all[j] = int32(j)
	}
	p := &Pattern{Rows: make([][]int32, rows), nnz: rows * cols, full: true, cols: cols}
	for i := range p.Rows {
		p.Rows[i] = all
	}
	return p
}

// NNZ returns the number of stored cells.
func (p *Pattern) NNZ() int { return p.nnz }

// pos returns the storage offset of column j within row i, or -1 when
// the cell is not part of the pattern. On a full pattern the offset is
// j itself, found in O(1): flooding reads neighbour cells through pos
// once per child pair and the incremental patches once per copied cell,
// so pos stays small enough to inline. Other patterns binary-search the
// row. i must be a valid row of a full pattern.
func (p *Pattern) pos(i int, j int32) int {
	if p.full && uint32(j) < uint32(p.cols) {
		return int(j)
	}
	return p.search(i, j)
}

// search binary-searches row i for column j. It stays out of line so
// that pos inlines.
//
//go:noinline
func (p *Pattern) search(i int, j int32) int {
	if i < 0 || i >= len(p.Rows) {
		return -1
	}
	cols := p.Rows[i]
	lo, hi := 0, len(cols)
	for lo < hi {
		mid := (lo + hi) / 2
		if cols[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cols) && cols[lo] == j {
		return lo
	}
	return -1
}

// Contains reports whether cell (i, j) is stored.
func (p *Pattern) Contains(i, j int) bool {
	return i >= 0 && i < len(p.Rows) && p.pos(i, int32(j)) >= 0
}

// Equal reports whether two patterns store exactly the same cell set.
// Two full patterns compare by shape in O(1).
func (p *Pattern) Equal(q *Pattern) bool {
	if p == q {
		return true
	}
	if p == nil || q == nil || len(p.Rows) != len(q.Rows) || p.nnz != q.nnz {
		return false
	}
	if p.full && q.full {
		return p.cols == q.cols
	}
	for i := range p.Rows {
		a, b := p.Rows[i], q.Rows[i]
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if a[k] != b[k] {
				return false
			}
		}
	}
	return true
}

// sameBlocking reports whether matrices over p and q prune the same
// pairs: both full, whatever their sizes (a full pattern prunes
// nothing), or equal blocking patterns.
func (p *Pattern) sameBlocking(q *Pattern) bool {
	if p.full || q.full {
		return p.full && q.full
	}
	return p.Equal(q)
}

func int32Sorted(a []int32) bool {
	for k := 1; k < len(a); k++ {
		if a[k-1] > a[k] {
			return false
		}
	}
	return true
}

func int32Dedup(a []int32) []int32 {
	if len(a) < 2 {
		return a
	}
	out := a[:1]
	for _, v := range a[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
