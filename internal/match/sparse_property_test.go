package match

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
)

// Sparse/dense agreement properties. A sparse matrix must behave like a
// dense matrix whose off-pattern cells are pinned to zero — except that
// writes outside the pattern land in the extra overflow and must still
// read back, clone, and iterate exactly like any other cell.

// randomPatternPair builds a random element pair plus a random pattern
// over it.
func randomPatternPair(rng *rand.Rand, nr, nc int) ([]*model.Element, []*model.Element, *Pattern) {
	src := model.NewSchema("src", "xsd")
	tgt := model.NewSchema("tgt", "xsd")
	for i := 0; i < nr; i++ {
		src.AddElement(nil, fmt.Sprintf("s%d", i), model.KindAttribute, model.ContainsAttribute)
	}
	for j := 0; j < nc; j++ {
		tgt.AddElement(nil, fmt.Sprintf("t%d", j), model.KindAttribute, model.ContainsAttribute)
	}
	rows := make([][]int32, nr)
	for i := range rows {
		for j := 0; j < nc; j++ {
			if rng.Float64() < 0.3 {
				rows[i] = append(rows[i], int32(j))
			}
		}
	}
	return src.Elements(), tgt.Elements(), NewPattern(rows)
}

func TestPropertySparseDenseAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		nr, nc := 1+rng.Intn(8), 1+rng.Intn(8)
		srcs, tgts, pat := randomPatternPair(rng, nr, nc)
		sp := NewSparseMatrix(srcs, tgts, pat)
		dn := NewMatrix(srcs, tgts)
		// Mirror writes: mostly inside the pattern, some outside (the
		// overflow path a user pin exercises).
		for w := 0; w < nr*nc; w++ {
			i, j := rng.Intn(nr), rng.Intn(nc)
			v := rng.Float64()*2 - 1
			sp.SetAt(i, j, v)
			dn.SetAt(i, j, v)
		}
		for i := 0; i < nr; i++ {
			for j := 0; j < nc; j++ {
				if math.Float64bits(sp.At(i, j)) != math.Float64bits(dn.At(i, j)) {
					t.Fatalf("trial %d: At(%d,%d) sparse %g vs dense %g", trial, i, j, sp.At(i, j), dn.At(i, j))
				}
			}
		}
		// Get/Set by ID agree too.
		si, tj := rng.Intn(nr), rng.Intn(nc)
		if sp.Get(srcs[si].ID, tgts[tj].ID) != dn.Get(srcs[si].ID, tgts[tj].ID) {
			t.Fatalf("trial %d: Get by ID disagrees", trial)
		}
		// Copying the stored cells into an unblocked matrix reproduces
		// every cell.
		td := NewMatrix(srcs, tgts)
		sp.Each(func(i, j int, v float64) { td.SetAt(i, j, v) })
		for i := 0; i < nr; i++ {
			for j := 0; j < nc; j++ {
				if math.Float64bits(td.At(i, j)) != math.Float64bits(sp.At(i, j)) {
					t.Fatalf("trial %d: unblocked copy differs at (%d,%d)", trial, i, j)
				}
			}
		}
		// Clone is independent and equal.
		cl := sp.Clone()
		for i := 0; i < nr; i++ {
			for j := 0; j < nc; j++ {
				if cl.At(i, j) != sp.At(i, j) {
					t.Fatalf("trial %d: Clone differs at (%d,%d)", trial, i, j)
				}
			}
		}
		cl.SetAt(si, tj, 0.123456)
		if sp.At(si, tj) == 0.123456 && dn.At(si, tj) != 0.123456 {
			t.Fatalf("trial %d: Clone shares storage with original", trial)
		}
	}
}

func TestPropertySparseEachOrderAndCoverage(t *testing.T) {
	// Each must visit cells in row-major order (ascending i, then
	// ascending j, overflow cells interleaved at their proper column
	// position) and visit exactly the nonzero-or-stored set.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		nr, nc := 1+rng.Intn(6), 1+rng.Intn(6)
		srcs, tgts, pat := randomPatternPair(rng, nr, nc)
		sp := NewSparseMatrix(srcs, tgts, pat)
		want := map[[2]int]float64{}
		for w := 0; w < nr*nc; w++ {
			i, j := rng.Intn(nr), rng.Intn(nc)
			v := rng.Float64()*2 - 1
			sp.SetAt(i, j, v)
			want[[2]int{i, j}] = v
		}
		lastI, lastJ := -1, -1
		seen := map[[2]int]bool{}
		sp.Each(func(i, j int, v float64) {
			if i < lastI || (i == lastI && j <= lastJ) {
				t.Fatalf("trial %d: Each out of order: (%d,%d) after (%d,%d)", trial, i, j, lastI, lastJ)
			}
			lastI, lastJ = i, j
			if seen[[2]int{i, j}] {
				t.Fatalf("trial %d: Each visited (%d,%d) twice", trial, i, j)
			}
			seen[[2]int{i, j}] = true
			if math.Float64bits(sp.At(i, j)) != math.Float64bits(v) {
				t.Fatalf("trial %d: Each value %g != At %g at (%d,%d)", trial, v, sp.At(i, j), i, j)
			}
		})
		// Every written nonzero cell was visited.
		for ij, v := range want {
			if v != 0 && !seen[ij] {
				t.Fatalf("trial %d: Each skipped written cell (%d,%d)=%g", trial, ij[0], ij[1], v)
			}
		}
	}
}

func TestPropertyPatternPosContains(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		nr, nc := 1+rng.Intn(10), 1+rng.Intn(10)
		_, _, pat := randomPatternPair(rng, nr, nc)
		nnz := 0
		for i := 0; i < nr; i++ {
			for j := 0; j < nc; j++ {
				in := false
				for _, c := range pat.Rows[i] {
					if int(c) == j {
						in = true
						break
					}
				}
				if pat.Contains(i, j) != in {
					t.Fatalf("trial %d: Contains(%d,%d) = %v, want %v", trial, i, j, !in, in)
				}
				if in {
					nnz++
				}
			}
		}
		if pat.NNZ() != nnz {
			t.Fatalf("trial %d: NNZ = %d, counted %d", trial, pat.NNZ(), nnz)
		}
	}
}

// TestFullPattern covers the unblocked matrix's pattern: every cell is
// stored at its column's offset, two full patterns are equal exactly
// when their shapes are, a full pattern equals a blocking pattern that
// happens to hold every cell, and full patterns of any sizes prune the
// same pairs (none) while a blocking pattern never prunes like a full
// one.
func TestFullPattern(t *testing.T) {
	p := fullPattern(3, 4)
	if p.NNZ() != 12 {
		t.Fatalf("NNZ = %d; want 12", p.NNZ())
	}
	for i := -1; i <= 3; i++ {
		for j := -1; j <= 4; j++ {
			in := i >= 0 && i < 3 && j >= 0 && j < 4
			if p.Contains(i, j) != in {
				t.Fatalf("Contains(%d,%d) = %v; want %v", i, j, !in, in)
			}
			if in && p.pos(i, int32(j)) != j {
				t.Fatalf("pos(%d,%d) = %d; want %d", i, j, p.pos(i, int32(j)), j)
			}
		}
	}
	every := NewPattern([][]int32{{0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}})
	for _, c := range []struct {
		name      string
		q         *Pattern
		eq, prune bool
	}{
		{"same shape", fullPattern(3, 4), true, true},
		{"more columns", fullPattern(3, 5), false, true},
		{"fewer rows", fullPattern(2, 4), false, true},
		{"blocking holding every cell", every, true, false},
		{"blocking", NewPattern([][]int32{{0}, {1}, {2}}), false, false},
	} {
		if got := p.Equal(c.q); got != c.eq {
			t.Errorf("%s: Equal = %v; want %v", c.name, got, c.eq)
		}
		if got := p.sameBlocking(c.q); got != c.prune {
			t.Errorf("%s: sameBlocking = %v; want %v", c.name, got, c.prune)
		}
	}
	srcs, tgts, _ := randomPatternPair(rand.New(rand.NewSource(14)), 3, 4)
	if m := NewMatrix(srcs, tgts); m.Sparse() || m.CandidatePattern() != nil {
		t.Error("unblocked matrix reports a blocking pattern")
	}
	if m := NewSparseMatrix(srcs, tgts, every); !m.Sparse() || m.CandidatePattern() != every {
		t.Error("blocked matrix does not report its blocking pattern")
	}
}

// aboveReference is Above as it was written over Each: one closure
// call per stored cell, row-major.
func aboveReference(m *Matrix, threshold float64) []Correspondence {
	var out []Correspondence
	m.Each(func(i, j int, v float64) {
		if v >= threshold {
			out = append(out, Correspondence{m.Sources[i], m.Targets[j], v})
		}
	})
	return out
}

// TestPropertyAboveMatchesEach compares Above with the Each-based
// reference, bit for bit and in order, on dense, blocked and blocked
// matrices with overflow cells, at thresholds down to below every score
// (a pruned pair must still never be a link).
func TestPropertyAboveMatchesEach(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		nr, nc := 1+rng.Intn(12), 1+rng.Intn(12)
		srcs, tgts, pat := randomPatternPair(rng, nr, nc)
		var m *Matrix
		kind := trial % 3
		if kind == 0 {
			m = NewMatrix(srcs, tgts)
		} else {
			m = NewSparseMatrix(srcs, tgts, pat)
		}
		for w := 0; w < nr*nc; w++ {
			i, j := rng.Intn(nr), rng.Intn(nc)
			if kind == 1 && !pat.Contains(i, j) {
				continue // blocked without overflow
			}
			v := rng.Float64()*2 - 1
			if rng.Intn(8) == 0 {
				v = float64(2*rng.Intn(2) - 1) // a pin
			}
			m.SetAt(i, j, v)
		}
		if kind == 2 && len(m.extra) == 0 {
			m.SetAt(rng.Intn(nr), rng.Intn(nc), 1)
		}
		for _, th := range []float64{-2, -1, 0, 0.25, 0.5, 1} {
			got, want := m.Above(th), aboveReference(m, th)
			if len(got) != len(want) {
				t.Fatalf("trial %d (kind %d) threshold %v: %d links, reference %d", trial, kind, th, len(got), len(want))
			}
			for k := range got {
				g, w := got[k], want[k]
				if g.Source != w.Source || g.Target != w.Target || math.Float64bits(g.Confidence) != math.Float64bits(w.Confidence) {
					t.Fatalf("trial %d (kind %d) threshold %v: link %d = %v, reference %v", trial, kind, th, k, g, w)
				}
			}
		}
		if kind != 0 && len(m.Above(-2)) != m.NNZ() {
			t.Fatalf("trial %d: Above(-2) = %d links, %d stored cells", trial, len(m.Above(-2)), m.NNZ())
		}
	}
}

// BenchmarkMatrixAbove walks a 1000×1000 matrix for its links, as every
// rematch does, next to the Each-based reference.
func BenchmarkMatrixAbove(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	srcs, tgts, _ := randomPatternPair(rng, 1000, 1000)
	m := NewMatrix(srcs, tgts)
	for i := range srcs {
		for j := range tgts {
			m.SetAt(i, j, rng.Float64()*0.3)
		}
		m.SetAt(i, rng.Intn(len(tgts)), 0.3+rng.Float64()*0.7) // ~3 links per row
		m.SetAt(i, rng.Intn(len(tgts)), 0.3+rng.Float64()*0.7)
		m.SetAt(i, rng.Intn(len(tgts)), 0.3+rng.Float64()*0.7)
	}
	for _, bc := range []struct {
		name  string
		above func(*Matrix, float64) []Correspondence
	}{{"scan", (*Matrix).Above}, {"each", aboveReference}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(bc.above(m, 0.3)) == 0 {
					b.Fatal("no links")
				}
			}
		})
	}
}
