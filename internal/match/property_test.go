package match

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property tests over the voting algebra and selection operators.

// randomVotes builds k vote matrices with scores in (-1,1) over the test
// fixture schemata.
func randomVotes(rng *rand.Rand, k int) []Vote {
	src, tgt := sourceSchema(), targetSchema()
	votes := make([]Vote, k)
	for v := 0; v < k; v++ {
		m := MatrixOver(src, tgt)
		for i := range m.Sources {
			for j := range m.Targets {
				m.SetAt(i, j, rng.Float64()*1.98-0.99)
			}
		}
		votes[v] = Vote{Voter: string(rune('A' + v)), Matrix: m}
	}
	return votes
}

// TestMergeBoundedByVotes: the merged score always lies within the
// [min, max] of the per-voter scores for that cell (a weighted mean).
func TestMergeBoundedByVotes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewMerger()
	for trial := 0; trial < 50; trial++ {
		votes := randomVotes(rng, 2+rng.Intn(4))
		merged := g.Merge(votes)
		for i := range merged.Sources {
			for j := range merged.Targets {
				lo, hi := 1.0, -1.0
				for _, v := range votes {
					c := v.Matrix.At(i, j)
					lo = math.Min(lo, c)
					hi = math.Max(hi, c)
				}
				got := merged.At(i, j)
				if got < lo-1e-9 || got > hi+1e-9 {
					t.Fatalf("merged %g outside vote range [%g, %g]", got, lo, hi)
				}
			}
		}
	}
}

// TestMergeSignAgreement: when every voter is non-negative, the merge is
// non-negative (and symmetrically for non-positive).
func TestMergeSignAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := NewMerger()
	for trial := 0; trial < 30; trial++ {
		votes := randomVotes(rng, 3)
		for _, v := range votes {
			for i := range v.Matrix.Sources {
				for j := range v.Matrix.Targets {
					v.Matrix.SetAt(i, j, math.Abs(v.Matrix.At(i, j)))
				}
			}
		}
		merged := g.Merge(votes)
		for i := range merged.Sources {
			for j := range merged.Targets {
				if merged.At(i, j) < 0 {
					t.Fatalf("all-positive votes merged negative: %g", merged.At(i, j))
				}
			}
		}
	}
}

// TestMergeOrderInvariant: vote order does not change the result.
func TestMergeOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := NewMerger()
	votes := randomVotes(rng, 4)
	a := g.Merge(votes)
	rev := make([]Vote, len(votes))
	for i, v := range votes {
		rev[len(votes)-1-i] = v
	}
	b := g.Merge(rev)
	for i := range a.Sources {
		for j := range a.Targets {
			if math.Abs(a.At(i, j)-b.At(i, j)) > 1e-12 {
				t.Fatalf("order dependence at (%d,%d): %g vs %g", i, j, a.At(i, j), b.At(i, j))
			}
		}
	}
}

// TestStableMatchingIsOneToOne on random matrices.
func TestStableMatchingIsOneToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		m := MatrixOver(sourceSchema(), targetSchema())
		for i := range m.Sources {
			for j := range m.Targets {
				m.SetAt(i, j, rng.Float64()*2-1)
			}
		}
		sel := m.StableMatching(-1)
		seenS, seenT := map[string]bool{}, map[string]bool{}
		for _, c := range sel {
			if seenS[c.Source.ID] || seenT[c.Target.ID] {
				t.Fatal("selection not one-to-one")
			}
			seenS[c.Source.ID] = true
			seenT[c.Target.ID] = true
		}
		// Maximal: count = min(|S|, |T|) when threshold admits all.
		want := len(m.Sources)
		if len(m.Targets) < want {
			want = len(m.Targets)
		}
		if len(sel) != want {
			t.Fatalf("selection size %d, want %d", len(sel), want)
		}
	}
}

// TestStableMatchingGreedyOptimalFirst: the first selected pair carries
// the global maximum score.
func TestStableMatchingGreedyOptimalFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		m := MatrixOver(sourceSchema(), targetSchema())
		best := -2.0
		for i := range m.Sources {
			for j := range m.Targets {
				m.SetAt(i, j, rng.Float64()*2-1)
				if m.At(i, j) > best {
					best = m.At(i, j)
				}
			}
		}
		sel := m.StableMatching(-1)
		if len(sel) == 0 || sel[0].Confidence != best {
			t.Fatalf("first pick %g, want global max %g", sel[0].Confidence, best)
		}
	}
}

// TestAboveMaxPerSourceConsistency: MaxPerSource results are a subset of
// Above at the same threshold.
func TestAboveMaxPerSourceConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := MatrixOver(sourceSchema(), targetSchema())
	for i := range m.Sources {
		for j := range m.Targets {
			m.SetAt(i, j, rng.Float64()*2-1)
		}
	}
	above := map[string]bool{}
	for _, c := range m.Above(0.1) {
		above[c.Source.ID+"|"+c.Target.ID] = true
	}
	for _, c := range m.MaxPerSource(0.1) {
		if !above[c.Source.ID+"|"+c.Target.ID] {
			t.Fatalf("max link %v not in Above set", c)
		}
	}
}

// TestCalibrateRange: calibrate stays within [-negMax, posMax] for any
// similarity in [0,1].
func TestCalibrateRange(t *testing.T) {
	f := func(sRaw, pivotRaw uint8) bool {
		s := float64(sRaw) / 255
		pivot := float64(pivotRaw) / 255
		c := calibrate(s, pivot, 0.9, 0.5)
		return c >= -0.5-1e-12 && c <= 0.9+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCalibrateMonotone: higher similarity never lowers confidence.
func TestCalibrateMonotone(t *testing.T) {
	for pivot := 0.1; pivot < 1; pivot += 0.2 {
		prev := math.Inf(-1)
		for s := 0.0; s <= 1.0001; s += 0.01 {
			c := calibrate(s, pivot, 0.9, 0.5)
			if c < prev-1e-12 {
				t.Fatalf("calibrate not monotone at s=%g pivot=%g", s, pivot)
			}
			prev = c
		}
	}
}

// TestHarmonyFloodBoundsRandom: flooding keeps every score in [-0.99, 0.99]
// for arbitrary starting matrices.
func TestHarmonyFloodBoundsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src, tgt := sourceSchema(), targetSchema()
	for trial := 0; trial < 20; trial++ {
		m := MatrixOver(src, tgt)
		for i := range m.Sources {
			for j := range m.Targets {
				m.SetAt(i, j, rng.Float64()*1.98-0.99)
			}
		}
		out := HarmonyFlood(m, src, tgt, FloodOptions{Iterations: 1 + rng.Intn(4)})
		for i := range out.Sources {
			for j := range out.Targets {
				if v := out.At(i, j); v < -0.99-1e-9 || v > 0.99+1e-9 {
					t.Fatalf("flooding escaped bounds: %g", v)
				}
			}
		}
	}
}
