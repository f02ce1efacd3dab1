package match

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/model"
)

// bigFixture builds a schema pair large enough that concurrent sweeps
// genuinely interleave: n entities with 4 documented attributes each.
func bigFixture(n int) (*model.Schema, *model.Schema) {
	build := func(name string) *model.Schema {
		s := model.NewSchema(name, "er")
		for i := 0; i < n; i++ {
			e := s.AddElement(nil, fmt.Sprintf("Entity%d", i), model.KindEntity, model.ContainsElement)
			e.Doc = fmt.Sprintf("entity number %d holding order shipment data", i)
			for j := 0; j < 4; j++ {
				a := s.AddElement(e, fmt.Sprintf("attr%d_%d", i, j), model.KindAttribute, model.ContainsAttribute)
				a.DataType = "string"
				a.Doc = fmt.Sprintf("attribute %d of entity %d describing a customer address part", j, i)
			}
		}
		return s
	}
	return build("s"), build("t")
}

// TestConcurrentContextAccess hammers one Context's read paths from many
// goroutines while another goroutine repeatedly invalidates the vector
// cache — the exact sharing pattern of a parallel voter panel plus
// in-flight learning. Run under -race this proves the Context is safe
// for concurrent readers.
func TestConcurrentContextAccess(t *testing.T) {
	src, tgt := bigFixture(10)
	ctx := NewContext(src, tgt)
	elems := append(append([]*model.Element(nil), src.Elements()...), tgt.Elements()...)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for _, e := range elems {
					_ = ctx.NameTokens(e)
					_ = ctx.NameTokensRaw(e)
					_ = ctx.ExpandedNameTokens(e)
					_ = ctx.DocTokens(e)
					if v := ctx.DocVector(e); len(v) == 0 {
						t.Errorf("goroutine %d: empty doc vector for %s", g, e.ID)
						return
					}
				}
			}
		}(g)
	}
	// Interleave cache invalidation with the readers (the Learn →
	// InvalidateVectors → re-Run sequence, compressed).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 50; round++ {
			ctx.InvalidateVectors()
		}
	}()
	wg.Wait()
}

// TestConcurrentVotersShareContext runs the full default panel
// concurrently against one shared Context and checks every matrix is
// bit-identical to a sequential pass — the determinism contract of the
// parallel voter panel.
func TestConcurrentVotersShareContext(t *testing.T) {
	src, tgt := bigFixture(8)
	ctx := NewContext(src, tgt)
	voters := DefaultVoters()

	want := make([]*Matrix, len(voters))
	for i, v := range voters {
		want[i] = v.Vote(ctx)
	}

	got := make([]*Matrix, len(voters))
	var wg sync.WaitGroup
	for i, v := range voters {
		wg.Add(1)
		go func(i int, v Voter) {
			defer wg.Done()
			got[i] = v.Vote(ctx)
		}(i, v)
	}
	wg.Wait()

	for i, v := range voters {
		matricesBitIdentical(t, "voter "+v.Name()+" concurrent vs sequential", want[i], got[i])
	}
}

// TestConcurrentForEachPairSharded checks the row-sharded sweep against
// the sequential sweep on a scoring function with per-pair structure.
func TestConcurrentForEachPairSharded(t *testing.T) {
	src, tgt := bigFixture(8)
	score := func(s, t *model.Element) float64 {
		return float64(len(s.Name)+len(t.Name)) / 100
	}

	seq := MatrixOver(src, tgt)
	seqCtx := NewContext(src, tgt, WithParallelism(1))
	forEachPair(seqCtx, seq, score)

	par := MatrixOver(src, tgt)
	parCtx := NewContext(src, tgt, WithParallelism(4))
	forEachPair(parCtx, par, score)

	matricesBitIdentical(t, "sharded forEachPair vs sequential", seq, par)
}

// TestConcurrentHarmonyFloodSharded checks row-sharded flooding against
// the sequential rounds, including the up/down overwrite ordering.
func TestConcurrentHarmonyFloodSharded(t *testing.T) {
	src, tgt := bigFixture(8)
	init := MatrixOver(src, tgt)
	// Seed a mix of positive and negative evidence so both sweeps fire.
	for i := range init.Sources {
		for j := range init.Targets {
			init.SetAt(i, j, float64((i*31+j*17)%19-9)/12)
		}
	}
	seq := HarmonyFlood(init.Clone(), src, tgt, FloodOptions{Iterations: 3, Parallelism: 1})
	par := HarmonyFlood(init.Clone(), src, tgt, FloodOptions{Iterations: 3, Parallelism: 4})
	matricesBitIdentical(t, "sharded HarmonyFlood vs sequential", seq, par)
}

// TestConcurrentCupidMatcherWorkers checks that the Cupid baseline scores
// bit-identically with 1 and 4 workers. Its linguistic similarities are
// shared by the row-sharded scoring pass, so under -race this also
// proves that pass only reads them.
func TestConcurrentCupidMatcherWorkers(t *testing.T) {
	src, tgt := bigFixture(12)
	seq := (CupidMatcher{}).Vote(NewContext(src, tgt, WithParallelism(1)))
	par := (CupidMatcher{}).Vote(NewContext(src, tgt, WithParallelism(4)))
	for i := range seq.Sources {
		for j := range seq.Targets {
			if math.Float64bits(seq.At(i, j)) != math.Float64bits(par.At(i, j)) {
				t.Fatalf("cell (%s, %s): 1 worker %v, 4 workers %v",
					seq.Sources[i].ID, seq.Targets[j].ID, seq.At(i, j), par.At(i, j))
			}
		}
	}
}
