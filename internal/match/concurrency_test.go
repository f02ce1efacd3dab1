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

// TestConcurrentContextAccess hammers one Context's read paths — every
// row accessor and every built-in voter kernel — from many goroutines,
// the sharing pattern of a parallel voter panel. A context does not
// change while a panel runs (Learn re-derives vectors between runs), so
// there is no writer. Run under -race this proves the Context is safe
// for concurrent readers without a lock.
func TestConcurrentContextAccess(t *testing.T) {
	src, tgt := bigFixture(10)
	ctx := NewContext(src, tgt)
	sig := ctx.CorpusSignature()
	var scorers []scoreFunc
	for _, v := range DefaultVoters() {
		scorers = append(scorers, v.(interface{ scorer(*Context) scoreFunc }).scorer(ctx))
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				se, te := ctx.Elements()
				if len(se) != len(ctx.srcRows) || len(te) != len(ctx.tgtRows) {
					t.Errorf("goroutine %d: %d/%d elements for %d/%d rows", g, len(se), len(te), len(ctx.srcRows), len(ctx.tgtRows))
					return
				}
				for i, e := range se {
					if r := &ctx.srcRows[i]; len(r.doc.Terms) == 0 || len(r.name) == 0 || r.lower == "" {
						t.Errorf("goroutine %d: empty row for %s", g, e.ID)
						return
					}
				}
				for j := range te {
					i := (j + g + round) % len(se)
					if len(ctx.SharedDocTerms(i, j)) == 0 {
						t.Errorf("goroutine %d: no shared doc terms for rows %d, %d", g, i, j)
						return
					}
					for _, score := range scorers {
						_ = votePair(ctx, i, j, score)
					}
				}
				if ctx.CorpusSignature() != sig {
					t.Errorf("goroutine %d: corpus signature moved", g)
					return
				}
				_ = ctx.NewMatrix()
			}
		}(g)
	}
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
	se, te := src.Elements(), tgt.Elements()
	score := func(i, j int) float64 {
		return float64(len(se[i].Name)+len(te[j].Name)) / 100
	}

	seqCtx := NewContext(src, tgt, WithParallelism(1))
	seq := seqCtx.NewMatrix()
	forEachPair(seqCtx, seq, score)

	parCtx := NewContext(src, tgt, WithParallelism(4))
	par := parCtx.NewMatrix()
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
