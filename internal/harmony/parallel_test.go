package harmony

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/registry"
)

// registryPair generates one synthetic registry model and perturbs it
// into a (source, target) pair — the same construction the evaluation
// harness and cmd/harmony's demo mode use.
func registryPair(entities, attributes, domainValues int) (*model.Schema, *model.Schema) {
	cfg := registry.DefaultConfig()
	cfg.Models = 1
	cfg.ElementsTotal = entities
	cfg.AttributesTotal = attributes
	cfg.DomainValuesTotal = domainValues
	reg := registry.Generate(cfg)
	src := reg.Models[0]
	tgt, _ := registry.Perturb(src, registry.DefaultPerturb())
	return src, tgt
}

// TestParallelRunMatchesSequential is the determinism golden test: on a
// registry-generated pair, the parallel pipeline must produce a merged
// matrix bit-identical to the sequential pipeline, and the StageTiming
// stage names must come back in the same (panel) order.
func TestParallelRunMatchesSequential(t *testing.T) {
	src, tgt := registryPair(10, 50, 70)
	seq := NewEngine(src, tgt, Options{Flooding: true, Parallelism: 1})
	par := NewEngine(src, tgt, Options{Flooding: true}) // 0 = GOMAXPROCS

	seqTimings := seq.Run()
	parTimings := par.Run()

	if len(seqTimings) != len(parTimings) {
		t.Fatalf("stage counts differ: %d vs %d", len(seqTimings), len(parTimings))
	}
	for i := range seqTimings {
		if seqTimings[i].Stage != parTimings[i].Stage {
			t.Errorf("stage %d: %q (seq) vs %q (par)", i, seqTimings[i].Stage, parTimings[i].Stage)
		}
	}

	sm, pm := seq.Matrix(), par.Matrix()
	if !reflect.DeepEqual(sm.Sources, pm.Sources) || !reflect.DeepEqual(sm.Targets, pm.Targets) {
		t.Fatal("matrix element orders differ")
	}
	assertBitIdentical(t, "seq vs par", sm, pm)
}

// cellBitsEqual reports whether two matrices have the same dimensions
// and bit-identical values in every cell.
func cellBitsEqual(a, b *match.Matrix) bool {
	if len(a.Sources) != len(b.Sources) || len(a.Targets) != len(b.Targets) {
		return false
	}
	for i := range a.Sources {
		for j := range a.Targets {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// TestParallelRunRepeatable re-runs the parallel pipeline on one engine
// and demands bit-identical matrices every time — scheduling must never
// leak into scores.
func TestParallelRunRepeatable(t *testing.T) {
	src, tgt := registryPair(8, 40, 60)
	e := NewEngine(src, tgt, Options{Flooding: true})
	e.Run()
	want := e.Matrix().Clone()
	for round := 0; round < 5; round++ {
		e.Run()
		assertBitIdentical(t, fmt.Sprintf("round %d", round), want, e.Matrix())
	}
}

// TestConcurrentEngineRuns runs two unrelated engines concurrently (they
// share nothing but package-level code and the default thesaurus) and
// checks both converge to their own reference matrices. Run under -race
// this guards the whole pipeline's shared-state hygiene.
func TestConcurrentEngineRuns(t *testing.T) {
	srcA, tgtA := registryPair(8, 40, 60)
	srcB, tgtB := registryPair(6, 30, 45)

	refA := NewEngine(srcA, tgtA, Options{Flooding: true, Parallelism: 1})
	refA.Run()
	refB := NewEngine(srcB, tgtB, Options{Flooding: true, Parallelism: 1})
	refB.Run()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src, tgt, ref := srcA, tgtA, refA
			if g%2 == 1 {
				src, tgt, ref = srcB, tgtB, refB
			}
			e := NewEngine(src, tgt, Options{Flooding: true, Metrics: obs.NewRegistry()})
			e.Run()
			if !cellBitsEqual(e.Matrix(), ref.Matrix()) {
				t.Errorf("engine %d diverged from its sequential reference", g)
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentRunAndLearn drives the Run → Accept → Learn → Run loop
// (which invalidates the vector cache between parallel runs) to exercise
// the lazily-rebuilt DocVector path under the concurrent voter panel.
func TestConcurrentRunAndLearn(t *testing.T) {
	src, tgt := registryPair(8, 40, 60)
	e := NewEngine(src, tgt, Options{Flooding: true, Metrics: obs.NewRegistry()})
	e.Run()
	sel := e.Matrix().StableMatching(0.25)
	for i, c := range sel {
		if i >= 4 {
			break
		}
		if err := e.Accept(c.Source.ID, c.Target.ID); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		e.Learn()
		e.Run()
	}
	for _, c := range sel[:min(4, len(sel))] {
		if e.Matrix().Get(c.Source.ID, c.Target.ID) != 1 {
			t.Errorf("pin lost across learn/run rounds: %s ↔ %s", c.Source.ID, c.Target.ID)
		}
	}
}

// TestParallelismGaugeAndWorkers checks the Options.Parallelism
// resolution (0 = GOMAXPROCS, 1 = sequential, n = n) and that Run
// publishes the resolved count on the harmony_parallelism gauge.
func TestParallelismGaugeAndWorkers(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewEngine(poSource(), siTarget(), Options{Parallelism: 3, Metrics: reg})
	if e.Workers() != 3 {
		t.Errorf("Workers() = %d, want 3", e.Workers())
	}
	e.Run()
	m, ok := reg.Find(MetricParallelism)
	if !ok {
		t.Fatalf("%s not in registry", MetricParallelism)
	}
	if len(m.Series) != 1 || m.Series[0].Value != 3 {
		t.Errorf("%s = %+v, want 3", MetricParallelism, m)
	}

	if e := NewEngine(poSource(), siTarget(), Options{Parallelism: 1, Metrics: obs.NewRegistry()}); e.Workers() != 1 {
		t.Errorf("sequential Workers() = %d", e.Workers())
	}
	if e := NewEngine(poSource(), siTarget(), Options{Metrics: obs.NewRegistry()}); e.Workers() < 1 {
		t.Errorf("default Workers() = %d", e.Workers())
	}
}

// TestDecideDoesNotRunPipeline pins a pair on a fresh engine and checks
// no pipeline run happened as a side effect — validation now goes
// against the schemas, not Matrix().
func TestDecideDoesNotRunPipeline(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewEngine(poSource(), siTarget(), Options{Metrics: reg})
	if err := e.Accept(firstID, nameID); err != nil {
		t.Fatal(err)
	}
	if runs, ok := reg.Find(MetricRuns); ok && len(runs.Series) > 0 && runs.Series[0].Value != 0 {
		t.Errorf("Accept triggered %v pipeline runs", runs.Series[0].Value)
	}
	// Root IDs are not matchable elements and must still be rejected.
	if err := e.Accept("purchaseOrder", nameID); err == nil {
		t.Error("schema root accepted as source element")
	}
	// The pin still lands once the pipeline does run.
	if got := e.Matrix().Get(firstID, nameID); got != 1 {
		t.Errorf("pin not applied on first run: %g", got)
	}
}
