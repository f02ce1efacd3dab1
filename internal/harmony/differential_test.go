package harmony

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/match"
	"repro/internal/matchcache"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/registry"
)

// Differential suite: seeded random edit scripts (rename / add / drop /
// doc edit / accept / reject) drive Rematch on a long-lived engine, and
// after every step its matrix must be bit-identical to a cold engine
// built from scratch over the same schemas with the same decisions.
// Runs at Parallelism 1 and 0, and under -race via the tier-1 suite.

// diffPair generates a deterministic registry pair at roughly the given
// element count.
func diffPair(seed int64, entities, attributes, values int) (*model.Schema, *model.Schema) {
	cfg := registry.DefaultConfig()
	cfg.Seed = seed
	cfg.Models = 1
	cfg.ElementsTotal = entities
	cfg.AttributesTotal = attributes
	cfg.DomainValuesTotal = values
	reg := registry.Generate(cfg)
	src := reg.Models[0]
	tgt, _ := registry.Perturb(src, registry.DefaultPerturb())
	return src, tgt
}

// editScript applies one random edit to a schema pair (or a decision to
// the engine) and returns the dirty hints plus a description. The cold
// reference never sees the hints — Rematch must be correct without
// them; the script alternates between precise and empty hints to prove
// both paths.
type scriptedEdit struct {
	desc     string
	dirty    Dirty
	decision bool
}

func randomElement(rng *rand.Rand, sch *model.Schema) *model.Element {
	els := sch.Elements()
	if len(els) == 0 {
		return nil
	}
	return els[rng.Intn(len(els))]
}

func applyEdit(rng *rand.Rand, step int, src, tgt *model.Schema, eng *Engine) scriptedEdit {
	side, sch := "src", src
	if rng.Intn(2) == 1 {
		side, sch = "tgt", tgt
	}
	hint := func(id string) Dirty {
		if rng.Intn(2) == 0 {
			return Dirty{} // engine must self-derive
		}
		if side == "src" {
			return Dirty{Source: []string{id}}
		}
		return Dirty{Target: []string{id}}
	}
	switch op := rng.Intn(6); op {
	case 0: // rename
		e := randomElement(rng, sch)
		e.Name = fmt.Sprintf("%sRev%d", e.Name, step)
		return scriptedEdit{desc: side + " rename " + e.ID, dirty: hint(e.ID)}
	case 1: // add an attribute under a random element
		parent := randomElement(rng, sch)
		added := sch.AddElement(parent, fmt.Sprintf("extra%d", step), model.KindAttribute, model.ContainsAttribute)
		added.DataType = "string"
		added.Doc = fmt.Sprintf("synthetic attribute added at step %d", step)
		return scriptedEdit{desc: side + " add " + added.ID, dirty: hint(added.ID)}
	case 2: // drop a subtree (keep the schema from emptying out)
		if len(sch.Elements()) < 8 {
			return applyEdit(rng, step, src, tgt, eng)
		}
		e := randomElement(rng, sch)
		sch.RemoveElement(e.ID)
		return scriptedEdit{desc: side + " drop " + e.ID, dirty: hint(e.ID)}
	case 3: // documentation edit → corpus mode
		e := randomElement(rng, sch)
		e.Doc = e.Doc + fmt.Sprintf(" amended wording %d", step)
		return scriptedEdit{desc: side + " doc " + e.ID, dirty: hint(e.ID)}
	default: // accept or reject a random pair
		s := randomElement(rng, src)
		t := randomElement(rng, tgt)
		if op == 4 {
			if err := eng.Accept(s.ID, t.ID); err != nil {
				panic(err)
			}
			return scriptedEdit{desc: "accept " + s.ID + " / " + t.ID, decision: true}
		}
		if err := eng.Reject(s.ID, t.ID); err != nil {
			panic(err)
		}
		return scriptedEdit{desc: "reject " + s.ID + " / " + t.ID, decision: true}
	}
}

// replayDecisions copies the live engine's pins onto a cold engine.
func replayDecisions(from, to *Engine) {
	for pair, d := range from.Decisions() {
		var err error
		if d.Accepted {
			err = to.Accept(pair[0], pair[1])
		} else {
			err = to.Reject(pair[0], pair[1])
		}
		if err != nil {
			// Decisions can reference since-dropped elements; the cold
			// engine rejects them just as the live one would have at pin
			// time — skip, both matrices ignore them.
			continue
		}
	}
}

func assertBitIdentical(t *testing.T, label string, want, got *match.Matrix) {
	t.Helper()
	if len(want.Sources) != len(got.Sources) || len(want.Targets) != len(got.Targets) {
		t.Fatalf("%s: dimensions %dx%d vs %dx%d", label,
			len(want.Sources), len(want.Targets), len(got.Sources), len(got.Targets))
	}
	for i := range want.Sources {
		if want.Sources[i].ID != got.Sources[i].ID {
			t.Fatalf("%s: source order differs at %d: %s vs %s", label, i, want.Sources[i].ID, got.Sources[i].ID)
		}
	}
	for j := range want.Targets {
		if want.Targets[j].ID != got.Targets[j].ID {
			t.Fatalf("%s: target order differs at %d: %s vs %s", label, j, want.Targets[j].ID, got.Targets[j].ID)
		}
	}
	if want.Sparse() != got.Sparse() {
		t.Fatalf("%s: storage mode differs: sparse %t vs %t", label, want.Sparse(), got.Sparse())
	}
	if want.Sparse() && !want.CandidatePattern().Equal(got.CandidatePattern()) {
		t.Fatalf("%s: candidate patterns differ (nnz %d vs %d)", label,
			want.CandidatePattern().NNZ(), got.CandidatePattern().NNZ())
	}
	// At() reads dense cells, pattern cells and the extra-overflow pins
	// alike, so one sweep covers both storage modes over the full cross
	// product.
	for i := range want.Sources {
		for j := range want.Targets {
			if math.Float64bits(want.At(i, j)) != math.Float64bits(got.At(i, j)) {
				t.Fatalf("%s: cell (%s, %s): cold %v vs rematch %v", label,
					want.Sources[i].ID, want.Targets[j].ID, want.At(i, j), got.At(i, j))
			}
		}
	}
}

func runDifferentialScript(t *testing.T, blocking match.BlockingOptions) {
	sizes := []struct {
		name                        string
		entities, attributes, codes int
	}{
		{"small", 6, 30, 40},
		{"medium", 14, 110, 140},
	}
	const steps = 10
	for _, size := range sizes {
		for _, par := range []int{1, 0} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/par%d/seed%d", size.name, par, seed)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					src, tgt := diffPair(seed, size.entities, size.attributes, size.codes)
					cache := matchcache.New(obs.NewRegistry())
					live := NewEngine(src, tgt, Options{
						Flooding:    true,
						Parallelism: par,
						Metrics:     obs.NewRegistry(),
						Cache:       cache,
						Blocking:    blocking,
					})
					live.Run()

					for step := 0; step < steps; step++ {
						edit := applyEdit(rng, step, src, tgt, live)
						live.Rematch(edit.dirty)

						cold := NewEngine(src, tgt, Options{
							Flooding:    true,
							Parallelism: par,
							Metrics:     obs.NewRegistry(),
							Blocking:    blocking,
						})
						replayDecisions(live, cold)
						cold.Run()
						assertBitIdentical(t, fmt.Sprintf("step %d (%s, mode %s)", step, edit.desc, live.LastRematchMode()),
							cold.Matrix(), live.Matrix())
						if edit.decision && live.LastRematchMode() != RematchPins {
							t.Fatalf("step %d (%s): decision-only edit resolved to mode %s", step, edit.desc, live.LastRematchMode())
						}
					}
				})
			}
		}
	}
}

func TestDifferentialRematchEqualsColdRun(t *testing.T) {
	runDifferentialScript(t, match.BlockingOptions{})
}

// TestDifferentialRematchEqualsColdRunBlocking replays the same edit
// scripts with blocking on: every matrix is sparse over the candidate
// pattern, the pattern drifts as names change, and Rematch must still be
// bit-identical — pattern and values — to a cold sparse run.
func TestDifferentialRematchEqualsColdRunBlocking(t *testing.T) {
	runDifferentialScript(t, match.BlockingOptions{Enabled: true, PerSourceK: 8})
}

// TestRematchWithReplacedSchemas proves the server path: a session hands
// the engine brand-new schema objects, and the engine re-aligns them by
// element ID and still matches a cold run, also when a new word and a
// dropped document move the corpus. That the context keeps clean rows
// across new objects is checked in internal/match
// (TestRefreshMatchesFreshContext).
func TestRematchWithReplacedSchemas(t *testing.T) {
	src, tgt := diffPair(7, 8, 40, 60)
	live := NewEngine(src, tgt, Options{Flooding: true, Metrics: obs.NewRegistry()})
	live.Run()

	src2 := src.Clone()
	tgt2 := tgt.Clone()
	renamed := src2.Elements()[3]
	renamed.Name = renamed.Name + "Replaced"
	live.rematch(context.Background(), src2, tgt2, Dirty{})
	if live.LastRematchMode() != RematchIncremental {
		t.Fatalf("mode = %s; want incremental", live.LastRematchMode())
	}

	cold := NewEngine(src2, tgt2, Options{Flooding: true, Metrics: obs.NewRegistry()})
	cold.Run()
	assertBitIdentical(t, "replaced schemas", cold.Matrix(), live.Matrix())

	// Replacing the schemas again must also work. Note Clone derives
	// IDs from names, so the earlier rename shifts one element's ID here —
	// the engine must treat that as a drop + add and still agree with a
	// cold run over the replacement objects.
	srcCopy, tgtCopy := src2.Clone(), tgt2.Clone()
	live.rematch(context.Background(), srcCopy, tgtCopy, Dirty{})
	cold2 := NewEngine(srcCopy, tgtCopy, Options{Flooding: true, Metrics: obs.NewRegistry()})
	cold2.Run()
	assertBitIdentical(t, "re-replacement", cold2.Matrix(), live.Matrix())

	// A documentation edit that brings a word neither schema has used,
	// plus a documented element dropped: every IDF weight moves.
	src3, tgt3 := srcCopy.Clone(), tgtCopy.Clone()
	els := src3.Elements()
	els[len(els)-1].Doc += " zeppelin mooring"
	var dropped string
	for _, e := range tgt3.Elements() {
		if e.Doc != "" && e.IsLeaf() {
			dropped = e.ID
			break
		}
	}
	if dropped == "" {
		t.Fatal("target has no documented leaf to drop")
	}
	tgt3.RemoveElement(dropped)
	live.rematch(context.Background(), src3, tgt3, Dirty{})
	if live.LastRematchMode() != RematchCorpus {
		t.Fatalf("documentation edit: mode = %s; want corpus", live.LastRematchMode())
	}
	cold3 := NewEngine(src3, tgt3, Options{Flooding: true, Metrics: obs.NewRegistry()})
	cold3.Run()
	assertBitIdentical(t, "documentation edit", cold3.Matrix(), live.Matrix())
}

// TestUndocumentedEditStaysIncremental: the corpus counts only
// documented elements as documents, so adding or dropping an element
// with no documentation moves no IDF weight. Each rematch must stay
// incremental and still equal a cold run.
func TestUndocumentedEditStaysIncremental(t *testing.T) {
	src, tgt := diffPair(7, 8, 40, 60)
	live := NewEngine(src, tgt, Options{Flooding: true, Metrics: obs.NewRegistry()})
	live.Run()

	var parent *model.Element
	for _, e := range src.Elements() {
		if e.Kind == model.KindEntity {
			parent = e
			break
		}
	}
	if parent == nil {
		t.Fatal("source has no entity")
	}
	var added *model.Element
	for _, step := range []struct {
		desc string
		edit func()
	}{
		{"add undocumented attribute", func() {
			added = src.AddElement(parent, "undocumentedExtra", model.KindAttribute, model.ContainsAttribute)
			added.DataType = "string"
		}},
		{"drop undocumented attribute", func() { src.RemoveElement(added.ID) }},
	} {
		step.edit()
		live.Rematch(Dirty{})
		if mode := live.LastRematchMode(); mode != RematchIncremental {
			t.Fatalf("%s: mode = %s; want incremental", step.desc, mode)
		}
		cold := NewEngine(src, tgt, Options{Flooding: true, Metrics: obs.NewRegistry()})
		cold.Run()
		assertBitIdentical(t, step.desc, cold.Matrix(), live.Matrix())
	}
}

// TestRematchAfterLearnFallsBack ensures learned state forces the full
// pipeline (signatures cannot see corpus word weights), and the result
// still matches what Run would produce on the same engine.
func TestRematchAfterLearnFallsBack(t *testing.T) {
	src, tgt := diffPair(11, 6, 30, 40)
	eng := NewEngine(src, tgt, Options{Flooding: true, Metrics: obs.NewRegistry()})
	eng.Run()
	s := src.Elements()[1]
	tt := tgt.Elements()[1]
	if err := eng.Accept(s.ID, tt.ID); err != nil {
		t.Fatal(err)
	}
	eng.Learn()
	eng.Rematch(Dirty{})
	if eng.LastRematchMode() != RematchFull {
		t.Fatalf("post-Learn mode = %s; want full", eng.LastRematchMode())
	}

	// A twin engine with the same decisions and Learn sequence, running
	// the full pipeline directly, must agree.
	twin := NewEngine(src, tgt, Options{Flooding: true, Metrics: obs.NewRegistry()})
	twin.Run()
	if err := twin.Accept(s.ID, tt.ID); err != nil {
		t.Fatal(err)
	}
	twin.Learn()
	twin.Run()
	assertBitIdentical(t, "post-learn", twin.Matrix(), eng.Matrix())
}
