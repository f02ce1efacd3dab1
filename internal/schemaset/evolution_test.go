package schemaset

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/blackboard"
	"repro/internal/chaos"
	"repro/internal/harmony"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/registry"
	"repro/internal/wbmgr"
)

// Differential evolution suite: seeded random version-bump scripts
// (rename / add / drop / doc edits) drive Applier.Plan/Apply across
// v1→v2→v3, and after every apply the applier's warm engine must be
// bit-identical to a cold engine built from scratch over the post-apply
// blackboard schemas with the same analyst decisions. A chaos fault at
// apply.commit must leave the blackboard graph exactly as it was, and
// re-applying an unchanged lockfile must run zero transactions. Runs
// under -race via the tier-1 suite.

// evoPair generates a deterministic registry pair at roughly the given
// element count.
func evoPair(seed int64, entities, attributes, values int) (*model.Schema, *model.Schema) {
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

// evoEdit applies one random schema edit for a version bump and returns
// a description for failure messages.
func evoEdit(rng *rand.Rand, step int, sch *model.Schema) string {
	els := sch.Elements()
	e := els[rng.Intn(len(els))]
	switch op := rng.Intn(4); op {
	case 0: // rename
		e.Name = fmt.Sprintf("%sV%d", e.Name, step)
		return "rename " + e.ID
	case 1: // add an attribute under a random element
		added := sch.AddElement(e, fmt.Sprintf("evo%d", step), model.KindAttribute, model.ContainsAttribute)
		added.DataType = "string"
		added.Doc = fmt.Sprintf("synthetic attribute added by version bump %d", step)
		return "add " + added.ID
	case 2: // drop a subtree (keep the schema from emptying out)
		if len(els) < 8 {
			return evoEdit(rng, step, sch)
		}
		sch.RemoveElement(e.ID)
		return "drop " + e.ID
	default: // documentation edit → corpus-affecting change
		e.Doc = e.Doc + fmt.Sprintf(" amended wording %d", step)
		return "doc " + e.ID
	}
}

// evoReplay copies the applier engine's pins onto a cold engine.
func evoReplay(from, to *harmony.Engine) {
	for pair, d := range from.Decisions() {
		var err error
		if d.Accepted {
			err = to.Accept(pair[0], pair[1])
		} else {
			err = to.Reject(pair[0], pair[1])
		}
		if err != nil {
			// Pins can reference since-dropped elements; both engines
			// ignore them.
			continue
		}
	}
}

func evoAssertBitIdentical(t *testing.T, label string, want, got *match.Matrix) {
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
		t.Fatalf("%s: candidate patterns differ", label)
	}
	for i := range want.Sources {
		for j := range want.Targets {
			if math.Float64bits(want.At(i, j)) != math.Float64bits(got.At(i, j)) {
				t.Fatalf("%s: cell (%s, %s): cold %v vs apply %v", label,
					want.Sources[i].ID, want.Targets[j].ID, want.At(i, j), got.At(i, j))
			}
		}
	}
}

// evoApplier builds an applier over a fresh blackboard with isolated
// metrics.
func evoApplier(t *testing.T) (*blackboard.Blackboard, *Applier) {
	t.Helper()
	bb := blackboard.New()
	bb.SetMetrics(obs.NewRegistry())
	ap := &Applier{
		BB:      bb,
		Mgr:     wbmgr.NewWith(bb),
		Metrics: obs.NewRegistry(),
		Engine:  harmony.Options{Flooding: true, Metrics: obs.NewRegistry()},
	}
	return bb, ap
}

// evoApply plans and applies one version of the pair, updating the lock.
func evoApply(t *testing.T, ap *Applier, set *Set, lock *Lockfile, src, tgt *model.Schema) *Result {
	t.Helper()
	plan, err := ap.Plan(set, []*model.Schema{src, tgt}, lock)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ap.Apply(plan)
	if err != nil {
		t.Fatal(err)
	}
	lock.Upsert(plan.LockSet())
	return res
}

func TestEvolutionApplyMatchesColdRun(t *testing.T) {
	sizes := []struct {
		name                        string
		entities, attributes, codes int
	}{
		{"small", 6, 30, 40},
		{"medium", 12, 80, 100},
	}
	const bumps = 2 // v2 and v3
	const editsPerBump = 3
	for _, size := range sizes {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", size.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				src, tgt := evoPair(seed, size.entities, size.attributes, size.codes)
				bb, ap := evoApplier(t)
				lock := &Lockfile{}
				set := &Set{Name: "evo", Version: "v1"}

				// v1: both schemas are creates; no mapping exists yet, so
				// the apply is exactly the one schema-put transaction.
				res := evoApply(t, ap, set, lock, src, tgt)
				if res.Txns != 1 || len(res.Applied) != 2 || len(res.Rematches) != 0 {
					t.Fatalf("v1 apply = %+v", res)
				}
				if _, err := bb.NewMapping("m", src.Name, tgt.Name); err != nil {
					t.Fatal(err)
				}

				cur, curT := src, tgt
				for bump := 0; bump < bumps; bump++ {
					next, nextT := cur.Clone(), curT.Clone()
					var edits []string
					for e := 0; e < editsPerBump; e++ {
						side, sch := "src", next
						if rng.Intn(2) == 1 {
							side, sch = "tgt", nextT
						}
						edits = append(edits, side+" "+evoEdit(rng, bump*editsPerBump+e, sch))
					}
					// Re-copy to re-derive element IDs from the edited
					// names — the declared version of a set always comes
					// from freshly parsed files, whose IDs are name paths.
					next, nextT = next.Clone(), nextT.Clone()
					set.Version = fmt.Sprintf("v%d", bump+2)
					label := fmt.Sprintf("%s (%v)", set.Version, edits)

					res := evoApply(t, ap, set, lock, next, nextT)
					// One schema-put txn plus one publish txn for mapping m.
					if res.Txns != 2 || len(res.Rematches) != 1 || res.Rematches[0].Mapping != "m" {
						t.Fatalf("%s: apply = %+v", label, res)
					}
					mode := res.Rematches[0].Mode
					if bump == 0 && mode != harmony.RematchCold {
						t.Fatalf("%s: first rematch mode = %s; want cold", label, mode)
					}
					if bump > 0 && mode == harmony.RematchCold {
						t.Fatalf("%s: warm applier re-matched cold", label)
					}

					// The applier's live matrix must be bit-identical to a
					// cold engine over the post-apply blackboard schemas
					// with the same decisions.
					live := ap.EngineFor("m")
					if live == nil {
						t.Fatalf("%s: no live engine", label)
					}
					bsrc, err := bb.GetSchema(src.Name)
					if err != nil {
						t.Fatal(err)
					}
					btgt, err := bb.GetSchema(tgt.Name)
					if err != nil {
						t.Fatal(err)
					}
					cold := harmony.NewEngine(bsrc, btgt, harmony.Options{Flooding: true, Metrics: obs.NewRegistry()})
					evoReplay(live, cold)
					cold.Run()
					evoAssertBitIdentical(t, label+" mode "+mode, cold.Matrix(), live.Matrix())

					// Pin an analyst decision on the blackboard so the next
					// bump exercises syncPins: accept the engine's current
					// best pair, reject a random one.
					mp, err := bb.GetMapping("m")
					if err != nil {
						t.Fatal(err)
					}
					links := live.Matrix().Above(0.0)
					if len(links) > 0 {
						best := links[0]
						if err := mp.SetCell(best.Source.ID, best.Target.ID, 1.0, true, "analyst"); err != nil {
							t.Fatal(err)
						}
					}
					sEl := live.Matrix().Sources[rng.Intn(len(live.Matrix().Sources))]
					tEl := live.Matrix().Targets[rng.Intn(len(live.Matrix().Targets))]
					if err := mp.SetCell(sEl.ID, tEl.ID, 0, true, "analyst"); err != nil {
						t.Fatal(err)
					}

					cur, curT = next, nextT
				}
			})
		}
	}
}

// TestEvolutionNoOpReapply proves apply is idempotent: re-applying a
// version whose content already matches the blackboard runs zero
// transactions and leaves the graph untouched.
func TestEvolutionNoOpReapply(t *testing.T) {
	src, tgt := evoPair(5, 6, 30, 40)
	bb, ap := evoApplier(t)
	lock := &Lockfile{}
	set := &Set{Name: "evo", Version: "v1"}
	evoApply(t, ap, set, lock, src, tgt)

	var pre bytes.Buffer
	if err := bb.Snapshot(&pre); err != nil {
		t.Fatal(err)
	}
	plan, err := ap.Plan(set, []*model.Schema{src, tgt}, lock)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.NoOp() {
		t.Fatalf("re-plan of applied version is not a no-op: %+v", plan.Schemas)
	}
	res, err := ap.Apply(plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Txns != 0 || len(res.Applied) != 0 || len(res.Rematches) != 0 {
		t.Fatalf("no-op apply ran work: %+v", res)
	}
	restored := blackboard.New()
	if err := restored.Restore(bytes.NewReader(pre.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !rdf.Equal(bb.Graph(), restored.Graph()) {
		t.Fatal("no-op apply changed the graph")
	}

	// A version-only bump (same file contents under a new version dir)
	// is also a no-op apply; only the lockfile records the new version.
	set.Version = "v2"
	plan, err = ap.Plan(set, []*model.Schema{src.Clone(), tgt.Clone()}, lock)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.NoOp() {
		t.Fatal("identical content under a new version is not a no-op")
	}
}

// TestEvolutionChaosRollback proves apply is all-or-nothing: an injected
// fault at the apply.commit site aborts the schema-put transaction and
// the rdf undo log restores the graph exactly — every put rolled back.
func TestEvolutionChaosRollback(t *testing.T) {
	src, tgt := evoPair(9, 6, 30, 40)
	bb, ap := evoApplier(t)
	lock := &Lockfile{}
	set := &Set{Name: "evo", Version: "v1"}
	evoApply(t, ap, set, lock, src, tgt)
	if _, err := bb.NewMapping("m", src.Name, tgt.Name); err != nil {
		t.Fatal(err)
	}

	next, nextT := src.Clone(), tgt.Clone()
	rng := rand.New(rand.NewSource(9))
	for e := 0; e < 3; e++ {
		evoEdit(rng, e, next)
		evoEdit(rng, e, nextT)
	}
	// Canonical IDs, as freshly parsed files would carry.
	next, nextT = next.Clone(), nextT.Clone()
	set.Version = "v2"
	plan, err := ap.Plan(set, []*model.Schema{next, nextT}, lock)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NoOp() {
		t.Fatal("edited v2 planned as a no-op")
	}

	var pre bytes.Buffer
	if err := bb.Snapshot(&pre); err != nil {
		t.Fatal(err)
	}
	chaos.Reset()
	chaos.Enable(SiteApplyCommit, chaos.Rule{Kind: chaos.FaultError, Every: 1, Limit: 1})
	defer chaos.Reset()

	_, err = ap.Apply(plan)
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("apply error = %v; want injected fault", err)
	}
	if chaos.Fired(SiteApplyCommit) != 1 {
		t.Fatalf("site fired %d times; want 1", chaos.Fired(SiteApplyCommit))
	}

	restored := blackboard.New()
	if err := restored.Restore(bytes.NewReader(pre.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !rdf.Equal(bb.Graph(), restored.Graph()) {
		t.Fatal("failed apply left the graph changed; rollback is not all-or-nothing")
	}

	// The same plan applies cleanly once the fault is disarmed — the
	// applier stays usable after a rollback.
	chaos.Reset()
	res, err := ap.Apply(plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Txns != 2 || len(res.Rematches) != 1 {
		t.Fatalf("post-rollback apply = %+v", res)
	}
	got, err := bb.GetSchema(src.Name)
	if err != nil {
		t.Fatal(err)
	}
	if harmony.SchemaHash(got) != harmony.SchemaHash(next) {
		t.Fatal("post-rollback apply did not land the declared schema")
	}
}
