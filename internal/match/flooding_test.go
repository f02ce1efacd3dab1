package match

import (
	"testing"

	"repro/internal/model"
)

// floodFixture builds matched parent/child schemata where linguistic
// evidence exists only at one level, so flooding must move it.
func floodFixture() (*model.Schema, *model.Schema) {
	src := model.NewSchema("s", "er")
	e := src.AddElement(nil, "Entity1", model.KindEntity, model.ContainsElement)
	src.AddElement(e, "alpha", model.KindAttribute, model.ContainsAttribute)
	src.AddElement(e, "beta", model.KindAttribute, model.ContainsAttribute)
	f := src.AddElement(nil, "Entity2", model.KindEntity, model.ContainsElement)
	src.AddElement(f, "gamma", model.KindAttribute, model.ContainsAttribute)

	tgt := model.NewSchema("t", "er")
	g := tgt.AddElement(nil, "EntityA", model.KindEntity, model.ContainsElement)
	tgt.AddElement(g, "alpha", model.KindAttribute, model.ContainsAttribute)
	tgt.AddElement(g, "beta", model.KindAttribute, model.ContainsAttribute)
	h := tgt.AddElement(nil, "EntityB", model.KindEntity, model.ContainsElement)
	tgt.AddElement(h, "gamma", model.KindAttribute, model.ContainsAttribute)
	return src, tgt
}

func TestHarmonyFloodUpPropagation(t *testing.T) {
	src, tgt := floodFixture()
	m := MatrixOver(src, tgt)
	// Strong child matches; parents unknown (0).
	m.Set("s/Entity1/alpha", "t/EntityA/alpha", 0.8)
	m.Set("s/Entity1/beta", "t/EntityA/beta", 0.8)
	out := HarmonyFlood(m, src, tgt, FloodOptions{Iterations: 1})
	if got := out.Get("s/Entity1", "t/EntityA"); got <= 0 {
		t.Errorf("parents of matching children should rise: %g", got)
	}
	// Entity2's child doesn't match EntityA's children: no lift.
	if got := out.Get("s/Entity2", "t/EntityA"); got != 0 {
		t.Errorf("unrelated parent pair moved: %g", got)
	}
}

func TestHarmonyFloodDownPropagation(t *testing.T) {
	src, tgt := floodFixture()
	m := MatrixOver(src, tgt)
	// Ambiguous child evidence, strongly mismatched parents.
	m.Set("s/Entity1", "t/EntityB", -0.8)
	m.Set("s/Entity1/alpha", "t/EntityB/gamma", 0.4)
	out := HarmonyFlood(m, src, tgt, FloodOptions{Iterations: 1})
	if got := out.Get("s/Entity1/alpha", "t/EntityB/gamma"); got >= 0.4 {
		t.Errorf("negative parents should drag children down: %g", got)
	}
}

func TestHarmonyFloodPositiveParentsDoNotDrag(t *testing.T) {
	src, tgt := floodFixture()
	m := MatrixOver(src, tgt)
	m.Set("s/Entity1", "t/EntityA", 0.8)
	m.Set("s/Entity1/alpha", "t/EntityA/beta", -0.2)
	out := HarmonyFlood(m, src, tgt, FloodOptions{Iterations: 1})
	// Positive parents do NOT boost children in the Harmony variant
	// (positive flows up only); the -0.2 must not become more negative,
	// and must not be boosted either.
	got := out.Get("s/Entity1/alpha", "t/EntityA/beta")
	if got != -0.2 {
		t.Errorf("child under positive parents changed: %g, want -0.2", got)
	}
}

func TestHarmonyFloodBounded(t *testing.T) {
	src, tgt := floodFixture()
	m := MatrixOver(src, tgt)
	for i := range m.Sources {
		for j := range m.Targets {
			m.SetAt(i, j, 0.95)
		}
	}
	out := HarmonyFlood(m, src, tgt, FloodOptions{Iterations: 5})
	for i := range out.Sources {
		for j := range out.Targets {
			if v := out.At(i, j); v < -0.99 || v > 0.99 {
				t.Fatalf("score escaped bounds: %g", v)
			}
		}
	}
}

func TestMelnikFloodDisambiguatesByStructure(t *testing.T) {
	// Two sources with identical names; only structure separates them.
	src := model.NewSchema("s", "er")
	e1 := src.AddElement(nil, "item", model.KindEntity, model.ContainsElement)
	src.AddElement(e1, "price", model.KindAttribute, model.ContainsAttribute)
	e2 := src.AddElement(nil, "thing", model.KindEntity, model.ContainsElement)
	src.AddElement(e2, "weight", model.KindAttribute, model.ContainsAttribute)

	tgt := model.NewSchema("t", "er")
	f1 := tgt.AddElement(nil, "item", model.KindEntity, model.ContainsElement)
	tgt.AddElement(f1, "price", model.KindAttribute, model.ContainsAttribute)
	f2 := tgt.AddElement(nil, "thing", model.KindEntity, model.ContainsElement)
	tgt.AddElement(f2, "weight", model.KindAttribute, model.ContainsAttribute)

	ctx := NewContext(src, tgt)
	m := (MelnikMatcher{}).Vote(ctx)
	right := m.Get("s/item/price", "t/item/price")
	wrong := m.Get("s/item/price", "t/thing/weight")
	if right <= wrong {
		t.Errorf("flooding failed to separate: right=%g wrong=%g", right, wrong)
	}
}

func TestMelnikFloodConverges(t *testing.T) {
	src, tgt := floodFixture()
	init := MatrixOver(src, tgt)
	for i := range init.Sources {
		for j := range init.Targets {
			init.SetAt(i, j, 0.5)
		}
	}
	out := MelnikFlood(init, src, tgt, 200, 1e-6)
	// Normalized: max value should be 1 (or close), none negative.
	maxV := 0.0
	for i := range out.Sources {
		for j := range out.Targets {
			if out.At(i, j) < 0 {
				t.Fatalf("negative score in [0,1] flooding: %g", out.At(i, j))
			}
			if out.At(i, j) > maxV {
				maxV = out.At(i, j)
			}
		}
	}
	if maxV < 0.99 || maxV > 1.0000001 {
		t.Errorf("normalization: max = %g", maxV)
	}
}

func TestFloodOptionsDefaults(t *testing.T) {
	var o FloodOptions
	o.defaults()
	if o.Iterations != 2 || o.UpWeight != 0.3 || o.DownWeight != 0.3 {
		t.Errorf("defaults: %+v", o)
	}
	// The DisableFlood sentinel must survive defaults() as an inert zero
	// rather than being replaced by the default weight.
	o = FloodOptions{Iterations: DisableFlood, UpWeight: DisableFlood, DownWeight: -0.5}
	o.defaults()
	if o.Iterations != 0 || o.UpWeight != 0 || o.DownWeight != 0 {
		t.Errorf("disabled defaults: %+v", o)
	}
}

func TestHarmonyFloodDisabledUpIsNoOp(t *testing.T) {
	src, tgt := floodFixture()
	m := MatrixOver(src, tgt)
	// Strong child matches that would normally lift the parents.
	m.Set("s/Entity1/alpha", "t/EntityA/alpha", 0.8)
	m.Set("s/Entity1/beta", "t/EntityA/beta", 0.8)
	out := HarmonyFlood(m, src, tgt, FloodOptions{Iterations: 1, UpWeight: DisableFlood})
	if got := out.Get("s/Entity1", "t/EntityA"); got != 0 {
		t.Errorf("up-propagation disabled but parents moved: %g", got)
	}
}

func TestHarmonyFloodDisabledDownIsNoOp(t *testing.T) {
	src, tgt := floodFixture()
	m := MatrixOver(src, tgt)
	// Mismatched parents that would normally drag the child pair down.
	m.Set("s/Entity1", "t/EntityB", -0.8)
	m.Set("s/Entity1/alpha", "t/EntityB/gamma", 0.4)
	out := HarmonyFlood(m, src, tgt, FloodOptions{Iterations: 1, DownWeight: DisableFlood})
	if got := out.Get("s/Entity1/alpha", "t/EntityB/gamma"); got != 0.4 {
		t.Errorf("down-propagation disabled but child moved: %g", got)
	}
}

func TestHarmonyFloodDisabledIterationsReturnsInput(t *testing.T) {
	src, tgt := floodFixture()
	m := MatrixOver(src, tgt)
	m.Set("s/Entity1/alpha", "t/EntityA/alpha", 0.8)
	out := HarmonyFlood(m, src, tgt, FloodOptions{Iterations: DisableFlood})
	if out.Get("s/Entity1", "t/EntityA") != 0 || out.Get("s/Entity1/alpha", "t/EntityA/alpha") != 0.8 {
		t.Errorf("disabled iterations still propagated:\n%s", out)
	}
}
