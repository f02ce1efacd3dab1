package match

import (
	"testing"

	"repro/internal/model"
)

func TestNameEqualityMatcher(t *testing.T) {
	src := model.NewSchema("s", "er")
	e := src.AddElement(nil, "Person", model.KindEntity, model.ContainsElement)
	src.AddElement(e, "Name", model.KindAttribute, model.ContainsAttribute)
	tgt := model.NewSchema("t", "er")
	f := tgt.AddElement(nil, "person", model.KindEntity, model.ContainsElement)
	tgt.AddElement(f, "title", model.KindAttribute, model.ContainsAttribute)
	ctx := NewContext(src, tgt)
	m := (NameEqualityMatcher{}).Vote(ctx)
	if got := m.Get("s/Person", "t/person"); got != 0.95 {
		t.Errorf("case-insensitive equality = %g", got)
	}
	if got := m.Get("s/Person/Name", "t/person/title"); got != 0 {
		t.Errorf("different names = %g", got)
	}
}

func TestEditDistanceMatcher(t *testing.T) {
	ctx := ctxFixture()
	m := (EditDistanceMatcher{}).Vote(ctx)
	same := m.Get("purchaseOrder/purchaseOrder/shipTo/subtotal", "shippingInfo/shippingInfo/total")
	diff := m.Get("purchaseOrder/purchaseOrder/shipTo/firstName", "shippingInfo/shippingInfo/total")
	if same <= diff {
		t.Errorf("edit distance: close pair %g should beat far pair %g", same, diff)
	}
}

func TestCOMAMatcherUsesStructure(t *testing.T) {
	// Same entity names, children decide.
	src := model.NewSchema("s", "er")
	e := src.AddElement(nil, "rec", model.KindEntity, model.ContainsElement)
	src.AddElement(e, "salary", model.KindAttribute, model.ContainsAttribute)
	src.AddElement(e, "dept", model.KindAttribute, model.ContainsAttribute)
	tgt := model.NewSchema("t", "er")
	f := tgt.AddElement(nil, "rec", model.KindEntity, model.ContainsElement)
	tgt.AddElement(f, "salary", model.KindAttribute, model.ContainsAttribute)
	tgt.AddElement(f, "dept", model.KindAttribute, model.ContainsAttribute)
	g := tgt.AddElement(nil, "rec2", model.KindEntity, model.ContainsElement)
	tgt.AddElement(g, "runway", model.KindAttribute, model.ContainsAttribute)

	ctx := NewContext(src, tgt)
	m := (COMAMatcher{}).Vote(ctx)
	right := m.Get("s/rec", "t/rec")
	wrong := m.Get("s/rec", "t/rec2")
	if right <= wrong {
		t.Errorf("COMA: %g should beat %g", right, wrong)
	}
	if right <= 0 {
		t.Errorf("COMA on identical entity = %g, want positive", right)
	}
}

func TestCOMAIgnoresDocumentation(t *testing.T) {
	// Two elements whose only shared signal is documentation: COMA should
	// not see it, the doc voter should.
	src := model.NewSchema("s", "er")
	e := src.AddElement(nil, "Xq", model.KindEntity, model.ContainsElement)
	e.Doc = "the airport facility where aircraft land and depart"
	tgt := model.NewSchema("t", "er")
	f := tgt.AddElement(nil, "Zw", model.KindEntity, model.ContainsElement)
	f.Doc = "a facility where aircraft land, an airport"
	ctx := NewContext(src, tgt)
	coma := (COMAMatcher{}).Vote(ctx).Get("s/Xq", "t/Zw")
	doc := (DocVoter{}).Vote(ctx).Get("s/Xq", "t/Zw")
	if doc <= 0 {
		t.Errorf("doc voter = %g, want positive", doc)
	}
	if coma >= doc {
		t.Errorf("COMA (%g) should not see documentation signal (%g)", coma, doc)
	}
}

func TestBaselineScoresInRange(t *testing.T) {
	ctx := ctxFixture()
	for _, v := range []Voter{NameEqualityMatcher{}, EditDistanceMatcher{}, COMAMatcher{}, MelnikMatcher{}} {
		m := v.Vote(ctx)
		for i := range m.Sources {
			for j := range m.Targets {
				if c := m.At(i, j); c < -0.99 || c > 0.99 {
					t.Errorf("%s: score %g out of range", v.Name(), c)
				}
			}
		}
	}
}

func TestCupidMatcherLeavesInheritParentContext(t *testing.T) {
	// Two leaves named identically under different entities: Cupid's
	// structural component should prefer the pair whose parents also
	// align linguistically.
	src := model.NewSchema("s", "er")
	e1 := src.AddElement(nil, "employee", model.KindEntity, model.ContainsElement)
	src.AddElement(e1, "name", model.KindAttribute, model.ContainsAttribute)
	tgt := model.NewSchema("t", "er")
	f1 := tgt.AddElement(nil, "employee", model.KindEntity, model.ContainsElement)
	tgt.AddElement(f1, "name", model.KindAttribute, model.ContainsAttribute)
	f2 := tgt.AddElement(nil, "airport", model.KindEntity, model.ContainsElement)
	tgt.AddElement(f2, "name", model.KindAttribute, model.ContainsAttribute)

	ctx := NewContext(src, tgt)
	m := (CupidMatcher{}).Vote(ctx)
	right := m.Get("s/employee/name", "t/employee/name")
	wrong := m.Get("s/employee/name", "t/airport/name")
	if right <= wrong {
		t.Errorf("Cupid context: right=%g wrong=%g", right, wrong)
	}
}

func TestCupidMatcherInnerNodesUseLeaves(t *testing.T) {
	// Entities with alien names but identical attribute sets: the
	// structural half should lift the pair.
	src := model.NewSchema("s", "er")
	e := src.AddElement(nil, "zebra", model.KindEntity, model.ContainsElement)
	src.AddElement(e, "salary", model.KindAttribute, model.ContainsAttribute)
	src.AddElement(e, "department", model.KindAttribute, model.ContainsAttribute)
	tgt := model.NewSchema("t", "er")
	f := tgt.AddElement(nil, "quokka", model.KindEntity, model.ContainsElement)
	tgt.AddElement(f, "salary", model.KindAttribute, model.ContainsAttribute)
	tgt.AddElement(f, "department", model.KindAttribute, model.ContainsAttribute)
	g := tgt.AddElement(nil, "wombat", model.KindEntity, model.ContainsElement)
	tgt.AddElement(g, "runway", model.KindAttribute, model.ContainsAttribute)

	ctx := NewContext(src, tgt)
	m := (CupidMatcher{}).Vote(ctx)
	right := m.Get("s/zebra", "t/quokka")
	wrong := m.Get("s/zebra", "t/wombat")
	if right <= wrong || right <= 0 {
		t.Errorf("Cupid structure: right=%g wrong=%g", right, wrong)
	}
}

func TestCupidMatcherCustomWeight(t *testing.T) {
	ctx := ctxFixture()
	pureLing := (CupidMatcher{WStruct: 0.0001}).Vote(ctx)
	pureStruct := (CupidMatcher{WStruct: 0.9999}).Vote(ctx)
	// The two extremes must differ somewhere.
	differ := false
	for i := range pureLing.Sources {
		for j := range pureLing.Targets {
			if pureLing.At(i, j) != pureStruct.At(i, j) {
				differ = true
			}
		}
	}
	if !differ {
		t.Error("WStruct has no effect")
	}
}
