package match

import (
	"testing"

	"repro/internal/lingo"
	"repro/internal/model"
)

func ctxFixture() *Context {
	return NewContext(sourceSchema(), targetSchema())
}

func TestCalibrate(t *testing.T) {
	if got := calibrate(1, 0.5, 0.9, 0.5); got != 0.9 {
		t.Errorf("perfect sim = %g", got)
	}
	if got := calibrate(0, 0.5, 0.9, 0.5); got != -0.5 {
		t.Errorf("zero sim = %g", got)
	}
	if got := calibrate(0.5, 0.5, 0.9, 0.5); got != 0 {
		t.Errorf("pivot sim = %g", got)
	}
	if got := calibrate(0.75, 0.5, 0.9, 0.5); got != 0.45 {
		t.Errorf("mid sim = %g", got)
	}
	if got := calibrate(0.8, 1, 0.9, 0.5); got >= 0 {
		t.Errorf("pivot=1, sub-pivot sim should be negative: %g", got)
	}
	if got := calibrate(1, 1, 0.9, 0.5); got != 0.9 {
		t.Errorf("pivot=1 at sim=1 = %g", got)
	}
	if got := calibrate(0.5, 0, 0.9, 0.5); got != 0.45 {
		t.Errorf("pivot=0 = %g", got)
	}
}

func TestNameVoterIdenticalAndDisjoint(t *testing.T) {
	ctx := ctxFixture()
	m := (NameVoter{}).Vote(ctx)
	// subtotal vs total share the "total" token: should be positive.
	if got := m.Get("purchaseOrder/purchaseOrder/shipTo/subtotal", "shippingInfo/shippingInfo/total"); got <= 0 {
		t.Errorf("subtotal/total name vote = %g, want > 0", got)
	}
	// firstName vs total: negative.
	if got := m.Get("purchaseOrder/purchaseOrder/shipTo/firstName", "shippingInfo/shippingInfo/total"); got >= 0 {
		t.Errorf("firstName/total name vote = %g, want < 0", got)
	}
}

func TestKindMismatchVote(t *testing.T) {
	ctx := ctxFixture()
	m := (NameVoter{}).Vote(ctx)
	// Entity vs attribute gets the firm negative regardless of names.
	if got := m.Get("purchaseOrder/purchaseOrder/shipTo", "shippingInfo/shippingInfo/name"); got != -0.75 {
		t.Errorf("kind mismatch = %g, want -0.75", got)
	}
}

func TestDocVoterUsesDocumentation(t *testing.T) {
	ctx := ctxFixture()
	m := (DocVoter{}).Vote(ctx)
	// firstName's doc shares recipient/name/shipment vocabulary with
	// target name's doc.
	fn := m.Get("purchaseOrder/purchaseOrder/shipTo/firstName", "shippingInfo/shippingInfo/name")
	if fn <= 0 {
		t.Errorf("doc vote firstName/name = %g, want > 0", fn)
	}
	// Abstention without docs.
	src := model.NewSchema("s", "er")
	src.AddElement(nil, "E", model.KindEntity, model.ContainsElement)
	tgt := model.NewSchema("t", "er")
	tgt.AddElement(nil, "F", model.KindEntity, model.ContainsElement)
	ctx2 := NewContext(src, tgt)
	m2 := (DocVoter{}).Vote(ctx2)
	if got := m2.Get("s/E", "t/F"); got != 0 {
		t.Errorf("no-doc vote = %g, want abstain 0", got)
	}
}

func TestThesaurusVoterBridgesSynonyms(t *testing.T) {
	// "lastName" vs "surname" share no tokens, but the default thesaurus
	// relates last ↔ surname.
	src := model.NewSchema("s", "er")
	e := src.AddElement(nil, "Person", model.KindEntity, model.ContainsElement)
	src.AddElement(e, "lastName", model.KindAttribute, model.ContainsAttribute)
	tgt := model.NewSchema("t", "er")
	f := tgt.AddElement(nil, "Person", model.KindEntity, model.ContainsElement)
	tgt.AddElement(f, "surname", model.KindAttribute, model.ContainsAttribute)
	ctx := NewContext(src, tgt)

	name := (NameVoter{}).Vote(ctx).Get("s/Person/lastName", "t/Person/surname")
	thes := (ThesaurusVoter{}).Vote(ctx).Get("s/Person/lastName", "t/Person/surname")
	if thes <= 0 {
		t.Errorf("thesaurus vote = %g, want > 0", thes)
	}
	if thes <= name {
		t.Errorf("thesaurus (%g) should beat raw name (%g) on synonyms", thes, name)
	}
	// Nil thesaurus abstains.
	ctx.Thesaurus = nil
	if got := (ThesaurusVoter{}).Vote(ctx).Get("s/Person/lastName", "t/Person/surname"); got != 0 {
		t.Errorf("nil thesaurus vote = %g", got)
	}
}

func TestDomainVoter(t *testing.T) {
	src := model.NewSchema("s", "sql")
	e := src.AddElement(nil, "flight", model.KindEntity, model.ContainsTable)
	a := src.AddElement(e, "equip", model.KindAttribute, model.ContainsAttribute)
	a.DomainRef = "D1"
	src.AddDomain(&model.Domain{Name: "D1", Values: []model.DomainValue{
		{Code: "B738"}, {Code: "A320"}, {Code: "E145"},
	}})
	b := src.AddElement(e, "status", model.KindAttribute, model.ContainsAttribute)
	b.DomainRef = "D2"
	src.AddDomain(&model.Domain{Name: "D2", Values: []model.DomainValue{
		{Code: "scheduled"}, {Code: "airborne"},
	}})

	tgt := model.NewSchema("t", "xsd")
	f := tgt.AddElement(nil, "aircraft", model.KindEntity, model.ContainsElement)
	c := tgt.AddElement(f, "typeDesignator", model.KindAttribute, model.ContainsAttribute)
	c.DomainRef = "T1"
	tgt.AddDomain(&model.Domain{Name: "T1", Values: []model.DomainValue{
		{Code: "B738"}, {Code: "A320"},
	}})

	ctx := NewContext(src, tgt)
	m := (DomainVoter{}).Vote(ctx)
	// equip and typeDesignator share coding schemes despite alien names.
	if got := m.Get("s/flight/equip", "t/aircraft/typeDesignator"); got <= 0.5 {
		t.Errorf("shared coding scheme vote = %g, want strong positive", got)
	}
	// status's codes are disjoint: negative evidence.
	if got := m.Get("s/flight/status", "t/aircraft/typeDesignator"); got >= 0 {
		t.Errorf("disjoint coding scheme vote = %g, want negative", got)
	}
	// No domain on either side: abstain.
	if got := m.Get("s/flight", "t/aircraft"); got != 0 {
		t.Errorf("entity pair domain vote = %g, want 0", got)
	}
}

func TestTypeVoter(t *testing.T) {
	ctx := ctxFixture()
	m := (TypeVoter{}).Vote(ctx)
	// string vs string → small positive.
	if got := m.Get("purchaseOrder/purchaseOrder/shipTo/firstName", "shippingInfo/shippingInfo/name"); got != 0.15 {
		t.Errorf("same type group = %g", got)
	}
	// string vs decimal → small negative.
	if got := m.Get("purchaseOrder/purchaseOrder/shipTo/firstName", "shippingInfo/shippingInfo/total"); got != -0.2 {
		t.Errorf("different type group = %g", got)
	}
	// Entities abstain.
	if got := m.Get("purchaseOrder/purchaseOrder/shipTo", "shippingInfo/shippingInfo"); got != 0 {
		t.Errorf("entities type vote = %g", got)
	}
}

func TestStructureVoter(t *testing.T) {
	src := model.NewSchema("s", "er")
	e := src.AddElement(nil, "Emp", model.KindEntity, model.ContainsElement)
	src.AddElement(e, "salary", model.KindAttribute, model.ContainsAttribute)
	src.AddElement(e, "department", model.KindAttribute, model.ContainsAttribute)
	tgt := model.NewSchema("t", "er")
	f := tgt.AddElement(nil, "Worker", model.KindEntity, model.ContainsElement)
	tgt.AddElement(f, "salary", model.KindAttribute, model.ContainsAttribute)
	tgt.AddElement(f, "department", model.KindAttribute, model.ContainsAttribute)
	g := tgt.AddElement(nil, "Building", model.KindEntity, model.ContainsElement)
	tgt.AddElement(g, "floors", model.KindAttribute, model.ContainsAttribute)

	ctx := NewContext(src, tgt)
	m := (StructureVoter{}).Vote(ctx)
	same := m.Get("s/Emp", "t/Worker")
	diff := m.Get("s/Emp", "t/Building")
	if same <= 0 {
		t.Errorf("identical children vote = %g, want > 0", same)
	}
	if diff >= same {
		t.Errorf("disjoint children (%g) should score below identical (%g)", diff, same)
	}
	// Leaves abstain.
	if got := m.Get("s/Emp/salary", "t/Worker/salary"); got != 0 {
		t.Errorf("leaf structure vote = %g", got)
	}
}

func TestDefaultVotersComplete(t *testing.T) {
	vs := DefaultVoters()
	if len(vs) != 6 {
		t.Fatalf("panel size = %d", len(vs))
	}
	seen := map[string]bool{}
	ctx := ctxFixture()
	for _, v := range vs {
		if seen[v.Name()] {
			t.Errorf("duplicate voter name %q", v.Name())
		}
		seen[v.Name()] = true
		m := v.Vote(ctx)
		for i := range m.Sources {
			for j := range m.Targets {
				if c := m.At(i, j); c <= -1 || c >= 1 {
					t.Errorf("%s score out of open interval: %g", v.Name(), c)
				}
			}
		}
	}
}

func TestContextDomainDocsFoldedIn(t *testing.T) {
	s := model.NewSchema("s", "er")
	e := s.AddElement(nil, "flight", model.KindEntity, model.ContainsElement)
	a := s.AddElement(e, "ac", model.KindAttribute, model.ContainsAttribute)
	a.DomainRef = "D"
	s.AddDomain(&model.Domain{Name: "D", Doc: "aircraft designators",
		Values: []model.DomainValue{{Code: "B738", Doc: "Boeing"}}})
	t2 := model.NewSchema("t", "er")
	t2.AddElement(nil, "x", model.KindEntity, model.ContainsElement)
	ctx := NewContext(s, t2)
	toks := docTermsOf(ctx, a)
	if !contains(toks, lingo.Stem("aircraft")) || !contains(toks, lingo.Stem("boeing")) {
		t.Errorf("domain docs not folded into attribute doc tokens: %v", toks)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func TestContextWithoutStemming(t *testing.T) {
	ctx := NewContext(sourceSchema(), targetSchema(), WithoutStemming())
	fn := ctx.Source.MustElement("purchaseOrder/purchaseOrder/shipTo/firstName")
	for _, tok := range docTermsOf(ctx, fn) {
		if tok == "receiv" {
			t.Error("stemming applied despite WithoutStemming")
		}
	}
}

// TestRederiveVectorsAfterLearning checks the eager vector path Learn
// takes: after a word weight moves and the vectors are re-derived, the
// row's weight for that term has grown and the documentation vote moves
// with it.
func TestRederiveVectorsAfterLearning(t *testing.T) {
	ctx := ctxFixture()
	fn := ctx.Source.MustElement("purchaseOrder/purchaseOrder/shipTo/firstName")
	stem := lingo.Stem("name")
	r := rowOf(ctx, fn)
	before := termWeight(ctx, r, stem)
	if before == 0 {
		t.Fatalf("%s has no %q term: %v", fn.ID, stem, docTermsOf(ctx, fn))
	}
	voteBefore := DocVoter{}.Vote(ctx)

	ctx.Corpus.AdjustWordWeight(stem, 5)
	ctx.RederiveVectors()
	if after := termWeight(ctx, r, stem); after <= before {
		t.Errorf("weight of %q after re-derive = %g, want above %g", stem, after, before)
	}
	voteAfter := DocVoter{}.Vote(ctx)
	i := voteAfter.SourceIndex(fn.ID)
	moved := false
	for j := range voteAfter.Targets {
		if voteAfter.At(i, j) != voteBefore.At(i, j) {
			moved = true
		}
	}
	if !moved {
		t.Error("documentation vote of the re-weighted row did not change")
	}
}

func TestContainmentSimCountsRunesNotBytes(t *testing.T) {
	// "価格" is 2 runes but 6 bytes: under the old byte-length guard it
	// passed the "at least 4" check and scored containment against
	// "価格コード" (price code). Two-character CJK names are exactly the
	// ambiguous short names the guard exists for.
	if got := containmentSim("価格", "価格コード"); got != 0 {
		t.Errorf("2-rune CJK name passed the 4-rune guard: %g", got)
	}
	// A genuinely long CJK containment still scores, with the length
	// ratio measured in runes (6/8), not bytes.
	want := 0.5 + 0.45*(6.0/8.0)
	if got := containmentSim("データベース", "データベース管理"); got != want {
		t.Errorf("CJK containment = %g, want %g", got, want)
	}
	// ASCII behavior is unchanged.
	if got := containmentSim("total", "subtotal"); got != 0.5+0.45*(5.0/8.0) {
		t.Errorf("ascii containment = %g", got)
	}
	if got := containmentSim("qty", "quantity"); got != 0 {
		t.Errorf("3-rune ascii name passed the guard: %g", got)
	}
}

func TestLowerFallsBackForNonASCII(t *testing.T) {
	if got := lower("ÉCOLE"); got != "école" {
		t.Errorf("lower(ÉCOLE) = %q", got)
	}
	if got := lower("ShipTo"); got != "shipto" {
		t.Errorf("lower(ShipTo) = %q", got)
	}
}

func TestNameVoterNonASCIINames(t *testing.T) {
	// Accented names differing only in case must fold to an exact match;
	// before the lower() fix, "É" stayed uppercase and the similarity
	// dropped below certainty.
	src := model.NewSchema("s", "er")
	e := src.AddElement(nil, "Commande", model.KindEntity, model.ContainsElement)
	src.AddElement(e, "ÉCOLE", model.KindAttribute, model.ContainsAttribute)
	tgt := model.NewSchema("t", "er")
	f := tgt.AddElement(nil, "Commande", model.KindEntity, model.ContainsElement)
	tgt.AddElement(f, "école", model.KindAttribute, model.ContainsAttribute)
	ctx := NewContext(src, tgt)
	m := (NameVoter{}).Vote(ctx)
	if got := m.Get("s/Commande/ÉCOLE", "t/Commande/école"); got < 0.85 {
		t.Errorf("case-folded accented names should match strongly: %g", got)
	}
}
