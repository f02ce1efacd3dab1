package rdf

import (
	"testing"
	"testing/quick"
)

func TestTermKinds(t *testing.T) {
	cases := []struct {
		term Term
		kind Kind
		val  string
	}{
		{IRI("http://x/a"), IRIKind, "http://x/a"},
		{Literal("hello"), LiteralKind, "hello"},
		{TypedLiteral("3", XSDInteger), LiteralKind, "3"},
		{Blank("b1"), BlankKind, "b1"},
	}
	for _, c := range cases {
		if c.term.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.term, c.term.Kind(), c.kind)
		}
		if c.term.Value() != c.val {
			t.Errorf("%v: value = %q, want %q", c.term, c.term.Value(), c.val)
		}
	}
}

func TestKindString(t *testing.T) {
	if IRIKind.String() != "iri" || LiteralKind.String() != "literal" || BlankKind.String() != "blank" {
		t.Errorf("unexpected kind names: %v %v %v", IRIKind, LiteralKind, BlankKind)
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("Kind(99) = %q", Kind(99).String())
	}
}

func TestTermEquality(t *testing.T) {
	if IRI("a") != IRI("a") {
		t.Error("identical IRIs must be ==")
	}
	if IRI("a") == Literal("a") {
		t.Error("IRI and literal with same value must differ")
	}
	if Literal("3") == IntLiteral(3) {
		t.Error("plain and typed literal must differ")
	}
	if Blank("a") == IRI("a") {
		t.Error("blank and IRI must differ")
	}
}

func TestTermIsZero(t *testing.T) {
	var z Term
	if !z.IsZero() {
		t.Error("zero Term should be IsZero")
	}
	if IRI("").IsZero() {
		// IRI("") has IRIKind == 0 and empty value, so it actually equals
		// the zero term; document the invariant that empty IRIs are
		// indistinguishable from Wild and must not be used.
		t.Skip("IRI(\"\") is identical to the zero term by design")
	}
}

func TestNumericLiterals(t *testing.T) {
	i, err := IntLiteral(42).Int()
	if err != nil || i != 42 {
		t.Errorf("Int = %d, %v", i, err)
	}
	f, err := FloatLiteral(0.8).Float()
	if err != nil || f != 0.8 {
		t.Errorf("Float = %g, %v", f, err)
	}
	b, err := BoolLiteral(true).Bool()
	if err != nil || !b {
		t.Errorf("Bool = %v, %v", b, err)
	}
	if _, err := IRI("x").Int(); err == nil {
		t.Error("Int on IRI should error")
	}
	if _, err := IRI("x").Float(); err == nil {
		t.Error("Float on IRI should error")
	}
	if _, err := IRI("x").Bool(); err == nil {
		t.Error("Bool on IRI should error")
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{IRI("http://x/a"), "<http://x/a>"},
		{Blank("n1"), "_:n1"},
		{Literal("hi"), `"hi"`},
		{Literal("a\"b\\c\nd\te\rf"), `"a\"b\\c\nd\te\rf"`},
		{IntLiteral(7), `"7"^^<` + XSDInteger + `>`},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	f := func(s string) bool {
		got, err := unescapeLiteral(string(appendLiteral(nil, s)))
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnescapeErrors(t *testing.T) {
	if _, err := unescapeLiteral(`abc\`); err == nil {
		t.Error("dangling escape should error")
	}
	if _, err := unescapeLiteral(`\q`); err == nil {
		t.Error("unknown escape should error")
	}
}

func TestTripleCompare(t *testing.T) {
	a := Triple{IRI("a"), IRI("p"), IRI("x")}
	b := Triple{IRI("b"), IRI("p"), IRI("x")}
	if a.Compare(b) >= 0 || b.Compare(a) <= 0 || a.Compare(a) != 0 {
		t.Error("Compare ordering wrong on subjects")
	}
	c := Triple{IRI("a"), IRI("q"), IRI("x")}
	if a.Compare(c) >= 0 {
		t.Error("Compare ordering wrong on predicates")
	}
	d := Triple{IRI("a"), IRI("p"), IRI("y")}
	if a.Compare(d) >= 0 {
		t.Error("Compare ordering wrong on objects")
	}
	// Kind ordering: IRI < Literal < Blank per Kind constants.
	e := Triple{IRI("a"), IRI("p"), Literal("x")}
	if a.Compare(e) >= 0 {
		t.Error("IRI object should sort before literal object")
	}
}

func TestCompareTermDatatype(t *testing.T) {
	a := TypedLiteral("1", XSDInteger)
	b := TypedLiteral("1", XSDFloat)
	if compareTerm(a, b) == 0 {
		t.Error("literals with different datatypes must not compare equal")
	}
	if compareTerm(a, a) != 0 {
		t.Error("term must compare equal to itself")
	}
}

func TestTripleString(t *testing.T) {
	tr := Triple{IRI("s"), IRI("p"), Literal("o")}
	if got := tr.String(); got != `<s> <p> "o" .` {
		t.Errorf("Triple.String = %q", got)
	}
}

// TestIRIEscapes: an IRI's space, '>' and '\' serialize as UCHAR
// escapes and parse back; every other IRI serializes verbatim.
func TestIRIEscapes(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{IRI("urn:workbench:mapping/m1/cell/a|b"), "<urn:workbench:mapping/m1/cell/a|b>"},
		{IRI(`urn:x"{}^` + "`é"), `<urn:x"{}^` + "`é>"},
		{IRI(`urn:Order Lines>1\x`), `<urn:Order\u0020Lines\u003E1\u005Cx>`},
		{TypedLiteral("1", "urn:t t"), `"1"^^<urn:t\u0020t>`},
	}
	for _, c := range cases {
		got := c.term.String()
		if got != c.want {
			t.Errorf("String(%q) = %q, want %q", c.term.Value(), got, c.want)
		}
		back, err := parseTermToken(got)
		if err != nil || back != c.term {
			t.Errorf("parseTermToken(%q) = %v, %v; want %v", got, back, err, c.term)
		}
	}
	for _, tok := range []string{`<a\u00>`, `<a\u00zz>`, `<a\x>`, `<a\>`, `<a\UFFFFFFFF>`, `<a\uD800>`, `<a\u0001>`} {
		if got, err := parseTermToken(tok); err == nil {
			t.Errorf("parseTermToken(%q) = %v, want an error", tok, got)
		}
	}
	if got, err := parseTermToken(`<a\U0001F600é>`); err != nil || got != IRI("a😀é") {
		t.Errorf("8- and 4-digit escapes: %v, %v", got, err)
	}
}
