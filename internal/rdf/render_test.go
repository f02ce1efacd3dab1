package rdf

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// termStringRef, escapeIRIRef and escapeLiteralRef are the string-
// building renderers Term.AppendTo replaced, kept as the byte-for-byte
// reference.
func termStringRef(t Term) string {
	switch t.kind {
	case IRIKind:
		return "<" + escapeIRIRef(t.value) + ">"
	case BlankKind:
		return "_:" + t.value
	case LiteralKind:
		s := "\"" + escapeLiteralRef(t.value) + "\""
		if t.datatype != "" {
			s += "^^<" + escapeIRIRef(t.datatype) + ">"
		}
		return s
	default:
		return "?!"
	}
}

func escapeIRIRef(s string) string {
	if !strings.ContainsAny(s, ` >\`) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case ' ', '>', '\\':
			fmt.Fprintf(&b, `\u%04X`, c)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

func escapeLiteralRef(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func tripleStringRef(t Triple) string {
	return termStringRef(t.S) + " " + termStringRef(t.P) + " " + termStringRef(t.O) + " ."
}

// writeNTriplesRef is the writer WriteNTriples replaced: sort every
// triple, then render each.
func writeNTriplesRef(g *Graph) string {
	var b strings.Builder
	for _, t := range g.Triples() {
		b.WriteString(tripleStringRef(t) + "\n")
	}
	return b.String()
}

// renderPieces mixes plain text with every character the renderers
// escape, non-ASCII text, a genuine U+FFFD and invalid UTF-8.
var renderPieces = []string{
	"urn:workbench:", "schema/s#s/e", "a", "Order Lines", " ", ">", `\`, `"`,
	"\n", "\r", "\t", "|", "é", "価格", "�", "\xff", "\xe2\x82", "x\x80y", "0",
}

// randomTerm builds a random term: IRIs, blank nodes, plain and typed
// literals, over renderPieces.
func randomTerm(rng *rand.Rand) Term {
	text := func() string {
		var b strings.Builder
		for k := rng.Intn(5); k >= 0; k-- {
			b.WriteString(renderPieces[rng.Intn(len(renderPieces))])
		}
		return b.String()
	}
	switch rng.Intn(5) {
	case 0:
		return Blank(fmt.Sprintf("b%d", rng.Intn(20)))
	case 1:
		return Literal(text())
	case 2:
		return TypedLiteral(text(), []string{XSDInteger, XSDString, "urn:type with space", `urn:t>\`}[rng.Intn(4)])
	default:
		return IRI(text())
	}
}

// randomRenderGraph builds a graph whose subjects share predicates and
// objects, so every level of the index holds several keys.
func randomRenderGraph(rng *rand.Rand, n int) *Graph {
	g := NewGraph()
	subjects := make([]Term, 1+n/8)
	for k := range subjects {
		subjects[k] = randomTerm(rng)
	}
	preds := make([]Term, 6)
	for k := range preds {
		preds[k] = randomTerm(rng)
	}
	for k := 0; k < n; k++ {
		g.Add(Triple{subjects[rng.Intn(len(subjects))], preds[rng.Intn(len(preds))], randomTerm(rng)})
	}
	return g
}

// TestNTriplesRenderersMatchStringReference checks Term.String, Triple.String,
// WriteNTriples and MarshalNTriples against the string-building code
// they replaced, byte for byte, on random graphs with escapes, blank
// nodes, typed literals and invalid UTF-8.
func TestNTriplesRenderersMatchStringReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 2000; k++ {
		term := randomTerm(rng)
		if got, want := term.String(), termStringRef(term); got != want {
			t.Fatalf("Term.String(%#v) = %q, reference %q", term, got, want)
		}
		tr := Triple{term, randomTerm(rng), randomTerm(rng)}
		if got, want := tr.String(), tripleStringRef(tr); got != want {
			t.Fatalf("Triple.String = %q, reference %q", got, want)
		}
	}
	for n := 0; n < 20; n++ {
		g := randomRenderGraph(rng, 1+rng.Intn(400))
		want := writeNTriplesRef(g)
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, g); err != nil {
			t.Fatal(err)
		}
		if buf.String() != want {
			t.Fatalf("graph %d: WriteNTriples differs from the reference\n got: %q\nwant: %q", n, buf.String(), want)
		}
		if got := MarshalNTriples(g); got != want {
			t.Fatalf("graph %d: MarshalNTriples differs from the reference", n)
		}
	}
}
