package rdf

import (
	"strings"
	"testing"
)

// FuzzNTriples checks the snapshot format's round-trip property: any
// input the parser accepts must serialize to a canonical form that
// parses back to the identical triple set, and that canonical form must
// be a fixed point. The blackboard's Snapshot/Restore pair (the
// cross-workbench sharing stand-in) depends on exactly this.
func FuzzNTriples(f *testing.F) {
	f.Add("<urn:s> <urn:p> <urn:o> .")
	f.Add("<urn:s> <urn:p> \"a literal\" .")
	f.Add("<urn:s> <urn:p> \"esc \\\" \\\\ \\n\" .")
	f.Add("<urn:s> <urn:p> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .")
	f.Add("_:b1 <urn:p> _:b2 .")
	f.Add("# comment\n\n<urn:s> <urn:p> \"x\"@en .")
	f.Add("<urn:s> <urn:p> \"\" .")
	f.Add("<a.> <b> _:c. .")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := UnmarshalNTriples(input)
		if err != nil {
			return // rejected input is fine; panics/hangs are not
		}
		out := MarshalNTriples(g)
		g2, err := UnmarshalNTriples(out)
		if err != nil {
			t.Fatalf("serialized form does not re-parse: %v\ninput: %q\nserialized: %q", err, input, out)
		}
		if !Equal(g, g2) {
			added, removed := g2.Diff(g)
			t.Fatalf("round trip changed the graph: +%v -%v\ninput: %q\nserialized: %q",
				added, removed, input, out)
		}
		if out2 := MarshalNTriples(g2); out2 != out {
			t.Fatalf("canonical form is not a fixed point:\nfirst:  %q\nsecond: %q", out, out2)
		}
	})
}

// FuzzParseTriple exercises the single-statement parser directly: it
// must reject or accept, never panic, and accepted statements must
// render back to an equal statement.
func FuzzParseTriple(f *testing.F) {
	f.Add("<urn:s> <urn:p> <urn:o> .")
	f.Add("\"subject literal\" <urn:p> \"x\"")
	f.Add("_:b <urn:p> \"x\"^^<urn:t>")
	f.Fuzz(func(t *testing.T, line string) {
		tr, err := ParseTriple(line)
		if err != nil {
			return
		}
		if strings.ContainsRune(line, '\n') {
			return // multi-line input is ReadNTriples' business
		}
		tr2, err := ParseTriple(tr.String())
		if err != nil {
			t.Fatalf("rendered triple does not re-parse: %v\nline: %q\nrendered: %q", err, line, tr.String())
		}
		if tr != tr2 {
			t.Fatalf("triple changed across round trip:\n%v\n%v", tr, tr2)
		}
	})
}

// FuzzTermRoundTrip: any IRI of valid UTF-8 without control characters
// survives Triple.String and ParseTriple in every position — the form
// the WAL, snapshots and replication carry.
func FuzzTermRoundTrip(f *testing.F) {
	f.Add("urn:workbench:schema/s#s/e")
	f.Add("urn:workbench:schema/orders#orders/Order Lines/line no")
	f.Add(`urn:a>b\c`)
	f.Add(`urn: `)
	f.Add("")
	f.Fuzz(func(t *testing.T, iri string) {
		if checkTermText(iri, "IRI", false) != nil {
			return
		}
		want := Triple{IRI(iri), IRI(iri), IRI(iri)}
		line := want.String()
		got, err := ParseTriple(line)
		if err != nil {
			t.Fatalf("ParseTriple(%q): %v", line, err)
		}
		if got != want {
			t.Fatalf("round trip of %q gave %v", iri, got)
		}
	})
}
