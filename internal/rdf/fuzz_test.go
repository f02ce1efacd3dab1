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

// FuzzGraphOps decodes its input into a run of graph operations — Add,
// Remove, SetOne, RemoveMatching, nested Savepoint, Rollback, Release
// and Clone — over a small term universe with IRIs sharing prefixes,
// literals of one lexical form under several datatypes, and a subject
// reused as an object. After every step every read agrees with a plain
// set of triples and the dictionary invariants hold (checkAgainstModel,
// checkDict). A clone taken with no savepoint open replaces the graph
// for the rest of the run; every graph left behind must still read as
// it did when it was left.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x22, 0x40, 0x01, 0x51, 0x00})
	f.Add([]byte{0x40, 0x02, 0x13, 0x22, 0x31, 0x60, 0x40, 0x24, 0x50, 0x70})
	f.Add([]byte{0x00, 0x01, 0x02, 0x70, 0x10, 0x40, 0x23, 0x24, 0x25, 0x50, 0x26, 0x30})
	subs := []Term{IRI("urn:m1"), IRI("urn:m1/cell/a|b"), IRI("urn:m10"), Blank("b1")}
	preds := []Term{IRI("urn:p"), IRI("urn:p/x"), IRI("urn:has-cell")}
	objs := []Term{
		Literal("1"), IntLiteral(1), TypedLiteral("1", XSDString), FloatLiteral(0.5),
		IRI("urn:m1/cell/a|b"), IRI("urn:m1"), Blank("b1"),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		g := NewGraph()
		model := map[Triple]bool{}
		type open struct {
			sp    Savepoint
			model map[Triple]bool
		}
		var stack []open
		type left struct {
			g    *Graph
			text string
		}
		var retired []left
		copyModel := func() map[Triple]bool {
			c := make(map[Triple]bool, len(model))
			for k := range model {
				c[k] = true
			}
			return c
		}
		// Each step takes an op byte and, for ops that name a triple, one
		// argument byte: its bits pick the subject, predicate and object.
		for i := 0; i < len(data); i++ {
			ob := data[i]
			op := ob >> 4 & 7
			var a byte
			if op < 4 && i+1 < len(data) {
				i++
				a = data[i]
			}
			pick := func(ts []Term, n byte) Term { return ts[int(n)%len(ts)] }
			s, p, o := pick(subs, a&3), pick(preds, (a>>2)&3), pick(objs, a>>4)
			var name string
			switch op {
			case 0:
				name = "add"
				x := Triple{s, p, o}
				if got := g.Add(x); got == model[x] {
					t.Fatalf("Add(%v) = %v with the triple present=%v", x, got, model[x])
				}
				model[x] = true
			case 1:
				name = "remove"
				x := Triple{s, p, o}
				if got := g.Remove(x); got != model[x] {
					t.Fatalf("Remove(%v) = %v, want %v", x, got, model[x])
				}
				delete(model, x)
			case 2:
				name = "setone"
				g.SetOne(s, p, o)
				for x := range model {
					if x.S == s && x.P == p {
						delete(model, x)
					}
				}
				model[Triple{s, p, o}] = true
			case 3:
				name = "removematching"
				// The op byte's low bits make positions wild.
				if ob&1 != 0 {
					s = Wild
				}
				if ob&2 != 0 {
					p = Wild
				}
				if ob&4 != 0 {
					o = Wild
				}
				victims := g.RemoveMatching(s, p, o)
				want := 0
				for x := range model {
					if matches(x, s, p, o) {
						delete(model, x)
						want++
					}
				}
				if len(victims) != want {
					t.Fatalf("RemoveMatching(%v, %v, %v) removed %d, want %d", s, p, o, len(victims), want)
				}
			case 4:
				name = "savepoint"
				if len(stack) < 3 {
					stack = append(stack, open{g.Savepoint(), copyModel()})
				}
			case 5:
				name = "rollback"
				if n := len(stack); n > 0 {
					g.Rollback(stack[n-1].sp)
					model = stack[n-1].model
					stack = stack[:n-1]
				}
			case 6:
				name = "release"
				if n := len(stack); n > 0 {
					g.Release(stack[n-1].sp)
					stack = stack[:n-1]
				}
			default:
				name = "clone"
				c := g.Clone()
				if len(stack) == 0 {
					retired = append(retired, left{g, MarshalNTriples(g)})
					g = c
				} else {
					retired = append(retired, left{c, MarshalNTriples(c)})
				}
			}
			checkAgainstModel(t, g, model, subs, preds, objs)
			if t.Failed() {
				t.Fatalf("byte %d (%s) diverged from the reference model", i, name)
			}
		}
		for n, r := range retired {
			if got := MarshalNTriples(r.g); got != r.text {
				t.Fatalf("graph %d left behind changed from\n%s\nto\n%s", n, r.text, got)
			}
			checkDict(t, r.g)
		}
	})
}
