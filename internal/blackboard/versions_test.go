package blackboard

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/rdf"
	"repro/internal/registry"
)

// Schema version history: a re-put leaves the head exactly as a fresh
// put of the new version would, every archived version reads back as
// it was put, the archive grows with the edits rather than with the
// schema, and archives written as full copies stay readable.

// versionSchema generates the seeded registry model a history test
// evolves: entities, attributes with docs, and coded domains.
func versionSchema(seed int64, entities, attributes, values int) *model.Schema {
	cfg := registry.DefaultConfig()
	cfg.Seed, cfg.Models = seed, 1
	cfg.ElementsTotal, cfg.AttributesTotal, cfg.DomainValuesTotal = entities, attributes, values
	return registry.Generate(cfg).Models[0]
}

// copySchema deep-copies in under name. Element IDs are rebuilt from the
// names, as a parser would build them, so a renamed element gets the ID
// of its new name.
func copySchema(in *model.Schema, name string) *model.Schema {
	out := model.NewSchema(name, in.Format)
	out.Doc = in.Doc
	for dn, d := range in.Domains {
		out.Domains[dn] = &model.Domain{Name: d.Name, Doc: d.Doc, Values: append([]model.DomainValue(nil), d.Values...)}
	}
	var walk func(src, dstParent *model.Element)
	walk = func(src, dstParent *model.Element) {
		for _, c := range src.Children() {
			n := out.AddElement(dstParent, c.Name, c.Kind, c.EdgeFromParent)
			n.DataType, n.Doc, n.DomainRef = c.DataType, c.Doc, c.DomainRef
			n.Key, n.Required = c.Key, c.Required
			for k, v := range c.Props {
				if n.Props == nil {
					n.Props = map[string]string{}
				}
				n.Props[k] = v
			}
			walk(c, n)
		}
	}
	walk(in.Root(), nil)
	return out
}

// editVersion returns the next version of s: a copy with one seeded
// edit, cycling rename, add, drop and redoc (an element's doc, or on
// every other redoc a domain value's).
func editVersion(rng *rand.Rand, step int, s *model.Schema) *model.Schema {
	next := copySchema(s, s.Name)
	attrs := next.ElementsOfKind(model.KindAttribute)
	switch step % 4 {
	case 0:
		a := attrs[rng.Intn(len(attrs))]
		a.Name = fmt.Sprintf("%sR%d", a.Name, step)
	case 1:
		ents := next.ElementsOfKind(model.KindEntity)
		a := next.AddElement(ents[rng.Intn(len(ents))], fmt.Sprintf("added%d", step), model.KindAttribute, model.ContainsAttribute)
		a.DataType, a.Doc = "string", fmt.Sprintf("attribute added by bump %d", step)
	case 2:
		next.RemoveElement(attrs[rng.Intn(len(attrs))].ID)
	default:
		if names := domainNames(next); step%8 == 7 && len(names) > 0 {
			d := next.Domains[names[rng.Intn(len(names))]]
			if len(d.Values) > 0 {
				d.Values[rng.Intn(len(d.Values))].Doc = fmt.Sprintf("value reworded by bump %d", step)
				break
			}
		}
		els := next.Elements()
		els[rng.Intn(len(els))].Doc = fmt.Sprintf("reworded by bump %d", step)
	}
	// Copy again so a rename moves the element to its new ID.
	return copySchema(next, next.Name)
}

func domainNames(s *model.Schema) []string {
	names := make([]string, 0, len(s.Domains))
	for n := range s.Domains {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// render writes s into a graph of its own.
func render(s *model.Schema) *rdf.Graph {
	g := rdf.NewGraph()
	model.ToRDF(g, s)
	return g
}

// headSubgraph returns the triples g stores about the current version
// of schema name — every subject under its IRI, its element IRIs or its
// domain IRIs — without the schema node's version and archived-as
// triples.
func headSubgraph(g *rdf.Graph, name string) *rdf.Graph {
	node := model.SchemaIRI(name)
	prefix := node.Value()
	out := rdf.NewGraph()
	g.Visit(rdf.Wild, rdf.Wild, rdf.Wild, func(t rdf.Triple) bool {
		sv := t.S.Value()
		if t.S.Kind() != rdf.IRIKind || !(sv == prefix || strings.HasPrefix(sv, prefix+"#") || strings.HasPrefix(sv, prefix+"/domain/")) {
			return true
		}
		if t.S == node && (t.P == predVersion || t.P == predArchivedAs) {
			return true
		}
		out.Add(t)
		return true
	})
	return out
}

// sameSchema fails the test unless got renders to the same graph as
// want stored under got's name.
func sameSchema(t *testing.T, label string, got, want *model.Schema) {
	t.Helper()
	g, w := render(got), render(copySchema(want, got.Name))
	if !rdf.Equal(g, w) {
		added, removed := g.Diff(w)
		t.Fatalf("%s: read back %d extra and %d missing triples, first extra %v, first missing %v",
			label, len(added), len(removed), first(added), first(removed))
	}
}

func first(ts []rdf.Triple) any {
	if len(ts) == 0 {
		return "none"
	}
	return ts[0]
}

// TestVersionHistoryExact drives a seeded rename/add/drop/redoc script
// over 32 versions. After every bump the head's subgraph equals a fresh
// blackboard holding only that version; afterwards every archived
// version reads back as it was put.
func TestVersionHistoryExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cur := versionSchema(3, 12, 60, 40)
	name := cur.Name
	b := New()
	puts := []*model.Schema{nil} // puts[v] is what was put as version v
	for v := 1; v <= 32; v++ {
		if v > 1 {
			cur = editVersion(rng, v, cur)
		}
		got, err := b.PutSchema(cur)
		if err != nil || got != v {
			t.Fatalf("bump %d: PutSchema = v%d, %v", v, got, err)
		}
		puts = append(puts, cur)
		fresh := New()
		if _, err := fresh.PutSchema(cur); err != nil {
			t.Fatal(err)
		}
		want, have := headSubgraph(fresh.Graph(), name), headSubgraph(b.Graph(), name)
		if !rdf.Equal(want, have) {
			added, removed := have.Diff(want)
			t.Fatalf("bump %d: head differs from a fresh put: %d extra, %d missing; first extra %v, first missing %v",
				v, len(added), len(removed), first(added), first(removed))
		}
	}
	if got := b.SchemaVersion(name); got != len(puts)-1 {
		t.Fatalf("SchemaVersion = %d, want %d", got, len(puts)-1)
	}
	head, err := b.GetSchema(name)
	if err != nil {
		t.Fatal(err)
	}
	sameSchema(t, "head", head, puts[len(puts)-1])
	for v := 1; v < len(puts)-1; v++ {
		arch := fmt.Sprintf("%s@v%d", name, v)
		got, err := b.GetSchema(arch)
		if err != nil {
			t.Fatalf("GetSchema(%s): %v", arch, err)
		}
		if got.Name != arch {
			t.Fatalf("GetSchema(%s).Name = %q", arch, got.Name)
		}
		sameSchema(t, arch, got, puts[v])
		if sv := b.SchemaVersion(arch); sv != v {
			t.Errorf("SchemaVersion(%s) = %d, want %d", arch, sv, v)
		}
	}
	if got := b.Schemas(); !reflect.DeepEqual(got, []string{name}) {
		t.Errorf("Schemas() = %v, want only the head", got)
	}
}

// TestVersionArchiveGrowsWithEdits re-puts a schema 1,000 times, each
// time with one attribute's doc rewritten. Beyond the head's own change,
// every bump may grow the graph by its archive node's type, version and
// archived-as triples plus one triple per changed schema triple, and
// never by a copy of the schema.
func TestVersionArchiveGrowsWithEdits(t *testing.T) {
	cur := versionSchema(5, 5, 25, 10)
	b := New()
	if _, err := b.PutSchema(cur); err != nil {
		t.Fatal(err)
	}
	v1 := cur
	prev := render(cur)
	for v := 2; v <= 1000; v++ {
		cur = copySchema(cur, cur.Name)
		attrs := cur.ElementsOfKind(model.KindAttribute)
		attrs[(v*7919)%len(attrs)].Doc = fmt.Sprintf("rewritten by bump %d", v)
		before := b.Graph().Len()
		if _, err := b.PutSchema(cur); err != nil {
			t.Fatalf("bump %d: %v", v, err)
		}
		next := render(cur)
		changed := missingFrom(next, prev) + missingFrom(prev, next)
		if grew := b.Graph().Len() - before - (next.Len() - prev.Len()); grew > 3+changed {
			t.Fatalf("bump %d changed %d schema triples but grew the archive by %d", v, changed, grew)
		}
		prev = next
	}
	got, err := b.GetSchema(cur.Name + "@v1")
	if err != nil {
		t.Fatal(err)
	}
	sameSchema(t, "v1 after 1000 bumps", got, v1)
}

// missingFrom counts the triples of a that b lacks.
func missingFrom(a, b *rdf.Graph) int {
	n := 0
	a.Visit(rdf.Wild, rdf.Wild, rdf.Wild, func(t rdf.Triple) bool {
		if !b.Has(t) {
			n++
		}
		return true
	})
	return n
}

// legacySchema returns version v (1–3) of the schema stored in
// testdata/legacy_versions.nt: v2 adds an attribute and renames one,
// v3 drops one and rewords a domain value.
func legacySchema(v int) *model.Schema {
	s := model.NewSchema("orders", "sql")
	s.Doc = "order book"
	ord := s.AddElement(nil, "Orders", model.KindEntity, model.ContainsTable)
	id := s.AddElement(ord, "id", model.KindAttribute, model.ContainsAttribute)
	id.DataType, id.Key, id.Required = "int", true, true
	status := s.AddElement(ord, "status", model.KindAttribute, model.ContainsAttribute)
	status.DataType, status.DomainRef = "char", "status"
	status.Props = map[string]string{"default": "O"}
	total := "total"
	if v >= 2 {
		total = "amount"
	}
	if v < 3 {
		s.AddElement(ord, total, model.KindAttribute, model.ContainsAttribute).DataType = "decimal"
	}
	if v >= 2 {
		c := s.AddElement(ord, "created", model.KindAttribute, model.ContainsAttribute)
		c.DataType, c.Doc = "date", "when the order was placed"
	}
	closed := "closed"
	if v >= 3 {
		closed = "closed or cancelled"
	}
	s.AddDomain(&model.Domain{Name: "status", Doc: "order status", Values: []model.DomainValue{
		{Code: "O", Doc: "open"}, {Code: "C", Doc: closed},
	}})
	return s
}

// TestLegacyFullCopyArchives restores a snapshot written when archived
// versions were full schema copies (v2 head, v1 copy): the copy stays
// readable, and a re-put archives v2 beside it.
func TestLegacyFullCopyArchives(t *testing.T) {
	f, err := os.Open("testdata/legacy_versions.nt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := New()
	if err := b.Restore(f); err != nil {
		t.Fatal(err)
	}
	if rdf.TypeOf(b.Graph(), model.SchemaIRI("orders@v1")) != model.ClassSchemaT {
		t.Fatal("fixture's v1 is not a full schema copy")
	}
	read := func(v int) {
		t.Helper()
		name := fmt.Sprintf("orders@v%d", v)
		got, err := b.GetSchema(name)
		if err != nil {
			t.Fatalf("GetSchema(%s): %v", name, err)
		}
		sameSchema(t, name, got, legacySchema(v))
	}
	read(1)
	if v, err := b.PutSchema(legacySchema(3)); err != nil || v != 3 {
		t.Fatalf("re-put = v%d, %v", v, err)
	}
	read(1)
	read(2)
	head, err := b.GetSchema("orders")
	if err != nil {
		t.Fatal(err)
	}
	sameSchema(t, "head", head, legacySchema(3))
	if got := b.Schemas(); !reflect.DeepEqual(got, []string{"orders"}) {
		t.Errorf("Schemas() = %v, want [orders]", got)
	}
}
