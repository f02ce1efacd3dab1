package blackboard

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rdf"
)

func poSchema() *model.Schema {
	s := model.NewSchema("purchaseOrder", "xsd")
	po := s.AddElement(nil, "purchaseOrder", model.KindEntity, model.ContainsElement)
	shipTo := s.AddElement(po, "shipTo", model.KindEntity, model.ContainsElement)
	for _, n := range []string{"firstName", "lastName", "subtotal"} {
		a := s.AddElement(shipTo, n, model.KindAttribute, model.ContainsAttribute)
		a.DataType = "string"
	}
	return s
}

func siSchema() *model.Schema {
	s := model.NewSchema("shippingInfo", "xsd")
	si := s.AddElement(nil, "shippingInfo", model.KindEntity, model.ContainsElement)
	for _, n := range []string{"name", "total"} {
		a := s.AddElement(si, n, model.KindAttribute, model.ContainsAttribute)
		a.DataType = "string"
	}
	return s
}

func boardWithSchemata(t *testing.T) *Blackboard {
	t.Helper()
	b := New()
	if _, err := b.PutSchema(poSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PutSchema(siSchema()); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPutGetSchema(t *testing.T) {
	b := boardWithSchemata(t)
	got, err := b.GetSchema("purchaseOrder")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 5 {
		t.Errorf("Len = %d", got.Len())
	}
	if names := b.Schemas(); len(names) != 2 || names[0] != "purchaseOrder" || names[1] != "shippingInfo" {
		t.Errorf("Schemas = %v", names)
	}
	if _, err := b.GetSchema("ghost"); err == nil {
		t.Error("missing schema should error")
	}
}

func TestPutSchemaRejectsInvalid(t *testing.T) {
	b := New()
	bad := model.NewSchema("bad", "er")
	e := bad.AddElement(nil, "x", model.KindAttribute, model.ContainsAttribute)
	e.DomainRef = "nope"
	if _, err := b.PutSchema(bad); err == nil {
		t.Error("invalid schema should be rejected")
	}
}

func TestSchemaVersioning(t *testing.T) {
	b := New()
	v1 := poSchema()
	ver, err := b.PutSchema(v1)
	if err != nil || ver != 1 {
		t.Fatalf("first put: v%d, %v", ver, err)
	}
	// Evolve: add an attribute.
	v2 := poSchema()
	st := v2.Element("purchaseOrder/purchaseOrder/shipTo")
	v2.AddElement(st, "country", model.KindAttribute, model.ContainsAttribute)
	ver, err = b.PutSchema(v2)
	if err != nil || ver != 2 {
		t.Fatalf("second put: v%d, %v", ver, err)
	}
	if b.SchemaVersion("purchaseOrder") != 2 {
		t.Errorf("version = %d", b.SchemaVersion("purchaseOrder"))
	}
	// Current reflects v2.
	cur, err := b.GetSchema("purchaseOrder")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Element("purchaseOrder/purchaseOrder/shipTo/country") == nil {
		t.Error("current version lost the new attribute")
	}
	// v1 is archived and retrievable.
	old, err := b.GetSchema("purchaseOrder@v1")
	if err != nil {
		t.Fatalf("archived version: %v", err)
	}
	if old.Len() != 5 {
		t.Errorf("archived Len = %d", old.Len())
	}
	// Archived versions are not listed as current.
	for _, n := range b.Schemas() {
		if strings.Contains(n, "@v") {
			t.Errorf("archived schema listed: %s", n)
		}
	}
	if b.SchemaVersion("ghost") != 0 {
		t.Error("missing schema version should be 0")
	}
}

func TestNewMappingValidation(t *testing.T) {
	b := boardWithSchemata(t)
	if _, err := b.NewMapping("m", "ghost", "shippingInfo"); err == nil {
		t.Error("unknown source schema should error")
	}
	if _, err := b.NewMapping("m", "purchaseOrder", "ghost"); err == nil {
		t.Error("unknown target schema should error")
	}
	if _, err := b.NewMapping("m", "purchaseOrder", "shippingInfo"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.NewMapping("m", "purchaseOrder", "shippingInfo"); err == nil {
		t.Error("duplicate mapping id should error")
	}
}

func TestMappingCells(t *testing.T) {
	b := boardWithSchemata(t)
	m, _ := b.NewMapping("m", "purchaseOrder", "shippingInfo")
	const src = "purchaseOrder/purchaseOrder/shipTo"
	const tgt = "shippingInfo/shippingInfo"
	m.SetCell(src, tgt, 0.8, false, "harmony")
	c, ok := m.GetCell(src, tgt)
	if !ok {
		t.Fatal("cell missing")
	}
	if c.Confidence != 0.8 || c.UserDefined || c.SetBy != "harmony" {
		t.Errorf("cell = %+v", c)
	}
	if c.SourceID != src || c.TargetID != tgt {
		t.Errorf("cell ids = %q, %q", c.SourceID, c.TargetID)
	}
	// Overwrite with a user decision.
	m.SetCell(src, tgt, 1, true, "engineer")
	c2, _ := m.GetCell(src, tgt)
	if c2.Confidence != 1 || !c2.UserDefined || c2.SetBy != "engineer" {
		t.Errorf("overwritten cell = %+v", c2)
	}
	if c2.Revision <= c.Revision {
		t.Error("revision should advance on overwrite")
	}
	if _, ok := m.GetCell("ghost", tgt); ok {
		t.Error("unset cell should report !ok")
	}
}

func TestMappingCellsSortedAndReopened(t *testing.T) {
	b := boardWithSchemata(t)
	m, _ := b.NewMapping("m", "purchaseOrder", "shippingInfo")
	m.SetCell("purchaseOrder/purchaseOrder/shipTo/subtotal", "shippingInfo/shippingInfo/total", -0.6, false, "harmony")
	m.SetCell("purchaseOrder/purchaseOrder/shipTo/firstName", "shippingInfo/shippingInfo/name", -0.4, false, "harmony")

	// Reopen through the library.
	m2, err := b.GetMapping("m")
	if err != nil {
		t.Fatal(err)
	}
	if m2.SourceSchema != "purchaseOrder" || m2.TargetSchema != "shippingInfo" {
		t.Errorf("reopened header: %+v", m2)
	}
	cells := m2.Cells()
	if len(cells) != 2 {
		t.Fatalf("cells = %v", cells)
	}
	if cells[0].SourceID >= cells[1].SourceID {
		t.Error("cells not sorted")
	}
	if _, err := b.GetMapping("ghost"); err == nil {
		t.Error("missing mapping should error")
	}
}

// referenceCells reads a mapping's cells the long way, one Graph.Match
// per annotation, ordered by (SourceID, TargetID) and, for one pair
// read from two cell nodes (mapping IDs sharing an IRI prefix make
// that possible), by node.
func referenceCells(b *Blackboard, id string) []Cell {
	m, _ := b.GetMapping(id)
	var out []Cell
	// Nodes in IRI order, so the stable sort below leaves one pair's
	// cells in node order.
	edges := b.Graph().Match(mappingIRI(id), predHasCell, rdf.Wild)
	sort.Slice(edges, func(i, j int) bool { return edges[i].O.Value() < edges[j].O.Value() })
	for _, edge := range edges {
		out = append(out, referenceCellAt(b, m, edge.O))
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].SourceID != out[j].SourceID {
			return out[i].SourceID < out[j].SourceID
		}
		return out[i].TargetID < out[j].TargetID
	})
	return out
}

// referenceCell reads the cell at mapping id's cell IRI for (src, tgt)
// one Match per annotation, as referenceCells does: ok when the mapping
// has the has-cell edge to that node.
func referenceCell(b *Blackboard, id, src, tgt string) (Cell, bool) {
	m, _ := b.GetMapping(id)
	c := rdf.IRI(mappingIRI(id).Value() + "/cell/" + src + "|" + tgt)
	if len(b.Graph().Match(mappingIRI(id), predHasCell, c)) == 0 {
		return Cell{}, false
	}
	return referenceCellAt(b, m, c), true
}

// referenceCellAt reads cell node c of m one Match per annotation.
func referenceCellAt(b *Blackboard, m *Mapping, c rdf.Term) Cell {
	one := func(p rdf.Term) rdf.Term {
		ts := b.Graph().Match(c, p, rdf.Wild)
		if len(ts) != 1 {
			return rdf.Term{}
		}
		return ts[0].O
	}
	conf, _ := one(predConfidence).Float()
	ud, _ := one(predUserDefined).Bool()
	rev, _ := one(predRevision).Int()
	return Cell{
		SourceID:    strings.TrimPrefix(one(predCellRow).Value(), model.SchemaIRI(m.SourceSchema).Value()+"#"),
		TargetID:    strings.TrimPrefix(one(predCellCol).Value(), model.SchemaIRI(m.TargetSchema).Value()+"#"),
		Confidence:  conf,
		UserDefined: ud,
		SetBy:       one(predSetBy).Value(),
		Revision:    rev,
	}
}

// TestMappingReadsMatchGraph checks Cells, GetCell and UserCells against
// referenceCells after random machine and analyst writes to three
// mappings over the same schemas. Their IDs share prefixes: m1 and m10,
// and one that extends m1's cell IRI prefix, so each mapping's reads
// must keep to its own cells.
func TestMappingReadsMatchGraph(t *testing.T) {
	b := boardWithSchemata(t)
	ids := []string{"m1", "m10", "m1/cell/x"}
	maps := map[string]*Mapping{}
	for _, id := range ids {
		m, err := b.NewMapping(id, "purchaseOrder", "shippingInfo")
		if err != nil {
			t.Fatal(err)
		}
		maps[id] = m
	}
	srcs := []string{"purchaseOrder/purchaseOrder", "purchaseOrder/purchaseOrder/shipTo",
		"purchaseOrder/purchaseOrder/shipTo/firstName", "purchaseOrder/purchaseOrder/shipTo/subtotal", "x|y"}
	tgts := []string{"shippingInfo/shippingInfo", "shippingInfo/shippingInfo/name", "shippingInfo/shippingInfo/total"}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		m := maps[ids[rng.Intn(len(ids))]]
		src, tgt := srcs[rng.Intn(len(srcs))], tgts[rng.Intn(len(tgts))]
		var err error
		if rng.Intn(3) == 0 {
			err = m.SetCell(src, tgt, float64(2*rng.Intn(2)-1), true, "engineer")
		} else {
			err = m.SetCell(src, tgt, rng.Float64(), false, "harmony")
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		m := maps[id]
		want := referenceCells(b, id)
		if len(want) == 0 {
			t.Fatalf("%s: no cells written", id)
		}
		if got := m.Cells(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Cells =\n%+v\nwant\n%+v", id, got, want)
		}
		var wantUser []Cell
		for _, c := range want {
			if c.UserDefined {
				wantUser = append(wantUser, c)
			}
		}
		if got := m.UserCells(); !reflect.DeepEqual(got, wantUser) {
			t.Errorf("%s: UserCells =\n%+v\nwant\n%+v", id, got, wantUser)
		}
		written := map[[2]string]bool{}
		for _, c := range want {
			written[[2]string{c.SourceID, c.TargetID}] = true
			if got, ok := m.GetCell(c.SourceID, c.TargetID); !ok || got != c {
				t.Errorf("%s: GetCell(%s, %s) = %+v, %v; want %+v", id, c.SourceID, c.TargetID, got, ok, c)
			}
		}
		for _, src := range srcs {
			for _, tgt := range tgts {
				if _, ok := m.GetCell(src, tgt); ok != written[[2]string{src, tgt}] {
					t.Errorf("%s: GetCell(%s, %s) ok = %v, want %v", id, src, tgt, ok, !ok)
				}
			}
		}
	}
}

func TestRowColumnAnnotations(t *testing.T) {
	b := boardWithSchemata(t)
	m, _ := b.NewMapping("m", "purchaseOrder", "shippingInfo")
	const row = "purchaseOrder/purchaseOrder/shipTo"
	const col = "shippingInfo/shippingInfo/total"

	m.SetRowVariable(row, "$shipto")
	if got := m.RowVariable(row); got != "$shipto" {
		t.Errorf("variable = %q", got)
	}
	if m.RowVariable("never-set") != "" {
		t.Error("unset variable should be empty")
	}

	m.SetColumnCode(col, "data($shipto/subtotal) * 1.05", "mapper")
	if got := m.ColumnCode(col); got != "data($shipto/subtotal) * 1.05" {
		t.Errorf("code = %q", got)
	}
	if m.ColumnCode("never-set") != "" {
		t.Error("unset code should be empty")
	}

	m.SetRowComplete(row, true)
	if !m.RowComplete(row) || m.RowComplete("never-set") {
		t.Error("row completion tracking wrong")
	}
	m.SetColumnComplete(col, true)
	if !m.ColumnComplete(col) || m.ColumnComplete("never-set") {
		t.Error("column completion tracking wrong")
	}
}

func TestMatrixCodeAndProvenance(t *testing.T) {
	b := boardWithSchemata(t)
	m, _ := b.NewMapping("m", "purchaseOrder", "shippingInfo")
	m.SetCode("let $shipto := ...", "codegen")
	if m.Code() != "let $shipto := ..." {
		t.Errorf("code = %q", m.Code())
	}
	tool, rev := m.Provenance()
	if tool != "codegen" || rev == 0 {
		t.Errorf("provenance = %q, %d", tool, rev)
	}
}

func TestMappingLibraryAndDelete(t *testing.T) {
	b := boardWithSchemata(t)
	_, _ = b.NewMapping("beta", "purchaseOrder", "shippingInfo")
	_, _ = b.NewMapping("alpha", "purchaseOrder", "shippingInfo")
	if got := b.Mappings(); len(got) != 2 || got[0] != "alpha" {
		t.Errorf("Mappings = %v", got)
	}
	m, _ := b.GetMapping("alpha")
	m.SetCell("purchaseOrder/purchaseOrder/shipTo", "shippingInfo/shippingInfo", 0.5, false, "x")
	before := b.Graph().Len()
	b.DeleteMapping("alpha")
	if got := b.Mappings(); len(got) != 1 || got[0] != "beta" {
		t.Errorf("after delete: %v", got)
	}
	if b.Graph().Len() >= before {
		t.Error("delete should remove triples")
	}
	if _, err := b.GetMapping("alpha"); err == nil {
		t.Error("deleted mapping should be gone")
	}
}

func TestFocusContext(t *testing.T) {
	b := boardWithSchemata(t)
	if b.Focus() != "" {
		t.Error("initial focus should be empty")
	}
	b.SetFocus("purchaseOrder", "purchaseOrder/purchaseOrder/shipTo")
	if got := b.Focus(); !strings.Contains(got, "shipTo") {
		t.Errorf("focus = %q", got)
	}
	b.ClearFocus()
	if b.Focus() != "" {
		t.Error("focus should clear")
	}
}

func TestSnapshotRestore(t *testing.T) {
	b := boardWithSchemata(t)
	m, _ := b.NewMapping("m", "purchaseOrder", "shippingInfo")
	m.SetCell("purchaseOrder/purchaseOrder/shipTo", "shippingInfo/shippingInfo", 0.8, false, "harmony")
	m.SetColumnCode("shippingInfo/shippingInfo/total", "code here", "mapper")

	var sb strings.Builder
	if err := b.Snapshot(&sb); err != nil {
		t.Fatal(err)
	}

	b2 := New()
	if err := b2.Restore(strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	if got := b2.Schemas(); len(got) != 2 {
		t.Errorf("restored schemas: %v", got)
	}
	m2, err := b2.GetMapping("m")
	if err != nil {
		t.Fatal(err)
	}
	c, ok := m2.GetCell("purchaseOrder/purchaseOrder/shipTo", "shippingInfo/shippingInfo")
	if !ok || c.Confidence != 0.8 {
		t.Errorf("restored cell: %+v (%v)", c, ok)
	}
	if m2.ColumnCode("shippingInfo/shippingInfo/total") != "code here" {
		t.Error("restored code lost")
	}
}

func TestRestoreBadInput(t *testing.T) {
	b := New()
	if err := b.Restore(strings.NewReader("garbage")); err == nil {
		t.Error("bad snapshot should error")
	}
}

func TestRevisionAdvances(t *testing.T) {
	b := boardWithSchemata(t)
	r0 := b.Revision()
	b.SetFocus("purchaseOrder", "purchaseOrder/purchaseOrder")
	if b.Revision() <= r0 {
		t.Error("revision should advance on mutation")
	}
}

// TestRevisionsResumePastStoredOnes: a blackboard restored from a
// snapshot or wrapped around a recovered graph continues its revision
// counter past every revision the graph stores, so the next write never
// reuses or rewinds one.
func TestRevisionsResumePastStoredOnes(t *testing.T) {
	src := boardWithSchemata(t)
	mp, err := src.NewMapping("m", "purchaseOrder", "shippingInfo")
	if err != nil {
		t.Fatal(err)
	}
	const a, b = "purchaseOrder/shipTo/firstName", "shippingInfo/name"
	for i := 0; i < 5; i++ {
		if err := mp.SetCell(a, b, float64(i)/10, false, "harmony"); err != nil {
			t.Fatal(err)
		}
	}
	var snap strings.Builder
	if err := src.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	top := 0
	for _, c := range mp.Cells() {
		top = max(top, c.Revision)
	}
	for name, open := range map[string]func() *Blackboard{
		"Restore": func() *Blackboard {
			r := New()
			if err := r.Restore(strings.NewReader(snap.String())); err != nil {
				t.Fatal(err)
			}
			return r
		},
		"NewFromGraph": func() *Blackboard { return NewFromGraph(src.Graph().Clone()) },
	} {
		r := open()
		rmp, err := r.GetMapping("m")
		if err != nil {
			t.Fatal(err)
		}
		if err := rmp.SetCell(a, "shippingInfo/total", 1, true, "engineer"); err != nil {
			t.Fatal(err)
		}
		if c, _ := rmp.GetCell(a, "shippingInfo/total"); c.Revision <= top {
			t.Errorf("%s: next write got revision %d; stored revisions reach %d", name, c.Revision, top)
		}
	}
}

// TestSetCellUnchangedProvenanceJournals rewrites a cell's confidence
// with its provenance unchanged: only the confidence and the revision
// change, so the journal (and the WAL record built from it) holds two
// delete+add pairs.
func TestSetCellUnchangedProvenanceJournals(t *testing.T) {
	b := boardWithSchemata(t)
	m, err := b.NewMapping("m", "purchaseOrder", "shippingInfo")
	if err != nil {
		t.Fatal(err)
	}
	const src, tgt = "purchaseOrder/purchaseOrder/shipTo", "shippingInfo/shippingInfo"
	if err := m.SetCell(src, tgt, 0.5, false, "harmony"); err != nil {
		t.Fatal(err)
	}
	g := b.Graph()
	sp := g.Savepoint()
	if err := m.SetCell(src, tgt, 0.7, false, "harmony"); err != nil {
		t.Fatal(err)
	}
	ops := g.ChangesSince(sp)
	g.Release(sp)
	if len(ops) != 4 {
		t.Fatalf("cell rewrite journaled %d ops, want 4: %v", len(ops), ops)
	}
	for _, op := range ops {
		if p := op.T.P; p != predConfidence && p != predRevision {
			t.Errorf("journaled a write of unchanged %s", p)
		}
	}
}

// TestSnapshotRestoreEscapedIRIs stores a schema whose element and
// domain names put a space, '>' and '\' into IRIs — quoted SQL
// identifiers and inferred domain names do — and restores it from a
// snapshot.
func TestSnapshotRestoreEscapedIRIs(t *testing.T) {
	s := model.NewSchema("orders", "sql")
	tab := s.AddElement(nil, "Order Lines", model.KindEntity, model.ContainsTable)
	no := s.AddElement(tab, "line no", model.KindAttribute, model.ContainsAttribute)
	no.DataType, no.DomainRef = "int", "Order Lines.line no (inferred)"
	no.Props = map[string]string{"check expr": "line no > 0"}
	s.AddElement(tab, `a>b\c`, model.KindAttribute, model.ContainsAttribute)
	s.AddDomain(&model.Domain{Name: "Order Lines.line no (inferred)", Values: []model.DomainValue{{Code: "1"}}})
	b := New()
	if _, err := b.PutSchema(s); err != nil {
		t.Fatal(err)
	}
	var snap strings.Builder
	if err := b.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	r := New()
	if err := r.Restore(strings.NewReader(snap.String())); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !rdf.Equal(b.Graph(), r.Graph()) {
		added, removed := r.Graph().Diff(b.Graph())
		t.Fatalf("restored graph differs: %d extra, %d missing", len(added), len(removed))
	}
	got, err := r.GetSchema("orders")
	if err != nil {
		t.Fatal(err)
	}
	sameSchema(t, "restored", got, s)
}

// TestTriplesGaugeCountsNewRevisionTriples creates a cell, a column code
// and a matrix code, each of which adds its node's revision triple as
// its last write, and after each compares the triple-count gauge with
// the graph's size.
func TestTriplesGaugeCountsNewRevisionTriples(t *testing.T) {
	b := boardWithSchemata(t)
	reg := obs.NewRegistry()
	b.SetMetrics(reg)
	m, err := b.NewMapping("m", "purchaseOrder", "shippingInfo")
	if err != nil {
		t.Fatal(err)
	}
	const row, col = "purchaseOrder/purchaseOrder/shipTo/firstName", "shippingInfo/shippingInfo/name"
	for _, step := range []struct {
		name  string
		write func() error
	}{
		{"new cell", func() error { return m.SetCell(row, col, 0.5, false, "harmony") }},
		{"rewritten cell", func() error { return m.SetCell(row, col, 1, true, "analyst") }},
		{"new column code", func() error { m.SetColumnCode(col, "data($x)", "mapper"); return nil }},
		{"new matrix code", func() error { m.SetCode("let $x := ...", "codegen"); return nil }},
	} {
		if err := step.write(); err != nil {
			t.Fatal(err)
		}
		g, ok := reg.Find(MetricTriples)
		if !ok || len(g.Series) != 1 {
			t.Fatalf("%s: %s not in the registry", step.name, MetricTriples)
		}
		if got, want := g.Series[0].Value, float64(b.Graph().Len()); got != want {
			t.Errorf("%s: %s = %v, want the graph's %v triples", step.name, MetricTriples, got, want)
		}
	}
}

// TestGetSchemaKeepsIDsAfterInPlaceRename renames an element in place
// (its ID kept) and re-puts the schema: GetSchema returns the IDs the
// puts stored, under the new name, and CheckPair accepts them. The
// archived version still reads under its own name, IDs re-derived.
func TestGetSchemaKeepsIDsAfterInPlaceRename(t *testing.T) {
	s := model.NewSchema("s", "sql")
	top := s.AddElement(nil, "top", model.KindEntity, model.ContainsTable)
	s.AddElement(top, "a", model.KindAttribute, model.ContainsAttribute).DataType = "int"
	b := New()
	for _, sch := range []*model.Schema{s, siSchema()} {
		if _, err := b.PutSchema(sch); err != nil {
			t.Fatal(err)
		}
	}
	top.Name = "topRev"
	if v, err := b.PutSchema(s); err != nil || v != 2 {
		t.Fatalf("re-put = v%d, %v", v, err)
	}

	got, err := b.GetSchema("s")
	if err != nil {
		t.Fatal(err)
	}
	ids := func(sch *model.Schema) (out []string) {
		for _, e := range sch.Elements() {
			out = append(out, e.ID+"="+e.Name)
		}
		return out
	}
	if want := []string{"s/top=topRev", "s/top/a=a"}; !reflect.DeepEqual(ids(got), want) {
		t.Fatalf("GetSchema read back %v, want %v", ids(got), want)
	}
	m, err := b.NewMapping("m", "s", "shippingInfo")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range got.Elements() {
		if err := m.CheckPair(e.ID, "shippingInfo/shippingInfo/name"); err != nil {
			t.Errorf("CheckPair refused read-back ID %q: %v", e.ID, err)
		}
	}

	v1, err := b.GetSchema("s@v1")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"s@v1/top=top", "s@v1/top/a=a"}; !reflect.DeepEqual(ids(v1), want) {
		t.Fatalf("GetSchema(s@v1) read back %v, want %v", ids(v1), want)
	}
}
