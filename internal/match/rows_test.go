package match

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/lingo"
	"repro/internal/model"
)

// rowOf returns e's feature row on whichever side holds it.
func rowOf(ctx *Context, e *model.Element) *row {
	for i, x := range ctx.src {
		if x == e {
			return &ctx.srcRows[i]
		}
	}
	for j, x := range ctx.tgt {
		if x == e {
			return &ctx.tgtRows[j]
		}
	}
	return nil
}

// docTermsOf returns e's documentation terms as strings, in row order.
func docTermsOf(ctx *Context, e *model.Element) []string {
	var out []string
	for _, id := range rowOf(ctx, e).doc.Terms {
		out = append(out, ctx.strs[id])
	}
	return out
}

// termWeight returns the TF-IDF weight of term in r's vector (0 when
// absent).
func termWeight(ctx *Context, r *row, term string) float64 {
	for k, id := range r.doc.Terms {
		if ctx.strs[id] == term {
			return r.doc.Weights[k]
		}
	}
	return 0
}

// refPair scores one pair the way the built-in voters scored it before
// feature rows: from the elements' strings, preprocessed per pair. It is
// the string reference each row kernel must match bit for bit.
func refPair(ctx *Context, voter string, s, t *model.Element) float64 {
	if !kindCompatible(s.Kind, t.Kind) {
		return -0.75
	}
	doc := func(sch *model.Schema, e *model.Element) []string {
		d := e.Doc
		if dom := sch.DomainOf(e); dom != nil {
			d += " " + dom.Doc
			for _, v := range dom.Values {
				d += " " + v.Doc
			}
		}
		return lingo.Preprocess(d)
	}
	expand := func(e *model.Element) []string {
		return ctx.Thesaurus.Expand(lingo.PreprocessNoStem(e.Name))
	}
	children := func(e *model.Element) []string {
		var out []string
		for _, c := range e.Children() {
			out = append(out, lingo.Preprocess(c.Name)...)
		}
		return out
	}
	switch voter {
	case "name":
		sim := 0.6*lingo.Jaccard(lingo.Preprocess(s.Name), lingo.Preprocess(t.Name)) +
			0.4*scalarJaroWinkler(lower(s.Name), lower(t.Name))
		if c := containmentSim(lower(s.Name), lower(t.Name)); c > sim {
			sim = c
		}
		return calibrate(sim, 0.45, 0.9, 0.3)
	case "documentation":
		vs := ctx.Corpus.Vector(doc(ctx.Source, s)).Sorted()
		vt := ctx.Corpus.Vector(doc(ctx.Target, t)).Sorted()
		if len(vs.Terms) == 0 || len(vt.Terms) == 0 {
			return 0
		}
		return calibrate(lingo.CosineSorted(vs, vt), 0.2, 0.9, 0.2)
	case "thesaurus":
		return calibrate(lingo.Jaccard(expand(s), expand(t)), 0.25, 0.8, 0.1)
	case "domain-values":
		ds, dt := ctx.Source.DomainOf(s), ctx.Target.DomainOf(t)
		if ds == nil || dt == nil {
			return 0
		}
		return calibrate(lingo.OverlapCoefficient(ds.Codes(), dt.Codes()), 0.4, 0.95, 0.6)
	case "data-type":
		if s.Kind != model.KindAttribute || t.Kind != model.KindAttribute {
			return 0
		}
		gs, gt := typeGroups[lower(s.DataType)], typeGroups[lower(t.DataType)]
		switch {
		case gs == 0 || gt == 0:
			return 0
		case gs == gt:
			return 0.15
		}
		return -0.2
	case "structure":
		if s.IsLeaf() || t.IsLeaf() {
			return 0
		}
		return calibrate(lingo.Jaccard(children(s), children(t)), 0.35, 0.7, 0.2)
	}
	panic("no reference for voter " + voter)
}

// scalarJaroWinkler is Jaro-Winkler as the scalar window scan computed
// it before the mask kernel: the name reference keeps its own loop, so
// it shares no code with the kernel under test.
func scalarJaroWinkler(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 || lb == 0 {
		if la == lb {
			return 1
		}
		return 0
	}
	window := max(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	matchA, matchB := make([]bool, la), make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		for j := max(0, i-window); j < min(lb, i+window+1); j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i], matchB[j] = true, true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	trans, j := 0, 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			trans++
		}
		j++
	}
	m := float64(matches)
	jaro := (m/float64(la) + m/float64(lb) + (m-float64(trans)/2)/m) / 3
	l := 0
	for l < la && l < lb && l < 4 && ra[l] == rb[l] {
		l++
	}
	const p = 0.1
	return jaro + float64(l)*p*(1-jaro)
}

// kernelNames mixes ASCII, accented, CJK and over-long names, with
// case variants and shared affixes: names of exactly 64 and 65 runes,
// one of 130 that takes three mask words, and one whose runes no other
// name has, so a pair holds it on one side only.
var kernelNames = []string{
	"order", "Order", "orderTotal", "subtotal", "total", "shipTo", "ship_to",
	"qty", "quantity", "ÉCOLE", "école", "straße", "STRASSE", "価格",
	"価格コード", "データベース", "データベース管理", "customerName", "client",
	"deptCode", "dept", "XMLSchema", "address2", "a",
	strings.Repeat("departureFacility", 5), strings.Repeat("departureFacilities", 5),
	strings.Repeat("shipmentLine", 5) + "Code", strings.Repeat("shipmentLine", 5) + "Codes",
	strings.Repeat("orderLine", 14) + "Code", "Ωψζ",
}

var kernelDocs = []string{
	"", "the order total", "order order total amount", "shipping address of the customer",
	"client name and address", "département code école", "価格 データベース 価格",
	"amount amount amount due", "a code identifying the department",
}

var kernelTypes = []string{"", "string", "VARCHAR", "Int", "decimal", "date", "Boolean", "blob"}

// randomSchema builds a schema of random entities, relationships and
// attributes over the kernel vocabularies, with domains that repeat
// codes and one that has no values.
func randomSchema(rng *rand.Rand, name string) *model.Schema {
	s := model.NewSchema(name, "er")
	s.AddDomain(&model.Domain{Name: "D1", Doc: "coding scheme", Values: []model.DomainValue{
		{Code: "A", Doc: "alpha"}, {Code: "B", Doc: "beta"}, {Code: "A", Doc: "again"}}})
	s.AddDomain(&model.Domain{Name: "D2", Values: []model.DomainValue{{Code: "B"}, {Code: "C"}, {Code: "É"}}})
	s.AddDomain(&model.Domain{Name: "D3", Doc: "empty scheme"})
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	for e := 0; e < 4+rng.Intn(4); e++ {
		kind := model.KindEntity
		if rng.Intn(4) == 0 {
			kind = model.KindRelationship
		}
		ent := s.AddElement(nil, pick(kernelNames), kind, model.ContainsElement)
		ent.Doc = pick(kernelDocs)
		for a := 0; a < rng.Intn(5); a++ {
			at := s.AddElement(ent, pick(kernelNames), model.KindAttribute, model.ContainsAttribute)
			at.Doc = pick(kernelDocs)
			at.DataType = pick(kernelTypes)
			if rng.Intn(3) == 0 {
				at.DomainRef = pick([]string{"D1", "D2", "D3", "missing"})
			}
		}
	}
	return s
}

// TestRowKernelsMatchStringReference checks every built-in voter's row
// kernel against its string reference (refPair) on random schema pairs,
// bit for bit: the interned token sets, runes, child unions, codes,
// type groups and ID-ordered cosine must all reproduce the per-pair
// string computation.
func TestRowKernelsMatchStringReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 30; n++ {
		src, tgt := randomSchema(rng, "s"), randomSchema(rng, "t")
		ctx := NewContext(src, tgt, WithParallelism(1))
		for _, v := range DefaultVoters() {
			m := v.Vote(ctx)
			for i, s := range m.Sources {
				for j, tt := range m.Targets {
					want := refPair(ctx, v.Name(), s, tt)
					if got := m.At(i, j); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("schema pair %d, %s(%s, %s) = %v, string reference %v",
							n, v.Name(), s.ID, tt.ID, got, want)
					}
				}
			}
		}
	}
}

// TestDocTermIDsSortLikeStrings pins the invariant the documentation
// cosine's bit-identity rests on: term IDs order like their strings.
func TestDocTermIDsSortLikeStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ctx := NewContext(randomSchema(rng, "s"), randomSchema(rng, "t"))
	ids := map[int32]bool{}
	for _, rows := range [][]row{ctx.srcRows, ctx.tgtRows} {
		for _, r := range rows {
			if !sort.SliceIsSorted(r.doc.Terms, func(a, b int) bool { return r.doc.Terms[a] < r.doc.Terms[b] }) {
				t.Fatalf("row terms not ascending: %v", r.doc.Terms)
			}
			for _, id := range r.doc.Terms {
				ids[id] = true
			}
		}
	}
	var sorted []int32
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	if len(sorted) < 5 {
		t.Fatalf("only %d doc terms", len(sorted))
	}
	for k := 1; k < len(sorted); k++ {
		if a, b := ctx.strs[sorted[k-1]], ctx.strs[sorted[k]]; a >= b {
			t.Errorf("term IDs %d < %d but %q >= %q", sorted[k-1], sorted[k], a, b)
		}
	}
}

var voteSink float64

// TestVoterKernelsAllocateNothing asserts 0 allocations per pair for
// each built-in voter kernel, and that a full vote allocates no more
// than its matrix and two closures, whatever the pair count.
func TestVoterKernelsAllocateNothing(t *testing.T) {
	src, tgt := bigFixture(6)
	ctx := NewContext(src, tgt, WithParallelism(1))
	matrixAllocs := testing.AllocsPerRun(5, func() { _ = ctx.NewMatrix() })
	for _, v := range DefaultVoters() {
		score := v.(interface{ scorer(*Context) scoreFunc }).scorer(ctx)
		perSweep := testing.AllocsPerRun(5, func() {
			for i := range ctx.srcRows {
				for j := range ctx.tgtRows {
					voteSink = votePair(ctx, i, j, score)
				}
			}
		})
		if perSweep != 0 {
			t.Errorf("%s: %v allocations per sweep of %d pairs, want 0",
				v.Name(), perSweep, len(ctx.srcRows)*len(ctx.tgtRows))
		}
		if full := testing.AllocsPerRun(5, func() { v.Vote(ctx) }); full > matrixAllocs+2 {
			t.Errorf("%s: a full vote allocates %v times, its matrix %v", v.Name(), full, matrixAllocs)
		}
	}
}

// TestRefreshMatchesFreshContext refreshes a context through four
// steps and checks after each that every built-in voter votes
// bit-identically to a context built fresh over the edited schemas: in
// place without touching documentation (a rename, an added and a
// dropped attribute, a data-type change), renames to runes the context
// has not met, in place with documentation (a new word, and a
// documented attribute dropped), and on replaced schema objects with
// both kinds of edit, where a clean element's row must be carried over
// rather than derived again.
func TestRefreshMatchesFreshContext(t *testing.T) {
	build := func(name string) *model.Schema {
		s := model.NewSchema(name, "er")
		for e := 0; e < 3; e++ {
			ent := s.AddElement(nil, fmt.Sprintf("Order%d", e), model.KindEntity, model.ContainsElement)
			ent.Doc = "an order placed by a customer"
			for a := 0; a < 3; a++ {
				at := s.AddElement(ent, fmt.Sprintf("lineTotal%d", a), model.KindAttribute, model.ContainsAttribute)
				at.DataType = "decimal"
				if a > 0 {
					at.Doc = "the amount of one order line"
				}
			}
		}
		return s
	}
	src, tgt := build("s"), build("t")
	ctx := NewContext(src, tgt, WithParallelism(1))
	check := func(step string) {
		t.Helper()
		fresh := NewContext(ctx.Source, ctx.Target, WithParallelism(1))
		if ctx.CorpusSignature() != fresh.CorpusSignature() {
			t.Errorf("%s: refreshed corpus signature differs from a fresh context's", step)
		}
		for _, v := range DefaultVoters() {
			matricesBitIdentical(t, step+" "+v.Name(), v.Vote(fresh), v.Vote(ctx))
		}
	}

	renamed := src.MustElement("s/Order0/lineTotal1")
	renamed.Name = "netAmount"
	retyped := tgt.MustElement("t/Order1/lineTotal2")
	retyped.DataType = "string"
	added := src.AddElement(src.MustElement("s/Order2"), "shipVia", model.KindAttribute, model.ContainsAttribute)
	tgt.RemoveElement("t/Order2/lineTotal0")
	ctx.Refresh(src, tgt, map[string]bool{renamed.ID: true}, map[string]bool{retyped.ID: true, "t/Order2/lineTotal0": true})
	if rowOf(ctx, added) == nil {
		t.Fatal("added element has no row")
	}
	check("in place")

	// Runes the context has not met: the source rename takes codes that
	// every target row's masks must hold as empty, the target rename
	// codes of its own, and the carried rows keep theirs.
	src.MustElement("s/Order1/lineTotal0").Name = "Ωμέγα"
	tgt.MustElement("t/Order0/lineTotal2").Name = "kwjz価格"
	alphabet := len(ctx.alphabet)
	ctx.Refresh(src, tgt, map[string]bool{"s/Order1/lineTotal0": true}, map[string]bool{"t/Order0/lineTotal2": true})
	if len(ctx.alphabet) == alphabet {
		t.Fatal("the renames added no rune to the alphabet")
	}
	check("new runes")

	sig := ctx.CorpusSignature()
	src.MustElement("s/Order1").Doc = "a different document about zeppelins"
	tgt.RemoveElement("t/Order0/lineTotal1")
	ctx.Refresh(src, tgt, map[string]bool{"s/Order1": true}, map[string]bool{"t/Order0/lineTotal1": true})
	if ctx.CorpusSignature() == sig {
		t.Error("a documentation edit left the corpus signature unchanged")
	}
	check("documentation")

	// Clone derives IDs from names, so the renamed attribute comes back
	// under a new ID: a drop and an add. A clean element keeps its row,
	// backing arrays and all, though new words renumber the ID table.
	clean := rowOf(ctx, src.MustElement("s/Order0/lineTotal0"))
	codes, name, strs := &clean.runeCodes[0], &clean.name[0], len(ctx.strs)
	src, tgt = src.Clone(), tgt.Clone()
	src.MustElement("s/Order2/lineTotal2").Doc = "the quayside charge"
	src.MustElement("s/Order2/shipVia").Name = "carrier"
	tgt.RemoveElement("t/Order1/lineTotal1")
	tgt.AddElement(tgt.MustElement("t/Order1"), "dueDate", model.KindAttribute, model.ContainsAttribute).Doc = "when the order falls due"
	ctx.Refresh(src, tgt,
		map[string]bool{"s/Order2/lineTotal2": true, "s/Order2/shipVia": true},
		map[string]bool{"t/Order1/lineTotal1": true})
	if len(ctx.strs) == strs {
		t.Fatal("no new word renumbered the ID table")
	}
	if kept := rowOf(ctx, src.MustElement("s/Order0/lineTotal0")); &kept.runeCodes[0] != codes || &kept.name[0] != name {
		t.Error("a clean element's row was derived again, not carried over")
	}
	check("replaced")
}
