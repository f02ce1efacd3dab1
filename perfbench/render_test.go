package main

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/erwin"
	"repro/internal/model"
	"repro/internal/server"
)

// TestRenderRoundTrip renders a registry model and its perturbation as
// er text, parses both back with erwin.Load, and requires every element
// (name, kind, doc, type, key, domain, relationship ends) and every
// coding scheme to survive, plus the ground truth re-keyed by path.
func TestRenderRoundTrip(t *testing.T) {
	src := genModel(3, sizeOf(300))
	tgt, gt := perturb(src, 4)
	for _, c := range []struct {
		s    *model.Schema
		name string
	}{{src, "rt_src"}, {tgt, "rt_tgt"}} {
		text, err := renderER(c.s, c.name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := erwin.Load(c.name, strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.Name != c.name || got.Doc != c.s.Doc || got.Len() != c.s.Len() {
			t.Fatalf("%s: name %q doc %q len %d, want %q %q %d", c.name, got.Name, got.Doc, got.Len(), c.name, c.s.Doc, c.s.Len())
		}
		for _, e := range c.s.Elements() {
			g := got.Element(rebase(e.ID, c.s.Name, c.name))
			if g == nil {
				t.Fatalf("%s: element %s lost", c.name, e.ID)
			}
			if g.Name != e.Name || g.Kind != e.Kind || g.Doc != e.Doc || g.DataType != e.DataType ||
				g.Key != e.Key || g.Required != e.Required || g.DomainRef != e.DomainRef {
				t.Fatalf("%s: element %s = %+v, want %+v", c.name, e.ID, *g, *e)
			}
			if e.Kind == model.KindRelationship && !reflect.DeepEqual(g.Props, e.Props) {
				t.Fatalf("%s: relationship %s ends %v, want %v", c.name, e.ID, g.Props, e.Props)
			}
		}
		if !reflect.DeepEqual(got.Domains, c.s.Domains) {
			t.Fatalf("%s: domains differ after the round trip", c.name)
		}
	}

	p, err := genPair(3, sizeOf(300), "rt_src", "rt_tgt")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.truth) != len(gt.Pairs) || len(p.truth) == 0 {
		t.Fatalf("truth has %d pairs, want %d", len(p.truth), len(gt.Pairs))
	}
	for s, tg := range gt.Pairs {
		ps, pt := p.src.Element(rebase(s, src.Name, "rt_src")), p.tgt.Element(rebase(tg, tgt.Name, "rt_tgt"))
		if ps == nil || pt == nil || p.truth[ps.ID] != pt.ID {
			t.Fatalf("truth pair %s → %s lost", s, tg)
		}
		if ps.Name != src.Element(s).Name || pt.Name != tgt.Element(tg).Name {
			t.Fatalf("truth pair %s → %s names %s → %s", s, tg, ps.Name, pt.Name)
		}
	}
}

// TestEditsChangeSchema requires every evolution edit to change the
// rendered text, the property that keeps each version bump a real one.
func TestEditsChangeSchema(t *testing.T) {
	p, err := genPair(5, sizeOf(100), "ed_src", "ed_tgt")
	if err != nil {
		t.Fatal(err)
	}
	s, text := p.src, p.srcText
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		edit := editSchema(s, rng, i%editKinds)
		next, parsed, err := renderParse(s, "ed_src")
		if err != nil {
			t.Fatalf("edit %d (%s): %v", i, edit, err)
		}
		if next == text {
			t.Fatalf("edit %d (%s) left the schema unchanged", i, edit)
		}
		s, text = parsed, next
	}
}

// TestAttributeSharesSum checks the span attribution on a hand-built
// trace: a route span with a transaction (holding a WAL append and its
// fsync) and two overlapping voters.
func TestAttributeSharesSum(t *testing.T) {
	tr := server.TraceInfo{Trace: "t", Root: "apply", Spans: []server.SpanInfo{
		{ID: "r", Name: "apply", StartUS: 0, DurationUS: 100},
		{ID: "v1", Parent: "r", Name: "voter:a", StartUS: 10, DurationUS: 20},
		{ID: "v2", Parent: "r", Name: "voter:b", StartUS: 20, DurationUS: 20},
		{ID: "x", Parent: "r", Name: "wbmgr.txn", StartUS: 50, DurationUS: 40},
		{ID: "a", Parent: "x", Name: "wal.append", StartUS: 55, DurationUS: 30},
		{ID: "f", Parent: "a", Name: "wal.fsync", StartUS: 60, DurationUS: 31}, // overruns its parent by rounding
	}}
	rootUS, shares, err := attribute(tr)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"":         100 - 30 - 40, // route self time
		mVoters:    30,            // 10..40, overlapping voters share 20..30
		mWbmgrTxn:  10,
		mWalAppend: 5,
		mWalFsync:  25, // clipped to the append's end
	}
	if rootUS != 100 || !reflect.DeepEqual(shares, want) {
		t.Fatalf("root %v shares %v, want 100 %v", rootUS, shares, want)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-rootUS) > 1e-9 {
		t.Fatalf("shares sum to %v, root is %v", sum, rootUS)
	}
}
