package rdf

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// checkDict checks the dictionary invariants of g: every live ID maps
// one term and back, live and free IDs partition the allocated ones,
// and each live term's reference count equals the triple positions it
// fills in each of the three indexes.
func checkDict(t *testing.T, g *Graph) {
	t.Helper()
	g.mu.RLock()
	defer g.mu.RUnlock()
	if len(g.terms) == 0 || g.terms[0] != (Term{}) || g.refs[0] != 0 {
		t.Fatalf("ID 0 is not the reserved no-term slot: terms %d, refs[0] %v", len(g.terms), g.refs)
	}
	if len(g.refs) != len(g.terms) {
		t.Fatalf("%d reference counts for %d IDs", len(g.refs), len(g.terms))
	}
	live := map[id]bool{}
	for term, x := range g.ids {
		if x == 0 || int(x) >= len(g.terms) || g.terms[x] != term {
			t.Fatalf("dictionary maps %v to ID %d of %d, which names another term", term, x, len(g.terms))
		}
		if live[x] {
			t.Fatalf("ID %d maps two terms", x)
		}
		live[x] = true
	}
	for _, x := range g.free {
		if x == 0 || int(x) >= len(g.terms) || live[x] {
			t.Fatalf("free ID %d is reserved, out of range or live", x)
		}
		if g.terms[x] != (Term{}) || g.refs[x] != 0 {
			t.Fatalf("free ID %d still holds %v with %d references", x, g.terms[x], g.refs[x])
		}
		live[x] = true // each ID once across live and free
	}
	if len(g.ids)+len(g.free) != len(g.terms)-1 {
		t.Fatalf("%d live and %d free IDs of %d allocated", len(g.ids), len(g.free), len(g.terms)-1)
	}
	for name, idx := range map[string]index{"spo": g.spo, "pos": g.pos, "osp": g.osp} {
		positions := make([]int, len(g.terms))
		for a, l2 := range idx {
			for b, set := range l2 {
				set.each(func(c id) bool {
					positions[a]++
					positions[b]++
					positions[c]++
					return true
				})
			}
		}
		for x := range g.terms {
			if int(g.refs[x]) != positions[x] {
				t.Fatalf("%s: ID %d (%v) has %d references, want %d triple positions",
					name, x, g.terms[x], g.refs[x], positions[x])
			}
		}
	}
	for term, x := range g.ids {
		if g.refs[x] == 0 {
			t.Fatalf("%v stays in the dictionary with no references", term)
		}
	}
}

// TestIndexHoldsNoTerms: the indexes hold IDs only — no Term, string
// or pointer to one the GC would have to scan.
func TestIndexHoldsNoTerms(t *testing.T) {
	var walk func(path string, typ reflect.Type, seen map[reflect.Type]bool)
	walk = func(path string, typ reflect.Type, seen map[reflect.Type]bool) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.String, reflect.Interface, reflect.Pointer, reflect.Func, reflect.Chan:
			t.Errorf("%s holds a %v", path, typ)
		case reflect.Map:
			walk(path+" key", typ.Key(), seen)
			walk(path+" value", typ.Elem(), seen)
		case reflect.Slice, reflect.Array:
			walk(path+" element", typ.Elem(), seen)
		case reflect.Struct:
			if typ == reflect.TypeOf(Term{}) {
				t.Errorf("%s holds a Term", path)
			}
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type, seen)
			}
		}
	}
	walk("index", reflect.TypeOf(index{}), map[reflect.Type]bool{})
}

// TestDictionaryFreesChurnedLiterals: a term leaves the dictionary with
// its last triple and its ID is reused, so 100,000 SetOnes of distinct
// confidence literals on one cell leave only the three live terms.
func TestDictionaryFreesChurnedLiterals(t *testing.T) {
	g := NewGraph()
	cell, conf := IRI("urn:m1/cell/a|b"), IRI("urn:confidence-score")
	for i := 0; i < 100000; i++ {
		g.SetOne(cell, conf, FloatLiteral(float64(i)/100000))
	}
	checkDict(t, g)
	want := Triple{cell, conf, FloatLiteral(99999.0 / 100000)}
	if g.Len() != 1 || !g.Has(want) {
		t.Fatalf("graph holds %v, want only %v", g.Triples(), want)
	}
	if len(g.ids) != 3 || len(g.terms) > 5 {
		t.Fatalf("dictionary holds %d terms in %d IDs after the churn, want 3 live", len(g.ids), len(g.terms)-1)
	}
	// The same churn inside a savepoint frees the literals once it closes.
	sp := g.Savepoint()
	for i := 0; i < 1000; i++ {
		g.SetOne(cell, conf, IntLiteral(i))
	}
	checkDict(t, g)
	g.Release(sp)
	checkDict(t, g)
	if len(g.ids) != 3 {
		t.Fatalf("dictionary holds %d terms after the savepoint's churn, want 3", len(g.ids))
	}
	g.Remove(Triple{cell, conf, IntLiteral(999)})
	checkDict(t, g)
	if len(g.ids) != 0 {
		t.Fatalf("empty graph's dictionary holds %d terms", len(g.ids))
	}
}

// TestReadsNeverIntern: every read of a term the graph has never seen
// reads empty, leaves the dictionary as it was, and runs under the
// read lock alone — here while the test itself holds a read lock, which
// a write lock would wait on forever.
func TestReadsNeverIntern(t *testing.T) {
	g := NewGraph()
	s, p, o := IRI("urn:s"), IRI("urn:p"), Literal("o")
	g.Add(Triple{s, p, o})
	g.Add(Triple{o, p, s})
	unseen := IRI("urn:unseen")
	g.mu.RLock()
	before := g.dict.clone()
	done := make(chan []string)
	go func() {
		var bad []string
		check := func(what string, empty bool) {
			if !empty {
				bad = append(bad, what)
			}
		}
		for _, pat := range [][3]Term{
			{unseen, p, o}, {s, unseen, o}, {s, p, unseen},
			{unseen, Wild, Wild}, {Wild, unseen, Wild}, {Wild, Wild, unseen},
			{unseen, p, Wild}, {s, Wild, unseen}, {Wild, unseen, o},
		} {
			check(fmt.Sprintf("Match%v", pat), len(g.Match(pat[0], pat[1], pat[2])) == 0)
			n := 0
			g.Visit(pat[0], pat[1], pat[2], func(Triple) bool { n++; return true })
			check(fmt.Sprintf("Visit%v", pat), n == 0)
		}
		check("Has", !g.Has(Triple{s, p, unseen}))
		check("One", g.One(unseen, p).IsZero() && g.One(s, unseen).IsZero())
		out := []Term{o, o}
		g.Ones(unseen, []Term{p, p}, out)
		check("Ones(unseen s)", out[0].IsZero() && out[1].IsZero())
		g.Ones(s, []Term{unseen, p}, out)
		check("Ones(unseen p)", out[0].IsZero() && out[1] == o)
		check("Objects", g.Objects(unseen, p) == nil && g.Objects(s, unseen) == nil)
		check("Subjects", g.Subjects(unseen, o) == nil && g.Subjects(p, unseen) == nil)
		check("CountObjects", g.CountObjects(unseen, p) == 0 && g.CountObjects(s, unseen) == 0)
		q := Query{Patterns: []Pattern{{Var("x"), unseen, Var("y")}}}
		check("Query", len(q.Select(g)) == 0)
		done <- bad
	}()
	select {
	case bad := <-done:
		for _, what := range bad {
			t.Errorf("%s of an unseen term is not empty", what)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a read waited for the write lock")
	}
	if !reflect.DeepEqual(g.dict, before) {
		t.Errorf("reads changed the dictionary: %v, was %v", g.ids, before.ids)
	}
	g.mu.RUnlock()
	checkDict(t, g)
}

// TestRollbackRestoresTermsAfterIDReuse: a rollback restores the exact
// terms even when the savepoint removed a term's last triple and a new
// term then took its ID; nested savepoints and ChangesSince see the
// same terms.
func TestRollbackRestoresTermsAfterIDReuse(t *testing.T) {
	g := NewGraph()
	cell, conf := IRI("urn:cell"), IRI("urn:confidence-score")
	old := Triple{cell, conf, FloatLiteral(0.5)}
	g.Add(old)
	base := g.Clone()
	oldIDs := map[id]bool{g.lookup(old.S): true, g.lookup(old.P): true, g.lookup(old.O): true}
	sp := g.Savepoint()
	g.Remove(old)
	inner := g.Savepoint()
	g.Add(Triple{IRI("urn:other"), IRI("urn:p"), Literal("fresh")})
	if !oldIDs[g.lookup(IRI("urn:other"))] {
		t.Fatalf("the new term took ID %d, not one of the removed terms' %v", g.lookup(IRI("urn:other")), oldIDs)
	}
	g.SetOne(cell, conf, FloatLiteral(0.75))
	checkDict(t, g)
	changes := g.ChangesSince(sp)
	want := []ChangeOp{
		{false, old},
		{true, Triple{IRI("urn:other"), IRI("urn:p"), Literal("fresh")}},
		{true, Triple{cell, conf, FloatLiteral(0.75)}},
	}
	if fmt.Sprint(changes) != fmt.Sprint(want) {
		t.Fatalf("ChangesSince = %v, want %v", changes, want)
	}
	g.Rollback(inner)
	checkDict(t, g)
	g.Add(Triple{IRI("urn:x"), conf, IntLiteral(7)})
	g.Rollback(sp)
	checkDict(t, g)
	if !Equal(g, base) || !g.Has(old) || g.One(cell, conf) != old.O {
		added, removed := g.Diff(base)
		t.Fatalf("rollback left +%v -%v", added, removed)
	}
	if len(g.ids) != 3 {
		t.Fatalf("dictionary holds %d terms after the rollback, want 3", len(g.ids))
	}
}

// TestCloneSharesNothing: a clone and its source each take any mutation,
// freed and reused IDs included, without the other seeing it, and a
// clone made inside a savepoint carries none of its journal.
func TestCloneSharesNothing(t *testing.T) {
	g := benchGraph(20, 3)
	sp := g.Savepoint()
	g.SetOne(IRI("urn:s0"), IRI("urn:p0"), Literal("inside"))
	c := g.Clone()
	checkDict(t, c)
	if c.journal != nil || c.journalDepth != 0 {
		t.Fatalf("clone carries %d journal ops at depth %d", len(c.journal), c.journalDepth)
	}
	want := MarshalNTriples(c)
	g.Rollback(sp)
	for i := 0; i < 50; i++ {
		g.SetOne(IRI("urn:s1"), IRI("urn:p1"), IntLiteral(i))
		g.Remove(Triple{IRI(fmt.Sprintf("urn:s%d", i%20)), IRI("urn:p2"), Literal(fmt.Sprintf("v%d-2", i%20))})
	}
	if got := MarshalNTriples(c); got != want {
		t.Fatal("mutating the source changed the clone")
	}
	want = MarshalNTriples(g)
	for i := 0; i < 50; i++ {
		c.SetOne(IRI("urn:s2"), IRI("urn:p0"), IntLiteral(i))
		c.RemoveMatching(IRI(fmt.Sprintf("urn:s%d", i%20)), Wild, Wild)
	}
	if got := MarshalNTriples(g); got != want {
		t.Fatal("mutating the clone changed the source")
	}
	checkDict(t, g)
	checkDict(t, c)
}

// TestReplaceWithKeepsDictionary: ReplaceWith leaves a consistent
// dictionary outside a savepoint (a swap) and inside one (a journaled
// replay that a rollback undoes), and the source stays independent.
func TestReplaceWithKeepsDictionary(t *testing.T) {
	for _, inSavepoint := range []bool{false, true} {
		t.Run("savepoint="+strconv.FormatBool(inSavepoint), func(t *testing.T) {
			g := benchGraph(10, 2)
			before := MarshalNTriples(g)
			other := benchGraph(5, 4)
			other.Add(Triple{IRI("urn:s0"), IRI("urn:p0"), IRI("urn:s3")})
			var sp Savepoint
			if inSavepoint {
				sp = g.Savepoint()
			}
			g.ReplaceWith(other)
			checkDict(t, g)
			if !Equal(g, other) {
				t.Fatal("ReplaceWith did not copy the other graph")
			}
			g.SetOne(IRI("urn:s0"), IRI("urn:p1"), Literal("changed"))
			other.SetOne(IRI("urn:s1"), IRI("urn:p1"), Literal("changed too"))
			if g.Has(Triple{IRI("urn:s1"), IRI("urn:p1"), Literal("changed too")}) ||
				other.Has(Triple{IRI("urn:s0"), IRI("urn:p1"), Literal("changed")}) {
				t.Fatal("ReplaceWith shares state with its source")
			}
			checkDict(t, g)
			checkDict(t, other)
			if inSavepoint {
				g.Rollback(sp)
				checkDict(t, g)
				if got := MarshalNTriples(g); got != before {
					t.Fatal("rollback of ReplaceWith did not restore the graph")
				}
			}
		})
	}
}
