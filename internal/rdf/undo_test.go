package rdf

import (
	"slices"
	"strings"
	"testing"
)

// tr is shared with graph_test.go.

func TestRollbackRestoresAddsAndRemoves(t *testing.T) {
	g := NewGraph()
	keep := tr("a", "p", "b")
	g.Add(keep)

	sp := g.Savepoint()
	g.Add(tr("c", "p", "d"))
	g.Remove(keep)
	g.Add(tr("e", "p", "f"))
	g.Rollback(sp)

	if g.Len() != 1 || !g.Has(keep) {
		t.Fatalf("rollback left %d triples, keep present=%v", g.Len(), g.Has(keep))
	}
}

func TestReleaseKeepsChanges(t *testing.T) {
	g := NewGraph()
	sp := g.Savepoint()
	g.Add(tr("a", "p", "b"))
	g.Release(sp)
	if !g.Has(tr("a", "p", "b")) {
		t.Fatal("release dropped the change")
	}
	// Journal must be off again: mutations outside any savepoint are
	// cheap and a later savepoint starts from a clean journal.
	sp2 := g.Savepoint()
	g.Add(tr("c", "p", "d"))
	g.Rollback(sp2)
	if g.Has(tr("c", "p", "d")) || !g.Has(tr("a", "p", "b")) {
		t.Fatal("second savepoint interfered with released changes")
	}
}

func TestNestedSavepoints(t *testing.T) {
	g := NewGraph()
	outer := g.Savepoint()
	g.Add(tr("outer", "p", "o"))

	inner := g.Savepoint()
	g.Add(tr("inner", "p", "o"))
	g.Rollback(inner)
	if g.Has(tr("inner", "p", "o")) {
		t.Fatal("inner rollback kept inner triple")
	}
	if !g.Has(tr("outer", "p", "o")) {
		t.Fatal("inner rollback destroyed outer triple")
	}

	inner2 := g.Savepoint()
	g.Add(tr("inner2", "p", "o"))
	g.Release(inner2) // released inner ops now belong to the outer savepoint

	g.Rollback(outer)
	if g.Len() != 0 {
		t.Fatalf("outer rollback left %d triples", g.Len())
	}
}

func TestOutOfOrderCloseBlowsUp(t *testing.T) {
	g := NewGraph()
	outer := g.Savepoint()
	_ = g.Savepoint() // inner left open
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "out of order") {
			t.Fatalf("recovered %v, want out-of-order panic", r)
		}
	}()
	g.Release(outer)
}

func TestRollbackIdempotentOps(t *testing.T) {
	// Duplicate adds and misses don't journal (the mutation didn't
	// change the graph), so rollback must not over-undo.
	g := NewGraph()
	pre := tr("a", "p", "b")
	g.Add(pre)
	sp := g.Savepoint()
	g.Add(pre)                  // no-op add
	g.Remove(tr("x", "y", "z")) // no-op remove
	g.Add(tr("c", "p", "d"))
	g.Rollback(sp)
	if g.Len() != 1 || !g.Has(pre) {
		t.Fatalf("graph corrupted by no-op journaling: len=%d", g.Len())
	}
}

func TestReplaceWithUnderSavepointRollsBack(t *testing.T) {
	g := NewGraph()
	g.Add(tr("old", "p", "o"))
	other := NewGraph()
	other.Add(tr("new1", "p", "o"))
	other.Add(tr("new2", "p", "o"))

	sp := g.Savepoint()
	g.ReplaceWith(other)
	if g.Len() != 2 || !g.Has(tr("new1", "p", "o")) {
		t.Fatalf("ReplaceWith did not apply: len=%d", g.Len())
	}
	g.Rollback(sp)
	if g.Len() != 1 || !g.Has(tr("old", "p", "o")) {
		t.Fatalf("ReplaceWith not undone: len=%d", g.Len())
	}
}

func TestRollbackDoesNotRewindBlankSeq(t *testing.T) {
	g := NewGraph()
	sp := g.Savepoint()
	b1 := g.NewBlank("n")
	g.Add(Triple{S: b1, P: IRI("urn:p"), O: IRI("urn:o")})
	g.Rollback(sp)
	b2 := g.NewBlank("n")
	if b1 == b2 {
		t.Fatalf("blank node %v reused after rollback", b2)
	}
}

func TestSetOneAndRemoveMatchingJournaled(t *testing.T) {
	g := NewGraph()
	s, p := IRI("urn:s"), IRI("urn:p")
	g.SetOne(s, p, IRI("urn:v1"))
	sp := g.Savepoint()
	g.SetOne(s, p, IRI("urn:v2"))
	g.RemoveMatching(s, Wild, Wild)
	g.Rollback(sp)
	if got := g.One(s, p); got != IRI("urn:v1") {
		t.Fatalf("after rollback One = %v, want urn:v1", got)
	}
}

func TestEqualAndDiff(t *testing.T) {
	a, b := NewGraph(), NewGraph()
	a.Add(tr("x", "p", "1"))
	b.Add(tr("x", "p", "1"))
	if !Equal(a, b) {
		t.Fatal("identical graphs not Equal")
	}
	b.Add(tr("x", "p", "2"))
	a.Add(tr("x", "p", "3"))
	if Equal(a, b) {
		t.Fatal("different graphs Equal")
	}
	added, removed := a.Diff(b)
	if len(added) != 1 || added[0] != tr("x", "p", "3") {
		t.Fatalf("added = %v", added)
	}
	if len(removed) != 1 || removed[0] != tr("x", "p", "2") {
		t.Fatalf("removed = %v", removed)
	}
}

// TestSetOneJournalsOnlyChanges: SetOne journals nothing when o is
// already the sole object, a delete+add pair when it replaces one, and
// when o is one of several objects only the deletes of the others.
func TestSetOneJournalsOnlyChanges(t *testing.T) {
	s, p := IRI("urn:s"), IRI("urn:p")
	journal := func(g *Graph, o Term) []ChangeOp {
		sp := g.Savepoint()
		g.SetOne(s, p, o)
		ops := g.ChangesSince(sp)
		g.Release(sp)
		return ops
	}
	g := NewGraph()
	g.SetOne(s, p, IRI("urn:v1"))
	gen := g.Generation()
	if ops := journal(g, IRI("urn:v1")); len(ops) != 0 || g.Generation() != gen {
		t.Fatalf("same-value SetOne journaled %v (generation %d → %d)", ops, gen, g.Generation())
	}
	want := []ChangeOp{{Add: false, T: Triple{s, p, IRI("urn:v1")}}, {Add: true, T: Triple{s, p, IRI("urn:v2")}}}
	if ops := journal(g, IRI("urn:v2")); !slices.Equal(ops, want) {
		t.Fatalf("changed SetOne journaled %v, want %v", ops, want)
	}
	g.Add(Triple{s, p, IRI("urn:v3")})
	g.Add(Triple{s, p, IRI("urn:v4")})
	ops := journal(g, IRI("urn:v3"))
	slices.SortFunc(ops, func(a, b ChangeOp) int { return a.T.Compare(b.T) })
	want = []ChangeOp{{Add: false, T: Triple{s, p, IRI("urn:v2")}}, {Add: false, T: Triple{s, p, IRI("urn:v4")}}}
	if !slices.Equal(ops, want) {
		t.Fatalf("multi-valued SetOne journaled %v, want %v", ops, want)
	}
	if objs := g.Objects(s, p); len(objs) != 1 || objs[0] != IRI("urn:v3") {
		t.Fatalf("after SetOne, Objects = %v", objs)
	}
}
