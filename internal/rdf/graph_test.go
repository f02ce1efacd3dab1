package rdf

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func tr(s, p, o string) Triple { return Triple{IRI(s), IRI(p), IRI(o)} }

func TestGraphAddRemove(t *testing.T) {
	g := NewGraph()
	if g.Len() != 0 {
		t.Fatalf("new graph Len = %d", g.Len())
	}
	if !g.Add(tr("a", "p", "b")) {
		t.Error("first Add should report true")
	}
	if g.Add(tr("a", "p", "b")) {
		t.Error("duplicate Add should report false")
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d, want 1", g.Len())
	}
	if !g.Has(tr("a", "p", "b")) {
		t.Error("Has should find added triple")
	}
	if g.Has(tr("a", "p", "c")) {
		t.Error("Has should not find absent triple")
	}
	if !g.Remove(tr("a", "p", "b")) {
		t.Error("Remove should report true for present triple")
	}
	if g.Remove(tr("a", "p", "b")) {
		t.Error("Remove should report false for absent triple")
	}
	if g.Len() != 0 {
		t.Errorf("Len after remove = %d, want 0", g.Len())
	}
}

func TestGraphAddAll(t *testing.T) {
	g := NewGraph()
	n := g.AddAll([]Triple{tr("a", "p", "b"), tr("a", "p", "c"), tr("a", "p", "b")})
	if n != 2 {
		t.Errorf("AddAll added %d, want 2", n)
	}
}

func TestGraphGeneration(t *testing.T) {
	g := NewGraph()
	g0 := g.Generation()
	g.Add(tr("a", "p", "b"))
	g1 := g.Generation()
	if g1 <= g0 {
		t.Error("generation should increase on add")
	}
	g.Add(tr("a", "p", "b")) // duplicate: no change
	if g.Generation() != g1 {
		t.Error("generation should not change on no-op add")
	}
	g.Remove(tr("a", "p", "b"))
	if g.Generation() <= g1 {
		t.Error("generation should increase on remove")
	}
}

// TestGraphMatchAllPatterns exercises all eight bound/wild combinations.
func TestGraphMatchAllPatterns(t *testing.T) {
	g := NewGraph()
	g.AddAll([]Triple{
		tr("s1", "p1", "o1"),
		tr("s1", "p1", "o2"),
		tr("s1", "p2", "o1"),
		tr("s2", "p1", "o1"),
	})
	cases := []struct {
		s, p, o Term
		want    int
	}{
		{IRI("s1"), IRI("p1"), IRI("o1"), 1},
		{IRI("s1"), IRI("p1"), Wild, 2},
		{IRI("s1"), Wild, IRI("o1"), 2},
		{Wild, IRI("p1"), IRI("o1"), 2},
		{IRI("s1"), Wild, Wild, 3},
		{Wild, IRI("p1"), Wild, 3},
		{Wild, Wild, IRI("o1"), 3},
		{Wild, Wild, Wild, 4},
		{IRI("zz"), Wild, Wild, 0},
		{Wild, IRI("zz"), Wild, 0},
		{Wild, Wild, IRI("zz"), 0},
		{IRI("s1"), IRI("p1"), IRI("zz"), 0},
	}
	for _, c := range cases {
		got := len(g.Match(c.s, c.p, c.o))
		if got != c.want {
			t.Errorf("Match(%v,%v,%v) = %d results, want %d", c.s, c.p, c.o, got, c.want)
		}
	}
}

func TestGraphVisitEarlyStop(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 10; i++ {
		g.Add(tr("s", "p", fmt.Sprintf("o%d", i)))
	}
	count := 0
	g.Visit(IRI("s"), IRI("p"), Wild, func(Triple) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("Visit visited %d, want early stop at 3", count)
	}
}

func TestGraphMatchSortedDeterminism(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 50; i++ {
		g.Add(tr(fmt.Sprintf("s%02d", i%7), "p", fmt.Sprintf("o%02d", i)))
	}
	a := g.MatchSorted(Wild, Wild, Wild)
	b := g.MatchSorted(Wild, Wild, Wild)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("MatchSorted is not deterministic")
		}
		if i > 0 && a[i-1].Compare(a[i]) >= 0 {
			t.Fatal("MatchSorted is not sorted")
		}
	}
}

func TestGraphOneObjectsSubjects(t *testing.T) {
	g := NewGraph()
	g.AddAll([]Triple{tr("s", "p", "o1"), tr("s", "p", "o2"), tr("s2", "p", "o1")})
	if got := g.One(IRI("s"), IRI("p")); got.IsZero() {
		t.Error("One should return some object")
	}
	if got := g.One(IRI("absent"), IRI("p")); !got.IsZero() {
		t.Error("One on absent subject should be zero")
	}
	objs := g.Objects(IRI("s"), IRI("p"))
	if len(objs) != 2 || objs[0] != IRI("o1") || objs[1] != IRI("o2") {
		t.Errorf("Objects = %v", objs)
	}
	subs := g.Subjects(IRI("p"), IRI("o1"))
	if len(subs) != 2 || subs[0] != IRI("s") || subs[1] != IRI("s2") {
		t.Errorf("Subjects = %v", subs)
	}
}

func TestGraphSetOne(t *testing.T) {
	g := NewGraph()
	g.Add(tr("s", "p", "old1"))
	g.Add(tr("s", "p", "old2"))
	g.SetOne(IRI("s"), IRI("p"), IRI("new"))
	objs := g.Objects(IRI("s"), IRI("p"))
	if len(objs) != 1 || objs[0] != IRI("new") {
		t.Errorf("after SetOne, Objects = %v", objs)
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d, want 1", g.Len())
	}
}

func TestGraphRemoveMatching(t *testing.T) {
	g := NewGraph()
	g.AddAll([]Triple{tr("s", "p", "a"), tr("s", "p", "b"), tr("s", "q", "c")})
	victims := g.RemoveMatching(IRI("s"), IRI("p"), Wild)
	if len(victims) != 2 {
		t.Errorf("RemoveMatching removed %d, want 2", len(victims))
	}
	if g.Len() != 1 || !g.Has(tr("s", "q", "c")) {
		t.Error("RemoveMatching removed wrong triples")
	}
}

func TestGraphClone(t *testing.T) {
	g := NewGraph()
	g.AddAll([]Triple{tr("s", "p", "a"), tr("s", "p", "b")})
	c := g.Clone()
	if c.Len() != g.Len() {
		t.Fatalf("clone Len = %d, want %d", c.Len(), g.Len())
	}
	c.Add(tr("x", "y", "z"))
	if g.Has(tr("x", "y", "z")) {
		t.Error("mutating clone affected original")
	}
	g.Remove(tr("s", "p", "a"))
	if !c.Has(tr("s", "p", "a")) {
		t.Error("mutating original affected clone")
	}
}

func TestGraphNewBlank(t *testing.T) {
	g := NewGraph()
	seen := map[Term]bool{}
	for i := 0; i < 100; i++ {
		b := g.NewBlank("cell")
		if seen[b] {
			t.Fatalf("NewBlank returned duplicate %v", b)
		}
		seen[b] = true
		if b.Kind() != BlankKind {
			t.Fatalf("NewBlank returned %v kind", b.Kind())
		}
	}
}

func TestGraphNewBlankAfterClone(t *testing.T) {
	g := NewGraph()
	b1 := g.NewBlank("x")
	c := g.Clone()
	b2 := c.NewBlank("x")
	if b1 == b2 {
		t.Error("clone should continue blank sequence, not restart it")
	}
}

func TestGraphConcurrency(t *testing.T) {
	g := NewGraph()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g.Add(tr(fmt.Sprintf("s%d", w), "p", fmt.Sprintf("o%d", i)))
				g.Match(Wild, IRI("p"), Wild)
				g.Has(tr(fmt.Sprintf("s%d", w), "p", "o0"))
			}
		}(w)
	}
	wg.Wait()
	if g.Len() != 8*200 {
		t.Errorf("Len = %d, want %d", g.Len(), 8*200)
	}
}

// TestGraphIndexConsistency checks the graph against a reference model —
// a plain set of triples — under random Add, Remove, SetOne and
// RemoveMatching inside nested savepoints that are rolled back or
// released. After every step every read agrees with the model: all eight
// Match patterns over the whole term universe, One, Objects, Subjects,
// Len and Clone. The three indexes also hold exactly the model's
// triples with no empty or misshapen level left behind, so a removed
// triple is gone from each of them. The universe is small, so the
// inline innermost sets go through 0→1→2→1→0 members many times.
func TestGraphIndexConsistency(t *testing.T) {
	var subs, preds, objs []Term
	for i := 0; i < 4; i++ {
		subs = append(subs, IRI(fmt.Sprintf("s%d", i)))
		objs = append(objs, IRI(fmt.Sprintf("o%d", i)))
	}
	objs = append(objs, Literal("v"), IntLiteral(1), subs[0])
	for i := 0; i < 3; i++ {
		preds = append(preds, IRI(fmt.Sprintf("p%d", i)))
	}
	rng := rand.New(rand.NewSource(1))
	pick := func(ts []Term) Term { return ts[rng.Intn(len(ts))] }
	pickOrWild := func(ts []Term) Term {
		if rng.Intn(3) == 0 {
			return Wild
		}
		return pick(ts)
	}

	g := NewGraph()
	model := map[Triple]bool{}
	type open struct {
		sp    Savepoint
		model map[Triple]bool
	}
	var stack []open
	copyModel := func() map[Triple]bool {
		c := make(map[Triple]bool, len(model))
		for k := range model {
			c[k] = true
		}
		return c
	}
	// setSizes counts the objects of each (s, p) key, to record which
	// set transitions the run went through.
	setSizes := func() map[[2]Term]int {
		n := map[[2]Term]int{}
		for x := range model {
			n[[2]Term{x.S, x.P}]++
		}
		return n
	}
	seen := map[[2]int]bool{}
	prev := setSizes()

	for step := 0; step < 1000; step++ {
		var op string
		switch r := rng.Intn(20); {
		case r < 7:
			op = "add"
			x := Triple{pick(subs), pick(preds), pick(objs)}
			if got := g.Add(x); got == model[x] {
				t.Fatalf("step %d: Add(%v) = %v with the triple present=%v", step, x, got, model[x])
			}
			model[x] = true
		case r < 11:
			op = "remove"
			x := Triple{pick(subs), pick(preds), pick(objs)}
			if got := g.Remove(x); got != model[x] {
				t.Fatalf("step %d: Remove(%v) = %v, want %v", step, x, got, model[x])
			}
			delete(model, x)
		case r < 14:
			op = "setone"
			s, p, o := pick(subs), pick(preds), pick(objs)
			g.SetOne(s, p, o)
			for x := range model {
				if x.S == s && x.P == p {
					delete(model, x)
				}
			}
			model[Triple{s, p, o}] = true
		case r < 15:
			op = "removematching"
			s, p, o := pickOrWild(subs), pickOrWild(preds), pickOrWild(objs)
			victims := g.RemoveMatching(s, p, o)
			want := 0
			for x := range model {
				if matches(x, s, p, o) {
					delete(model, x)
					want++
				}
			}
			if len(victims) != want {
				t.Fatalf("step %d: RemoveMatching removed %d, want %d", step, len(victims), want)
			}
		case r < 17:
			op = "savepoint"
			if len(stack) < 3 {
				stack = append(stack, open{g.Savepoint(), copyModel()})
			}
		case r < 19:
			op = "rollback"
			if n := len(stack); n > 0 {
				g.Rollback(stack[n-1].sp)
				model = stack[n-1].model
				stack = stack[:n-1]
			}
		default:
			op = "release"
			if n := len(stack); n > 0 {
				g.Release(stack[n-1].sp)
				stack = stack[:n-1]
			}
		}
		checkAgainstModel(t, g, model, subs, preds, objs)
		if t.Failed() {
			t.Fatalf("step %d (%s) diverged from the reference model", step, op)
		}
		cur := setSizes()
		for k, n := range cur {
			if n != prev[k] {
				seen[[2]int{prev[k], n}] = true
			}
		}
		for k, n := range prev {
			if _, ok := cur[k]; !ok {
				seen[[2]int{n, 0}] = true
			}
		}
		prev = cur
	}
	for _, tr := range [][2]int{{0, 1}, {1, 2}, {2, 1}, {1, 0}} {
		if !seen[tr] {
			t.Errorf("no innermost set went from %d to %d members", tr[0], tr[1])
		}
	}
}

// matches reports whether x matches the pattern (Wild matches anything).
func matches(x Triple, s, p, o Term) bool {
	return (s.IsZero() || x.S == s) && (p.IsZero() || x.P == p) && (o.IsZero() || x.O == o)
}

// sameTriples reports an error when got is not exactly the model's
// triples matching the pattern, each once.
func sameTriples(t *testing.T, what string, got []Triple, model map[Triple]bool, s, p, o Term) {
	t.Helper()
	set := map[Triple]bool{}
	for _, x := range got {
		if set[x] {
			t.Errorf("%s: %v returned twice", what, x)
		}
		if !model[x] || !matches(x, s, p, o) {
			t.Errorf("%s: returned %v, absent from the model", what, x)
		}
		set[x] = true
	}
	for x := range model {
		if matches(x, s, p, o) && !set[x] {
			t.Errorf("%s: missing %v", what, x)
		}
	}
}

// checkAgainstModel compares every read of g with the reference model.
func checkAgainstModel(t *testing.T, g *Graph, model map[Triple]bool, subs, preds, objs []Term) {
	t.Helper()
	if g.Len() != len(model) {
		t.Errorf("Len = %d, want %d", g.Len(), len(model))
	}
	withWild := func(ts []Term) []Term { return append([]Term{Wild}, ts...) }
	for _, s := range withWild(subs) {
		for _, p := range withWild(preds) {
			for _, o := range withWild(objs) {
				sameTriples(t, fmt.Sprintf("Match(%v, %v, %v)", s, p, o), g.Match(s, p, o), model, s, p, o)
			}
		}
	}
	for _, s := range subs {
		for _, p := range preds {
			var want []Term
			for _, o := range objs {
				if model[Triple{s, p, o}] {
					want = append(want, o)
				}
			}
			got := g.Objects(s, p)
			sort.Slice(want, func(i, j int) bool { return compareTerm(want[i], want[j]) < 0 })
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("Objects(%v, %v) = %v, want %v", s, p, got, want)
			}
			// One and Ones return an object of (s, p), any of several.
			oneOf := func(x Term) bool {
				if len(want) == 0 {
					return x.IsZero()
				}
				return model[Triple{s, p, x}]
			}
			if one := g.One(s, p); !oneOf(one) {
				t.Errorf("One(%v, %v) = %v, want one of %v", s, p, one, want)
			}
			ones := make([]Term, 2)
			g.Ones(s, []Term{p, IRI("absent")}, ones)
			if !oneOf(ones[0]) || !ones[1].IsZero() {
				t.Errorf("Ones(%v, [%v absent]) = %v, want [one of %v, zero]", s, p, ones, want)
			}
		}
	}
	for _, p := range preds {
		for _, o := range objs {
			var want []Term
			for _, s := range subs {
				if model[Triple{s, p, o}] {
					want = append(want, s)
				}
			}
			if got := g.Subjects(p, o); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("Subjects(%v, %v) = %v, want %v", p, o, got, want)
			}
		}
	}
	c := g.Clone()
	if c.Len() != len(model) {
		t.Errorf("Clone Len = %d, want %d", c.Len(), len(model))
	}
	sameTriples(t, "Clone", c.Match(Wild, Wild, Wild), model, Wild, Wild, Wild)
	for name, idx := range map[string]struct {
		idx  index
		perm func(a, b, c Term) Triple
	}{
		"spo": {g.spo, func(a, b, c Term) Triple { return Triple{a, b, c} }},
		"pos": {g.pos, func(a, b, c Term) Triple { return Triple{c, a, b} }},
		"osp": {g.osp, func(a, b, c Term) Triple { return Triple{b, c, a} }},
	} {
		var held []Triple
		for a, l2 := range idx.idx {
			if l2 == nil {
				continue
			}
			if len(l2) == 0 {
				t.Errorf("%s: empty second level under %v", name, g.terms[a])
			}
			for b, set := range l2 {
				if set.many != nil && len(set.many) < 2 {
					t.Errorf("%s: set under (%v, %v) has %d members in its map", name, g.terms[a], g.terms[b], len(set.many))
				}
				set.each(func(c id) bool {
					held = append(held, idx.perm(g.terms[a], g.terms[b], g.terms[c]))
					return true
				})
			}
		}
		sameTriples(t, "index "+name, held, model, Wild, Wild, Wild)
	}
	checkDict(t, g)
	checkDict(t, c)
}

func TestItoa(t *testing.T) {
	f := func(n uint16) bool { return itoa(int(n)) == fmt.Sprint(n) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
