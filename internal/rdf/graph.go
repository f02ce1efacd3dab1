package rdf

import (
	"maps"
	"sort"
	"sync"
)

// Graph is an in-memory RDF graph with three-way indexing (SPO, POS, OSP)
// so that every triple pattern with at least one bound position is
// answered from an index.
//
// Graph is safe for concurrent use. The workbench manager wraps mutations
// in transactions (see Txn), but the graph itself is also independently
// usable.
type Graph struct {
	mu  sync.RWMutex
	spo index
	pos index
	osp index
	n   int
	// gen increments on every successful mutation; observers use it to
	// detect staleness cheaply.
	gen uint64
	// blankSeq feeds NewBlank.
	blankSeq int
	// journal and journalDepth implement savepoints (see undo.go).
	journal      []undoOp
	journalDepth int
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{spo: index{}, pos: index{}, osp: index{}}
}

// index is one of the graph's three-level triple indexes: first term →
// second term → the set of third terms. SPO keys subject, predicate,
// object; POS predicate, object, subject; OSP object, subject, predicate.
type index map[Term]map[Term]termSet

// termSet is an index's innermost level: the non-empty set of terms
// completing a (first, second) key. Almost every (subject, predicate)
// pair of a blackboard holds one object — the functional annotations —
// so a one-member set keeps its member inline in one, with many nil,
// and costs nothing beyond its slot in the parent map. From the second
// member on, many holds every member and one is unused. A set shrinking
// back to one member moves it inline again; an emptied set is deleted
// from its parent, so a zero termSet only ever means "absent".
type termSet struct {
	one  Term
	many map[Term]struct{}
}

func (s termSet) has(t Term) bool {
	if s.many == nil {
		return s.one == t
	}
	_, ok := s.many[t]
	return ok
}

// first returns one member: the inline one, or an arbitrary map key.
func (s termSet) first() Term {
	if s.many == nil {
		return s.one
	}
	for t := range s.many {
		return t
	}
	return Term{}
}

// each calls fn on every member until fn returns false, and reports
// whether it visited them all.
func (s termSet) each(fn func(Term) bool) bool {
	if s.many == nil {
		return fn(s.one)
	}
	for t := range s.many {
		if !fn(t) {
			return false
		}
	}
	return true
}

// len returns the number of members.
func (s termSet) len() int {
	if s.many == nil {
		return 1
	}
	return len(s.many)
}

// appendTo appends every member to dst.
func (s termSet) appendTo(dst []Term) []Term {
	if s.many == nil {
		return append(dst, s.one)
	}
	for t := range s.many {
		dst = append(dst, t)
	}
	return dst
}

// add inserts (a, b, c), reporting whether the entry was new.
func (idx index) add(a, b, c Term) bool {
	l2 := idx[a]
	if l2 == nil {
		l2 = make(map[Term]termSet)
		idx[a] = l2
	}
	set, ok := l2[b]
	switch {
	case !ok:
		l2[b] = termSet{one: c}
	case set.many == nil:
		if set.one == c {
			return false
		}
		l2[b] = termSet{many: map[Term]struct{}{set.one: {}, c: {}}}
	default:
		if _, dup := set.many[c]; dup {
			return false
		}
		set.many[c] = struct{}{}
	}
	return true
}

// remove deletes (a, b, c), reporting whether the entry was present.
func (idx index) remove(a, b, c Term) bool {
	l2 := idx[a]
	set, ok := l2[b]
	if !ok || !set.has(c) {
		return false
	}
	if set.many == nil {
		delete(l2, b)
		if len(l2) == 0 {
			delete(idx, a)
		}
		return true
	}
	delete(set.many, c)
	if len(set.many) == 1 {
		l2[b] = termSet{one: set.first()}
	}
	return true
}

// Len returns the number of triples in the graph.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.n
}

// Generation returns a counter that increments on every mutation.
func (g *Graph) Generation() uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.gen
}

// NewBlank mints a fresh blank node that does not collide with prior
// NewBlank results from this graph.
func (g *Graph) NewBlank(prefix string) Term {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.blankSeq++
	return Blank(prefix + "-" + itoa(g.blankSeq))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Add inserts a triple. It reports whether the triple was newly added
// (false if it was already present).
func (g *Graph) Add(t Triple) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.addLocked(t)
}

// AddAll inserts each triple, returning the count of newly added triples.
func (g *Graph) AddAll(ts []Triple) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	added := 0
	for _, t := range ts {
		if g.addLocked(t) {
			added++
		}
	}
	return added
}

func (g *Graph) addLocked(t Triple) bool {
	if !g.spo.add(t.S, t.P, t.O) {
		return false
	}
	g.pos.add(t.P, t.O, t.S)
	g.osp.add(t.O, t.S, t.P)
	g.n++
	g.gen++
	g.journalLocked(true, t)
	return true
}

// Remove deletes a triple. It reports whether the triple was present.
func (g *Graph) Remove(t Triple) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.removeLocked(t)
}

func (g *Graph) removeLocked(t Triple) bool {
	if !g.spo.remove(t.S, t.P, t.O) {
		return false
	}
	g.pos.remove(t.P, t.O, t.S)
	g.osp.remove(t.O, t.S, t.P)
	g.n--
	g.gen++
	g.journalLocked(false, t)
	return true
}

// Has reports whether the triple is present.
func (g *Graph) Has(t Triple) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	set, ok := g.spo[t.S][t.P]
	return ok && set.has(t.O)
}

// Wild is the zero Term; in Match patterns it matches any term.
var Wild = Term{}

// Match returns all triples matching the pattern, where any zero Term
// (Wild) position matches everything. Results are in unspecified order;
// use MatchSorted when determinism matters.
func (g *Graph) Match(s, p, o Term) []Triple {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []Triple
	g.matchLocked(s, p, o, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// MatchSorted returns matching triples in deterministic (S,P,O) order.
func (g *Graph) MatchSorted(s, p, o Term) []Triple {
	out := g.Match(s, p, o)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Visit calls fn for each triple matching the pattern until fn returns
// false. The graph must not be mutated from within fn.
func (g *Graph) Visit(s, p, o Term, fn func(Triple) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.matchLocked(s, p, o, fn)
}

func (g *Graph) matchLocked(s, p, o Term, fn func(Triple) bool) {
	sw, pw, ow := s.IsZero(), p.IsZero(), o.IsZero()
	switch {
	case !sw && !pw && !ow:
		if set, ok := g.spo[s][p]; ok && set.has(o) {
			fn(Triple{s, p, o})
		}
	case !sw && !pw: // S P ?
		if set, ok := g.spo[s][p]; ok {
			set.each(func(obj Term) bool { return fn(Triple{s, p, obj}) })
		}
	case !sw && !ow: // S ? O
		if set, ok := g.osp[o][s]; ok {
			set.each(func(pred Term) bool { return fn(Triple{s, pred, o}) })
		}
	case !pw && !ow: // ? P O
		if set, ok := g.pos[p][o]; ok {
			set.each(func(sub Term) bool { return fn(Triple{sub, p, o}) })
		}
	case !sw: // S ? ?
		for pred, set := range g.spo[s] {
			if !set.each(func(obj Term) bool { return fn(Triple{s, pred, obj}) }) {
				return
			}
		}
	case !pw: // ? P ?
		for obj, set := range g.pos[p] {
			if !set.each(func(sub Term) bool { return fn(Triple{sub, p, obj}) }) {
				return
			}
		}
	case !ow: // ? ? O
		for sub, set := range g.osp[o] {
			if !set.each(func(pred Term) bool { return fn(Triple{sub, pred, o}) }) {
				return
			}
		}
	default: // ? ? ?
		for sub, l2 := range g.spo {
			for pred, set := range l2 {
				if !set.each(func(obj Term) bool { return fn(Triple{sub, pred, obj}) }) {
					return
				}
			}
		}
	}
}

// One returns the single object of (s, p, ?), or the zero Term if there is
// none. If several objects exist, an arbitrary one is returned; the
// blackboard's functional annotations maintain at most one.
func (g *Graph) One(s, p Term) Term {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.spo[s][p].first()
}

// Ones reads several functional annotations of one subject at the cost
// of one: out[i] becomes One(s, ps[i]), with s looked up once under one
// read lock. out must be at least as long as ps.
func (g *Graph) Ones(s Term, ps, out []Term) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	l2 := g.spo[s]
	for i, p := range ps {
		out[i] = l2[p].first()
	}
}

// CountObjects returns the number of objects of (s, p, ?) without
// reading them.
func (g *Graph) CountObjects(s, p Term) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if set, ok := g.spo[s][p]; ok {
		return set.len()
	}
	return 0
}

// Objects returns all objects of (s, p, ?) in deterministic order.
func (g *Graph) Objects(s, p Term) []Term {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []Term
	if set, ok := g.spo[s][p]; ok {
		out = set.appendTo(out)
	}
	sort.Slice(out, func(i, j int) bool { return compareTerm(out[i], out[j]) < 0 })
	return out
}

// Subjects returns all subjects of (?, p, o) in deterministic order.
func (g *Graph) Subjects(p, o Term) []Term {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []Term
	if set, ok := g.pos[p][o]; ok {
		out = set.appendTo(out)
	}
	sort.Slice(out, func(i, j int) bool { return compareTerm(out[i], out[j]) < 0 })
	return out
}

// SetOne makes o the unique object of (s, p, ·). It is the primitive
// behind functional annotations such as confidence-score. It removes
// only the objects other than o and adds o only when absent, so setting
// the value a pair already holds changes, and journals, nothing.
func (g *Graph) SetOne(s, p, o Term) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if set, ok := g.spo[s][p]; ok {
		// Copy the members first: removeLocked mutates the set.
		var buf [1]Term
		for _, old := range set.appendTo(buf[:0]) {
			if old != o {
				g.removeLocked(Triple{s, p, old})
			}
		}
	}
	g.addLocked(Triple{s, p, o})
}

// RemoveMatching deletes every triple matching the pattern and returns the
// deleted triples (useful for transaction undo logs).
func (g *Graph) RemoveMatching(s, p, o Term) []Triple {
	g.mu.Lock()
	defer g.mu.Unlock()
	var victims []Triple
	g.matchLocked(s, p, o, func(t Triple) bool {
		victims = append(victims, t)
		return true
	})
	for _, t := range victims {
		g.removeLocked(t)
	}
	return victims
}

// Triples returns every triple in deterministic order.
func (g *Graph) Triples() []Triple {
	return g.MatchSorted(Wild, Wild, Wild)
}

// ReplaceWith atomically replaces g's contents with other's (deep copy of
// other's state). With an open savepoint the replacement is journaled
// triple-by-triple so it can be rolled back; otherwise the index maps are
// swapped wholesale.
func (g *Graph) ReplaceWith(other *Graph) {
	snap := other.Clone()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.journalDepth > 0 {
		var olds []Triple
		g.matchLocked(Wild, Wild, Wild, func(t Triple) bool {
			olds = append(olds, t)
			return true
		})
		for _, t := range olds {
			g.removeLocked(t)
		}
		snap.matchLocked(Wild, Wild, Wild, func(t Triple) bool {
			g.addLocked(t)
			return true
		})
		if snap.blankSeq > g.blankSeq {
			g.blankSeq = snap.blankSeq
		}
		return
	}
	g.spo, g.pos, g.osp = snap.spo, snap.pos, snap.osp
	g.n = snap.n
	g.blankSeq = snap.blankSeq
	g.gen++
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return &Graph{
		spo: g.spo.clone(), pos: g.pos.clone(), osp: g.osp.clone(),
		n: g.n, blankSeq: g.blankSeq,
	}
}

// clone copies the index level by level, each map allocated at its
// final size.
func (idx index) clone() index {
	out := make(index, len(idx))
	for a, l2 := range idx {
		c2 := make(map[Term]termSet, len(l2))
		for b, set := range l2 {
			if set.many != nil {
				set.many = maps.Clone(set.many)
			}
			c2[b] = set
		}
		out[a] = c2
	}
	return out
}
