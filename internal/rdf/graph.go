package rdf

import (
	"maps"
	"slices"
	"sort"
	"sync"
)

// Graph is an in-memory RDF graph with three-way indexing (SPO, POS, OSP)
// so that every triple pattern with at least one bound position is
// answered from an index.
//
// The graph is dictionary-encoded: each distinct term is stored once, in
// the dictionary, under a small integer ID, and the indexes hold IDs
// only. A term leaves the dictionary with the last triple that names
// it, and its ID is reused.
//
// Graph is safe for concurrent use. The workbench manager wraps mutations
// in transactions (see Txn), but the graph itself is also independently
// usable.
type Graph struct {
	mu sync.RWMutex
	dict
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
	return &Graph{dict: newDict()}
}

// id names a term in a graph's dictionary. ID 0 names no term and is
// never stored in an index, so a lookup of a term the graph has never
// seen reads as 0 and finds nothing.
type id uint32

// dict is a graph's term dictionary. ids and terms map each live term
// to its ID and back; refs counts the triple positions each ID fills.
// An ID whose count falls to zero leaves the dictionary and goes on
// free, from which intern reuses it. terms[0] is the zero Term, so
// reading ID 0 reads "no term".
type dict struct {
	ids   map[Term]id
	terms []Term
	refs  []uint32
	free  []id
}

func newDict() dict {
	return dict{ids: map[Term]id{}, terms: []Term{{}}, refs: []uint32{0}}
}

// lookup returns t's ID, or 0 if t is not in the dictionary. It never
// interns, so every read can run under the read lock.
func (d *dict) lookup(t Term) id { return d.ids[t] }

// intern returns t's ID, adding t with no references when absent. The
// caller must hold a reference to the ID before anything can release
// one (see hold).
func (d *dict) intern(t Term) id {
	if x, ok := d.ids[t]; ok {
		return x
	}
	var x id
	if n := len(d.free); n > 0 {
		x = d.free[n-1]
		d.free = d.free[:n-1]
		d.terms[x] = t
	} else {
		x = id(len(d.terms))
		d.terms = append(d.terms, t)
		d.refs = append(d.refs, 0)
	}
	d.ids[t] = x
	return x
}

func (d *dict) hold(x id) { d.refs[x]++ }

// release drops one reference, freeing the ID with its last.
func (d *dict) release(x id) {
	if d.refs[x]--; d.refs[x] == 0 {
		delete(d.ids, d.terms[x])
		d.terms[x] = Term{}
		d.free = append(d.free, x)
	}
}

// triple returns the terms an ID triple names.
func (d *dict) triple(s, p, o id) Triple {
	return Triple{d.terms[s], d.terms[p], d.terms[o]}
}

func (d *dict) clone() dict {
	return dict{
		ids: maps.Clone(d.ids), terms: slices.Clone(d.terms),
		refs: slices.Clone(d.refs), free: slices.Clone(d.free),
	}
}

// index is one of the graph's three-level triple indexes: first ID →
// second ID → the set of third IDs. SPO keys subject, predicate,
// object; POS predicate, object, subject; OSP object, subject, predicate.
// The first level is a slice indexed by ID, nil where the ID keys
// nothing; an emptied second level is set back to nil.
type index []map[id]idSet

// idSet is an index's innermost level: the non-empty set of IDs
// completing a (first, second) key. Almost every (subject, predicate)
// pair of a blackboard holds one object — the functional annotations —
// so a one-member set keeps its member inline in one, with many nil,
// and costs nothing beyond its slot in the parent map. From the second
// member on, many holds every member and one is unused. A set shrinking
// back to one member moves it inline again; an emptied set is deleted
// from its parent, so a zero idSet only ever means "absent", and its
// first member reads as ID 0, no term.
type idSet struct {
	one  id
	many map[id]struct{}
}

func (s idSet) has(x id) bool {
	if s.many == nil {
		return s.one == x
	}
	_, ok := s.many[x]
	return ok
}

// first returns one member: the inline one, or an arbitrary map key.
func (s idSet) first() id {
	if s.many == nil {
		return s.one
	}
	for x := range s.many {
		return x
	}
	return 0
}

// each calls fn on every member until fn returns false, and reports
// whether it visited them all.
func (s idSet) each(fn func(id) bool) bool {
	if s.many == nil {
		return fn(s.one)
	}
	for x := range s.many {
		if !fn(x) {
			return false
		}
	}
	return true
}

// len returns the number of members.
func (s idSet) len() int {
	if s.many == nil {
		return 1
	}
	return len(s.many)
}

// appendTo appends every member to dst.
func (s idSet) appendTo(dst []id) []id {
	if s.many == nil {
		return append(dst, s.one)
	}
	for x := range s.many {
		dst = append(dst, x)
	}
	return dst
}

// at returns the second level under a, nil when a keys nothing.
func (idx index) at(a id) map[id]idSet {
	if int(a) < len(idx) {
		return idx[a]
	}
	return nil
}

// add inserts (a, b, c), reporting whether the entry was new.
func (idx *index) add(a, b, c id) bool {
	for int(a) >= len(*idx) {
		*idx = append(*idx, nil)
	}
	l2 := (*idx)[a]
	if l2 == nil {
		l2 = make(map[id]idSet)
		(*idx)[a] = l2
	}
	set, ok := l2[b]
	switch {
	case !ok:
		l2[b] = idSet{one: c}
	case set.many == nil:
		if set.one == c {
			return false
		}
		l2[b] = idSet{many: map[id]struct{}{set.one: {}, c: {}}}
	default:
		if _, dup := set.many[c]; dup {
			return false
		}
		set.many[c] = struct{}{}
	}
	return true
}

// remove deletes (a, b, c), reporting whether the entry was present.
func (idx index) remove(a, b, c id) bool {
	l2 := idx.at(a)
	set, ok := l2[b]
	if !ok || !set.has(c) {
		return false
	}
	if set.many == nil {
		delete(l2, b)
		if len(l2) == 0 {
			idx[a] = nil
		}
		return true
	}
	delete(set.many, c)
	if len(set.many) == 1 {
		l2[b] = idSet{one: set.first()}
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

// addLocked interns t's terms and inserts it. A term interned here is
// new, so the triple is too, and addIDs takes its references at once.
func (g *Graph) addLocked(t Triple) bool {
	return g.addIDs(g.intern(t.S), g.intern(t.P), g.intern(t.O))
}

func (g *Graph) addIDs(s, p, o id) bool {
	if !g.spo.add(s, p, o) {
		return false
	}
	g.pos.add(p, o, s)
	g.osp.add(o, s, p)
	g.hold(s)
	g.hold(p)
	g.hold(o)
	g.n++
	g.gen++
	g.journalLocked(true, s, p, o)
	return true
}

// Remove deletes a triple. It reports whether the triple was present.
func (g *Graph) Remove(t Triple) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.removeLocked(t)
}

func (g *Graph) removeLocked(t Triple) bool {
	return g.removeIDs(g.lookup(t.S), g.lookup(t.P), g.lookup(t.O))
}

// removeIDs deletes (s, p, o), journals it, and then releases its
// references.
func (g *Graph) removeIDs(s, p, o id) bool {
	if !g.spo.remove(s, p, o) {
		return false
	}
	g.pos.remove(p, o, s)
	g.osp.remove(o, s, p)
	g.n--
	g.gen++
	g.journalLocked(false, s, p, o)
	g.release(s)
	g.release(p)
	g.release(o)
	return true
}

// Has reports whether the triple is present.
func (g *Graph) Has(t Triple) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	set, ok := g.spo.at(g.lookup(t.S))[g.lookup(t.P)]
	return ok && set.has(g.lookup(t.O))
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
	g.matchIDs(s, p, o, func(si, pi, oi id) bool { return fn(g.triple(si, pi, oi)) })
}

// matchIDs is matchLocked on IDs: it looks each bound term up once,
// and a bound term the dictionary lacks (ID 0) matches nothing.
func (g *Graph) matchIDs(s, p, o Term, fn func(s, p, o id) bool) {
	sw, pw, ow := s.IsZero(), p.IsZero(), o.IsZero()
	var si, pi, oi id
	if !sw {
		si = g.lookup(s)
	}
	if !pw {
		pi = g.lookup(p)
	}
	if !ow {
		oi = g.lookup(o)
	}
	switch {
	case !sw && !pw && !ow:
		if set, ok := g.spo.at(si)[pi]; ok && set.has(oi) {
			fn(si, pi, oi)
		}
	case !sw && !pw: // S P ?
		if set, ok := g.spo.at(si)[pi]; ok {
			set.each(func(obj id) bool { return fn(si, pi, obj) })
		}
	case !sw && !ow: // S ? O
		if set, ok := g.osp.at(oi)[si]; ok {
			set.each(func(pred id) bool { return fn(si, pred, oi) })
		}
	case !pw && !ow: // ? P O
		if set, ok := g.pos.at(pi)[oi]; ok {
			set.each(func(sub id) bool { return fn(sub, pi, oi) })
		}
	case !sw: // S ? ?
		for pred, set := range g.spo.at(si) {
			if !set.each(func(obj id) bool { return fn(si, pred, obj) }) {
				return
			}
		}
	case !pw: // ? P ?
		for obj, set := range g.pos.at(pi) {
			if !set.each(func(sub id) bool { return fn(sub, pi, obj) }) {
				return
			}
		}
	case !ow: // ? ? O
		for sub, set := range g.osp.at(oi) {
			if !set.each(func(pred id) bool { return fn(sub, pred, oi) }) {
				return
			}
		}
	default: // ? ? ?
		for sub, l2 := range g.spo {
			for pred, set := range l2 {
				if !set.each(func(obj id) bool { return fn(id(sub), pred, obj) }) {
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
	return g.terms[g.spo.at(g.lookup(s))[g.lookup(p)].first()]
}

// Ones reads several functional annotations of one subject at the cost
// of one: out[i] becomes One(s, ps[i]), with s looked up once under one
// read lock. out must be at least as long as ps.
func (g *Graph) Ones(s Term, ps, out []Term) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	l2 := g.spo.at(g.lookup(s))
	for i, p := range ps {
		out[i] = g.terms[l2[g.lookup(p)].first()]
	}
}

// CountObjects returns the number of objects of (s, p, ?) without
// reading them.
func (g *Graph) CountObjects(s, p Term) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if set, ok := g.spo.at(g.lookup(s))[g.lookup(p)]; ok {
		return set.len()
	}
	return 0
}

// Objects returns all objects of (s, p, ?) in deterministic order.
func (g *Graph) Objects(s, p Term) []Term {
	g.mu.RLock()
	defer g.mu.RUnlock()
	set, ok := g.spo.at(g.lookup(s))[g.lookup(p)]
	return g.sortedTerms(set, ok)
}

// Subjects returns all subjects of (?, p, o) in deterministic order.
func (g *Graph) Subjects(p, o Term) []Term {
	g.mu.RLock()
	defer g.mu.RUnlock()
	set, ok := g.pos.at(g.lookup(p))[g.lookup(o)]
	return g.sortedTerms(set, ok)
}

// sortedTerms returns the terms of set, present when ok, sorted.
func (g *Graph) sortedTerms(set idSet, ok bool) []Term {
	if !ok {
		return nil
	}
	out := make([]Term, 0, set.len())
	set.each(func(x id) bool {
		out = append(out, g.terms[x])
		return true
	})
	slices.SortFunc(out, compareTerm)
	return out
}

// SetOne makes o the unique object of (s, p, ·). It is the primitive
// behind functional annotations such as confidence-score. It removes
// only the objects other than o and adds o only when absent, so setting
// the value a pair already holds changes, and journals, nothing.
func (g *Graph) SetOne(s, p, o Term) {
	g.mu.Lock()
	defer g.mu.Unlock()
	si, pi, oi := g.intern(s), g.intern(p), g.intern(o)
	// Hold the three IDs while the old objects go: removing the last
	// triple naming s, p or o would otherwise free an ID still in use.
	g.hold(si)
	g.hold(pi)
	g.hold(oi)
	if set, ok := g.spo.at(si)[pi]; ok {
		// Copy the members first: removeIDs mutates the set.
		var buf [1]id
		for _, old := range set.appendTo(buf[:0]) {
			if old != oi {
				g.removeIDs(si, pi, old)
			}
		}
	}
	g.addIDs(si, pi, oi)
	g.release(si)
	g.release(pi)
	g.release(oi)
}

// RemoveMatching deletes every triple matching the pattern and returns the
// deleted triples (useful for transaction undo logs).
func (g *Graph) RemoveMatching(s, p, o Term) []Triple {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.removeMatchingLocked(s, p, o)
}

func (g *Graph) removeMatchingLocked(s, p, o Term) []Triple {
	var victims [][3]id
	g.matchIDs(s, p, o, func(s, p, o id) bool {
		victims = append(victims, [3]id{s, p, o})
		return true
	})
	out := make([]Triple, len(victims))
	for i, v := range victims {
		// A victim's IDs stay live until its own removal: the triple
		// holds them.
		out[i] = g.triple(v[0], v[1], v[2])
		g.removeIDs(v[0], v[1], v[2])
	}
	return out
}

// Triples returns every triple in deterministic order.
func (g *Graph) Triples() []Triple {
	return g.MatchSorted(Wild, Wild, Wild)
}

// ReplaceWith atomically replaces g's contents with other's (deep copy of
// other's state). With an open savepoint the replacement is journaled
// triple-by-triple so it can be rolled back; otherwise the dictionary
// and index are swapped wholesale.
func (g *Graph) ReplaceWith(other *Graph) {
	snap := other.Clone()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.journalDepth > 0 {
		g.removeMatchingLocked(Wild, Wild, Wild)
		snap.matchLocked(Wild, Wild, Wild, func(t Triple) bool {
			g.addLocked(t)
			return true
		})
		if snap.blankSeq > g.blankSeq {
			g.blankSeq = snap.blankSeq
		}
		return
	}
	g.dict = snap.dict
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
		dict: g.dict.clone(),
		spo:  g.spo.clone(), pos: g.pos.clone(), osp: g.osp.clone(),
		n: g.n, blankSeq: g.blankSeq,
	}
}

// clone copies the index level by level, each map allocated at its
// final size.
func (idx index) clone() index {
	out := make(index, len(idx))
	for a, l2 := range idx {
		if l2 == nil {
			continue
		}
		c2 := make(map[id]idSet, len(l2))
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
