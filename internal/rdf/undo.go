package rdf

import "fmt"

// Transactional undo support. The workbench manager and the blackboard
// wrap mutations in savepoints: an O(changes) journal of add/remove
// operations that can be replayed in reverse, instead of an O(graph)
// clone per transaction. Savepoints nest with LIFO discipline (an inner
// savepoint must be released or rolled back before its enclosing one),
// which matches the manager's single-active-transaction rule with
// per-operation savepoints nested inside.

// undoOp is one journaled mutation: add=true records an insertion (undo
// is removal), add=false a deletion (undo is re-insertion). It keeps the
// triple's terms, not their IDs: a term whose last triple a savepoint
// removes leaves the dictionary, and its ID may name another term by
// the time the op is replayed.
type undoOp struct {
	add bool
	t   Triple
}

// Savepoint marks a position in the graph's undo journal, and the
// graph's generation when it opened.
type Savepoint struct {
	mark  int
	depth int
	gen   uint64
}

// Savepoint opens a new savepoint, enabling journaling if this is the
// outermost one. Every subsequent mutation is journaled until the
// savepoint is released or rolled back.
func (g *Graph) Savepoint() Savepoint {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.journalDepth++
	return Savepoint{mark: len(g.journal), depth: g.journalDepth, gen: g.gen}
}

// Gen returns the graph's generation when the savepoint opened.
func (sp Savepoint) Gen() uint64 { return sp.gen }

// Release closes a savepoint, keeping its changes. Journaling stops (and
// the journal is freed) when the outermost savepoint closes.
func (g *Graph) Release(sp Savepoint) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closeLocked(sp)
}

// Rollback undoes every mutation made since the savepoint was opened,
// then closes it. The graph's triple set is restored exactly; the
// blank-node sequence is deliberately not rewound so that node IDs
// minted inside an aborted transaction are never reused.
func (g *Graph) Rollback(sp Savepoint) {
	g.mu.Lock()
	defer g.mu.Unlock()
	// Suspend journaling while unwinding: the replayed inverse ops must
	// not themselves land in the journal.
	depth := g.journalDepth
	g.journalDepth = 0
	for len(g.journal) > sp.mark {
		op := g.journal[len(g.journal)-1]
		g.journal = g.journal[:len(g.journal)-1]
		if op.add {
			g.removeLocked(op.t)
		} else {
			g.addLocked(op.t)
		}
	}
	g.journalDepth = depth
	g.closeLocked(sp)
}

// closeLocked validates LIFO discipline and pops one savepoint level.
// Ops of a released inner savepoint stay in the journal and belong to
// the enclosing savepoint from then on.
func (g *Graph) closeLocked(sp Savepoint) {
	if g.journalDepth != sp.depth {
		panic(fmt.Sprintf("rdf: savepoint closed out of order (depth %d, open %d)", sp.depth, g.journalDepth))
	}
	g.journalDepth--
	if g.journalDepth == 0 {
		g.journal = nil
	}
}

// journalLocked records an op when journaling is active. Called from
// addIDs/removeIDs after a successful mutation, while the triple's IDs
// still name its terms; caller holds g.mu.
func (g *Graph) journalLocked(add bool, s, p, o id) {
	if g.journalDepth > 0 {
		g.journal = append(g.journal, undoOp{add: add, t: g.triple(s, p, o)})
	}
}

// ChangeOp is one mutation drawn from the undo journal: Add reports an
// insertion, otherwise a deletion. The write-ahead log (package wal)
// persists the ChangeOps of a committing transaction.
type ChangeOp struct {
	Add bool
	T   Triple
}

// ChangesSince returns a copy of the journal entries recorded since the
// savepoint was opened, in application order. The savepoint must still
// be open. Replaying the returned ops in order onto a graph holding the
// savepoint's state reproduces the current state exactly (ops are
// journaled only for effective mutations, so replay is idempotent on a
// graph already holding the final state).
func (g *Graph) ChangesSince(sp Savepoint) []ChangeOp {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.journalDepth < sp.depth {
		panic(fmt.Sprintf("rdf: ChangesSince on closed savepoint (depth %d, open %d)", sp.depth, g.journalDepth))
	}
	out := make([]ChangeOp, 0, len(g.journal)-sp.mark)
	for _, op := range g.journal[sp.mark:] {
		out = append(out, ChangeOp{Add: op.add, T: op.t})
	}
	return out
}

// SoleChanges reports whether the mutations journaled since sp opened
// are all that moved the graph since, and each satisfies keep: the
// generation advanced by exactly their number, which a rollback inside
// sp breaks (it moves the generation and journals nothing). It returns
// the generation now. The savepoint must still be open; keep runs under
// the graph's lock and must not touch the graph.
func (g *Graph) SoleChanges(sp Savepoint, keep func(ChangeOp) bool) (gen uint64, ok bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.journalDepth < sp.depth {
		panic(fmt.Sprintf("rdf: SoleChanges on closed savepoint (depth %d, open %d)", sp.depth, g.journalDepth))
	}
	ops := g.journal[sp.mark:]
	if g.gen-sp.gen != uint64(len(ops)) {
		return g.gen, false
	}
	for _, op := range ops {
		if !keep(ChangeOp{Add: op.add, T: op.t}) {
			return g.gen, false
		}
	}
	return g.gen, true
}

// ---- Snapshot / diff helpers ----

// Equal reports whether two graphs hold exactly the same triple set.
func Equal(a, b *Graph) bool {
	if a == b {
		return true
	}
	if a.Len() != b.Len() {
		return false
	}
	eq := true
	a.Visit(Wild, Wild, Wild, func(t Triple) bool {
		if !b.Has(t) {
			eq = false
			return false
		}
		return true
	})
	return eq
}

// Diff returns the triples present in g but not in base (added) and the
// triples present in base but not in g (removed), each in deterministic
// order. The invariant checkers use it to print exactly how a rollback
// failed to restore the pre-transaction state.
func (g *Graph) Diff(base *Graph) (added, removed []Triple) {
	for _, t := range g.Triples() {
		if !base.Has(t) {
			added = append(added, t)
		}
	}
	for _, t := range base.Triples() {
		if !g.Has(t) {
			removed = append(removed, t)
		}
	}
	return added, removed
}
