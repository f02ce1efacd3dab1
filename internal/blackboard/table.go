package blackboard

import (
	"slices"
	"strings"
	"sync"

	"repro/internal/rdf"
)

// Cell tables (DESIGN.md §18). Reading a mapping's cells from the
// triples costs seven index probes per cell and a sort, and a view reads
// them all. So Cells keeps what it read as the mapping's table, exact
// at one graph generation: at that generation the mapping's has-cell
// edges and its cells' annotations read exactly as the table holds
// them. A read at that generation copies the table, and GetCell reads
// its one cell there; a read at any other goes to the triples, and
// Cells keeps what it read when the generation did not move meanwhile.
// SetCell, the only writer on the refinement loop,
// carries exact tables across its own write (carry). Anything else that
// moves the graph — a rollback, a schema put, a replicated txn, Restore,
// a raw triple write — leaves every table behind, to be re-read by the
// next view.

// cellTable is one mapping's cells, exact at generation gen.
type cellTable struct {
	gen uint64
	// srcPrefix and tgtPrefix are those of the handle that read the
	// table; a handle with other prefixes reads other IDs.
	srcPrefix, tgtPrefix string
	// cells and nodes hold each cell and its node by slot, in the order
	// they joined the table, and slot finds an IRI node's slot by its
	// IRI: the nodes SetCell and GetCell name are IRIs, and a string key
	// lets GetCell look one up without allocating. order lists the slots
	// in Cells order; slots past its length joined since the last read,
	// which merges them in, so adding a cell never shifts the table.
	cells []Cell
	nodes []rdf.Term
	slot  map[string]int
	order []int
}

// compare orders slots as Cells does: by (SourceID, TargetID), then by
// node, since the IDs of mappings that share an IRI prefix can build
// one pair from two cell IRIs.
func (t *cellTable) compare(a, b int) int {
	x, y := &t.cells[a], &t.cells[b]
	if c := strings.Compare(x.SourceID, y.SourceID); c != 0 {
		return c
	}
	if c := strings.Compare(x.TargetID, y.TargetID); c != 0 {
		return c
	}
	return strings.Compare(t.nodes[a].Value(), t.nodes[b].Value())
}

// merge sorts the slots that joined since the last read into order.
func (t *cellTable) merge() {
	n := len(t.order)
	if n == len(t.cells) {
		return
	}
	fresh := make([]int, 0, len(t.cells)-n)
	for s := n; s < len(t.cells); s++ {
		fresh = append(fresh, s)
	}
	slices.SortFunc(fresh, t.compare)
	merged := make([]int, 0, len(t.cells))
	i, j := 0, 0
	for i < n && j < len(fresh) {
		if t.compare(t.order[i], fresh[j]) <= 0 {
			merged = append(merged, t.order[i])
			i++
		} else {
			merged = append(merged, fresh[j])
			j++
		}
	}
	t.order = append(append(merged, t.order[i:]...), fresh[j:]...)
}

// sorted returns a copy of the table's cells in Cells order, only the
// user-defined ones when userOnly is set.
func (t *cellTable) sorted(userOnly bool) []Cell {
	t.merge()
	if !userOnly {
		out := make([]Cell, len(t.order))
		for i, s := range t.order {
			out[i] = t.cells[s]
		}
		return out
	}
	out := make([]Cell, 0)
	for _, s := range t.order {
		if t.cells[s].UserDefined {
			out = append(out, t.cells[s])
		}
	}
	return out
}

// put writes cell, read from node c, into the table: into c's slot, or
// a new one. SetCell moves a cell's row and column only when it adds
// the mapping's has-cell edge, so a cell the table holds keeps its
// place in order.
func (t *cellTable) put(c rdf.Term, cell Cell) {
	if s, ok := t.slot[c.Value()]; ok {
		t.cells[s] = cell
		return
	}
	t.slot[c.Value()] = len(t.cells)
	t.cells = append(t.cells, cell)
	t.nodes = append(t.nodes, c)
}

// readBy reports whether m reads the IDs the table holds.
func (t *cellTable) readBy(m *Mapping) bool {
	return t.srcPrefix == m.srcPrefix && t.tgtPrefix == m.tgtPrefix
}

// cellTables holds a blackboard's tables by mapping ID. Its lock may be
// taken before the graph's, never while holding it.
type cellTables struct {
	mu sync.Mutex
	m  map[string]*cellTable
}

// exactLocked returns m's table when it is exact at the graph's
// generation, else nil. The caller holds ts.mu.
func (ts *cellTables) exactLocked(m *Mapping) *cellTable {
	t := ts.m[m.ID]
	if t == nil || !t.readBy(m) || t.gen != m.b.g.Generation() {
		return nil
	}
	return t
}

// read returns a copy of m's table (its user-defined cells when
// userOnly is set) when the table is exact at the graph's generation.
func (ts *cellTables) read(m *Mapping, userOnly bool) ([]Cell, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t := ts.exactLocked(m)
	if t == nil {
		return nil, false
	}
	return t.sorted(userOnly), true
}

// get reads the cell at m's cell IRI for (srcID, tgtID) from m's table.
// exact is false, and the table unread, unless the table is exact at
// the graph's generation.
func (ts *cellTables) get(m *Mapping, srcID, tgtID string) (cell Cell, ok, exact bool) {
	var buf [256]byte
	iri := append(append(append(append(buf[:0], m.cellPrefix...), srcID...), '|'), tgtID...)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t := ts.exactLocked(m)
	if t == nil {
		return Cell{}, false, false
	}
	s, ok := t.slot[string(iri)]
	if !ok {
		return Cell{}, false, true
	}
	return t.cells[s], true, true
}

// keep stores t as m's table, exact at gen, unless the graph moved
// since gen.
func (ts *cellTables) keep(m *Mapping, t *cellTable, gen uint64) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if m.b.g.Generation() != gen {
		return
	}
	t.gen = gen
	if ts.m == nil {
		ts.m = map[string]*cellTable{}
	}
	ts.m[m.ID] = t
}

// drop forgets the table of mapping id.
func (ts *cellTables) drop(id string) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	delete(ts.m, id)
}

// TableExact reports whether the mapping's cell table is exact at the
// graph's generation, so that GetCell, Cells and UserCells read it
// rather than the triples.
func (m *Mapping) TableExact() bool {
	ts := &m.b.tables
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.exactLocked(m) != nil
}

// readTable reads m's cells from the triples, in Cells order.
func (m *Mapping) readTable() *cellTable {
	var nodes []rdf.Term
	m.b.g.Visit(m.node, predHasCell, rdf.Wild, func(t rdf.Triple) bool {
		nodes = append(nodes, t.O)
		return true
	})
	t := &cellTable{
		srcPrefix: m.srcPrefix, tgtPrefix: m.tgtPrefix,
		cells: make([]Cell, len(nodes)), nodes: nodes,
		slot: make(map[string]int, len(nodes)),
	}
	for i, c := range nodes {
		t.cells[i] = m.readCell(c)
		if c.Kind() == rdf.IRIKind {
			t.slot[c.Value()] = i
		}
	}
	t.merge()
	return t
}

// carry brings the tables exact at sp's generation across m's write of
// cell c, the last step of SetCell inside sp. It carries them only when
// every mutation since sp opened is SetCell's own — each one a triple
// of c or m's has-cell edge to c, and together all that moved the
// graph. m's table then takes c as readCell reads it, and another
// mapping's table is carried unless it holds c too, since c's triples
// moved under it. Every table left behind at an older generation is
// dropped: the generation never comes back.
func (m *Mapping) carry(c rdf.Term, sp rdf.Savepoint) {
	ts := &m.b.tables
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if len(ts.m) == 0 {
		return
	}
	edge := rdf.Triple{S: m.node, P: predHasCell, O: c}
	gen, ok := m.b.g.SoleChanges(sp, func(op rdf.ChangeOp) bool { return op.T.S == c || op.T == edge })
	var cell Cell
	if ok {
		cell = m.readCell(c)
		ok = m.b.g.Generation() == gen
	}
	for id, t := range ts.m {
		switch {
		case t.gen >= gen:
			// Read after the write: exact already.
		case !ok || t.gen != sp.Gen():
			delete(ts.m, id)
		case id == m.ID:
			if !t.readBy(m) {
				delete(ts.m, id)
			} else {
				t.put(c, cell)
				t.gen = gen
			}
		default:
			if _, holds := t.slot[c.Value()]; holds {
				delete(ts.m, id)
			} else {
				t.gen = gen
			}
		}
	}
}
