package blackboard

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/rdf"
)

// readsMismatch compares Cells, UserCells and Len of mapping id with
// referenceCells, calling them in an order rng picks, so a table is
// sometimes built by Cells before UserCells reads it and sometimes not.
func readsMismatch(rng *rand.Rand, b *Blackboard, id string) error {
	m, err := b.GetMapping(id)
	if err != nil {
		return err
	}
	want := referenceCells(b, id)
	var wantUser []Cell
	for _, c := range want {
		if c.UserDefined {
			wantUser = append(wantUser, c)
		}
	}
	for _, k := range rng.Perm(3) {
		switch k {
		case 0:
			if got := m.Cells(); !slices.Equal(got, want) {
				return fmt.Errorf("%s Cells =\n%+v\nwant\n%+v", id, got, want)
			}
		case 1:
			if got := m.UserCells(); !slices.Equal(got, wantUser) {
				return fmt.Errorf("%s UserCells =\n%+v\nwant\n%+v", id, got, wantUser)
			}
		case 2:
			if got := m.Len(); got != len(want) {
				return fmt.Errorf("%s Len = %d, want %d", id, got, len(want))
			}
		}
	}
	return nil
}

// getCellMismatch compares GetCell of every pair in srcs × tgts on
// mapping id with referenceCell, ok included, and reports whether the
// mapping's table was exact, so that GetCell read it.
func getCellMismatch(b *Blackboard, id string, srcs, tgts []string) (exact bool, err error) {
	m, err := b.GetMapping(id)
	if err != nil {
		return false, err
	}
	exact = m.TableExact()
	for _, src := range srcs {
		for _, tgt := range tgts {
			want, wantOK := referenceCell(b, id, src, tgt)
			if got, ok := m.GetCell(src, tgt); ok != wantOK || got != want {
				return exact, fmt.Errorf("%s GetCell(%s, %s) = %+v, %v with exact table %v; want %+v, %v",
					id, src, tgt, got, ok, exact, want, wantOK)
			}
		}
	}
	return exact, nil
}

func checkReads(t *testing.T, rng *rand.Rand, b *Blackboard, id, when string) {
	t.Helper()
	if err := readsMismatch(rng, b, id); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// TestCellTablesMatchReference runs thousands of random steps on three
// mappings and compares every mapping's Cells, UserCells and Len with
// referenceCells after each, and GetCell of every pair with
// referenceCell, before the views rebuild a stale table and after. The
// mapping IDs share prefixes (one extends m1's cell IRI prefix) and the
// element IDs include "|" and "/cell/", so two mappings can own one cell
// node and one mapping can hold two cells of one pair. The steps:
// SetCell on new and existing cells, SetCell faulted mid-write, nested
// savepoints rolled back or released (with views inside), raw triple
// writes, DeleteMapping and NewMapping, and Restore of an earlier
// snapshot.
func TestCellTablesMatchReference(t *testing.T) {
	defer chaos.Reset()
	b := boardWithSchemata(t)
	g := b.Graph()
	ids := []string{"m1", "m10", "m1/cell/x"}
	for _, id := range ids {
		if _, err := b.NewMapping(id, "purchaseOrder", "shippingInfo"); err != nil {
			t.Fatal(err)
		}
	}
	srcs := []string{"purchaseOrder/purchaseOrder/shipTo", "purchaseOrder/purchaseOrder/shipTo/firstName",
		"purchaseOrder/purchaseOrder/shipTo/subtotal", "x|y", "x", "x/cell/x", "x/cell/x|y"}
	tgts := []string{"shippingInfo/shippingInfo/name", "shippingInfo/shippingInfo/total", "y", "y|shippingInfo/shippingInfo/name"}
	rng := rand.New(rand.NewSource(29))
	live := func() []string { return b.Mappings() }
	pick := func() *Mapping {
		ls := live()
		if len(ls) == 0 {
			return nil
		}
		m, err := b.GetMapping(ls[rng.Intn(len(ls))])
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	setCell := func(m *Mapping) error {
		src, tgt := srcs[rng.Intn(len(srcs))], tgts[rng.Intn(len(tgts))]
		if rng.Intn(3) == 0 {
			return m.SetCell(src, tgt, float64(2*rng.Intn(2)-1), true, "engineer")
		}
		return m.SetCell(src, tgt, rng.Float64(), false, "harmony")
	}
	// cellNode returns a random cell node of a random live mapping.
	cellNode := func() (rdf.Term, rdf.Term) {
		m := pick()
		if m == nil {
			return rdf.Term{}, rdf.Term{}
		}
		cs := g.Objects(m.node, predHasCell)
		if len(cs) == 0 {
			return m.node, rdf.Term{}
		}
		return m.node, cs[rng.Intn(len(cs))]
	}
	faultedSet := func(m *Mapping) {
		kind := chaos.FaultError
		if rng.Intn(2) == 0 {
			kind = chaos.FaultPanic
		}
		chaos.Enable(SiteSetCell, chaos.Rule{Kind: kind, Every: 1, Limit: 1})
		defer chaos.Reset()
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(*chaos.Fault); !ok {
					panic(r)
				}
			}
		}()
		if err := setCell(m); !errors.Is(err, chaos.ErrInjected) {
			t.Fatalf("faulted SetCell = %v", err)
		}
	}
	rawWrite := func() {
		mnode, c := cellNode()
		switch {
		case c.IsZero():
		case rng.Intn(4) == 0:
			g.Remove(rdf.Triple{S: mnode, P: predHasCell, O: c})
		case rng.Intn(3) == 0:
			// An edge to another mapping's cell, or back to an orphaned
			// one.
			if m := pick(); m != nil {
				g.Add(rdf.Triple{S: m.node, P: predHasCell, O: c})
			}
		case rng.Intn(2) == 0:
			g.SetOne(c, predUserDefined, rdf.BoolLiteral(rng.Intn(2) == 0))
		default:
			g.SetOne(c, predConfidence, rdf.FloatLiteral(rng.Float64()))
		}
	}
	// write runs one SetCell (one in three faulted) or raw write.
	write := func() {
		m := pick()
		switch k := rng.Intn(6); {
		case m == nil:
		case k < 3:
			if err := setCell(m); err != nil {
				t.Fatal(err)
			}
		case k < 4:
			faultedSet(m)
		default:
			rawWrite()
		}
	}
	// checkGetCell compares GetCell on every live mapping and counts the
	// checks that read an exact table.
	var exactReads, graphReads int
	checkGetCell := func(when string) {
		t.Helper()
		for _, id := range live() {
			exact, err := getCellMismatch(b, id, srcs, tgts)
			if err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			if exact {
				exactReads++
			} else {
				graphReads++
			}
		}
	}
	var snaps [][]byte
	const steps = 4000
	for step := 0; step < steps; step++ {
		when := ""
		switch k := rng.Intn(20); {
		case k < 9:
			when = "set"
			if m := pick(); m != nil {
				if err := setCell(m); err != nil {
					t.Fatal(err)
				}
			}
		case k < 11:
			when = "faulted set"
			if m := pick(); m != nil {
				faultedSet(m)
			}
		case k < 15:
			// A transaction: writes, maybe a nested savepoint of more
			// writes with views inside, then rollback or release. The
			// writes include faulted SetCells and raw writes, so tables
			// go stale and rollbacks run at every depth.
			when = "savepoints"
			outer := g.Savepoint()
			for n := rng.Intn(4); n > 0; n-- {
				write()
			}
			if rng.Intn(2) == 0 {
				inner := g.Savepoint()
				for n := 1 + rng.Intn(3); n > 0; n-- {
					write()
				}
				for _, id := range live() {
					checkReads(t, rng, b, id, fmt.Sprintf("step %d: inside nested savepoint", step))
				}
				if rng.Intn(2) == 0 {
					g.Rollback(inner)
				} else {
					g.Release(inner)
				}
				for n := rng.Intn(3); n > 0; n-- {
					write()
				}
			}
			if rng.Intn(2) == 0 {
				for _, id := range live() {
					checkReads(t, rng, b, id, fmt.Sprintf("step %d: inside savepoint", step))
				}
			}
			if rng.Intn(2) == 0 {
				g.Rollback(outer)
			} else {
				g.Release(outer)
			}
		case k < 17:
			when = "raw write"
			rawWrite()
		case k < 18:
			when = "delete or create"
			if ls := live(); len(ls) == len(ids) || len(ls) > 0 && rng.Intn(2) == 0 {
				if err := b.DeleteMapping(ls[rng.Intn(len(ls))]); err != nil {
					t.Fatal(err)
				}
			} else {
				for _, id := range ids {
					if !slices.Contains(ls, id) {
						if _, err := b.NewMapping(id, "purchaseOrder", "shippingInfo"); err != nil {
							t.Fatal(err)
						}
						break
					}
				}
			}
		default:
			when = "restore"
			var buf bytes.Buffer
			if err := b.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, buf.Bytes())
			if err := b.Restore(bytes.NewReader(snaps[rng.Intn(len(snaps))])); err != nil {
				t.Fatal(err)
			}
		}
		checkGetCell(fmt.Sprintf("step %d (%s), before the views", step, when))
		for _, id := range live() {
			checkReads(t, rng, b, id, fmt.Sprintf("step %d (%s)", step, when))
		}
		checkGetCell(fmt.Sprintf("step %d (%s), after the views", step, when))
	}
	if exactReads == 0 || graphReads == 0 {
		t.Errorf("GetCell checks: %d read an exact table, %d the graph", exactReads, graphReads)
	}
}

// TestMappingLen checks that Len equals len(Cells()) across writes, a
// rollback and DeleteMapping.
func TestMappingLen(t *testing.T) {
	b := boardWithSchemata(t)
	m, _ := b.NewMapping("m", "purchaseOrder", "shippingInfo")
	check := func(when string, want int) {
		t.Helper()
		if got, cells := m.Len(), len(m.Cells()); got != want || cells != want {
			t.Fatalf("%s: Len = %d, len(Cells()) = %d, want %d", when, got, cells, want)
		}
	}
	check("empty", 0)
	m.SetCell("purchaseOrder/purchaseOrder/shipTo", "shippingInfo/shippingInfo/name", 0.5, false, "harmony")
	m.SetCell("purchaseOrder/purchaseOrder/shipTo", "shippingInfo/shippingInfo/total", 0.4, false, "harmony")
	m.SetCell("purchaseOrder/purchaseOrder/shipTo", "shippingInfo/shippingInfo/name", 1, true, "engineer")
	check("after writes", 2)
	sp := b.Graph().Savepoint()
	m.SetCell("purchaseOrder/purchaseOrder/shipTo/subtotal", "shippingInfo/shippingInfo/total", 0.7, false, "harmony")
	check("inside a savepoint", 3)
	b.Graph().Rollback(sp)
	check("after a rollback", 2)
	if err := b.DeleteMapping("m"); err != nil {
		t.Fatal(err)
	}
	check("after DeleteMapping", 0)
}

// TestUserCellsFollowHasCellEdges: a has-cell edge from m10 to a
// decided cell node of m1, whose IRI m10's prefix does not admit, makes
// the cell m10's in UserCells as it does in Cells, with and without an
// exact cell table.
func TestUserCellsFollowHasCellEdges(t *testing.T) {
	b := boardWithSchemata(t)
	m1, _ := b.NewMapping("m1", "purchaseOrder", "shippingInfo")
	m10, _ := b.NewMapping("m10", "purchaseOrder", "shippingInfo")
	if err := m1.SetCell("purchaseOrder/purchaseOrder/shipTo", "shippingInfo/shippingInfo/name", 1, true, "engineer"); err != nil {
		t.Fatal(err)
	}
	if err := m10.SetCell("purchaseOrder/purchaseOrder/shipTo", "shippingInfo/shippingInfo/total", 0.4, false, "harmony"); err != nil {
		t.Fatal(err)
	}
	c := b.Graph().Objects(m1.node, predHasCell)[0]
	b.Graph().Add(rdf.Triple{S: m10.node, P: predHasCell, O: c})
	want := []Cell{referenceCells(b, "m1")[0]}
	if got := m10.UserCells(); !slices.Equal(got, want) {
		t.Fatalf("UserCells without a table = %+v, want %+v", got, want)
	}
	if n := len(m10.Cells()); n != 2 {
		t.Fatalf("m10 has %d cells, want 2", n)
	}
	if got := m10.UserCells(); !slices.Equal(got, want) {
		t.Fatalf("UserCells from the table = %+v, want %+v", got, want)
	}
}

// TestCellTablesConcurrentViews runs views (Cells, UserCells, Len)
// against serialized decides and publishes — some publishes roll back,
// as a failed transaction does — on two mappings. Every view must be
// sorted, and whenever the writers are quiet the views must equal
// referenceCells. Run it under -race.
func TestCellTablesConcurrentViews(t *testing.T) {
	b := boardWithSchemata(t)
	ids := []string{"m1", "m2"}
	for _, id := range ids {
		if _, err := b.NewMapping(id, "purchaseOrder", "shippingInfo"); err != nil {
			t.Fatal(err)
		}
	}
	srcs := []string{"purchaseOrder/purchaseOrder/shipTo", "purchaseOrder/purchaseOrder/shipTo/firstName",
		"purchaseOrder/purchaseOrder/shipTo/lastName", "purchaseOrder/purchaseOrder/shipTo/subtotal"}
	tgts := []string{"shippingInfo/shippingInfo/name", "shippingInfo/shippingInfo/total"}
	var txnMu sync.Mutex // the workspace's TxnMu: writers are serialized
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 300; op++ {
				m, _ := b.GetMapping(ids[rng.Intn(len(ids))])
				txnMu.Lock()
				sp := b.Graph().Savepoint()
				if rng.Intn(2) == 0 {
					_ = m.SetCell(srcs[rng.Intn(len(srcs))], tgts[rng.Intn(len(tgts))], float64(2*rng.Intn(2)-1), true, "engineer")
				} else {
					for n := 1 + rng.Intn(6); n > 0; n-- {
						_ = m.SetCell(srcs[rng.Intn(len(srcs))], tgts[rng.Intn(len(tgts))], rng.Float64(), false, "harmony")
					}
				}
				if rng.Intn(5) == 0 {
					b.Graph().Rollback(sp)
				} else {
					b.Graph().Release(sp)
				}
				txnMu.Unlock()
			}
		}(int64(w + 1))
	}
	var readers sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			byPair := func(x, y Cell) int {
				if c := strings.Compare(x.SourceID, y.SourceID); c != 0 {
					return c
				}
				return strings.Compare(x.TargetID, y.TargetID)
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				m, _ := b.GetMapping(ids[rng.Intn(len(ids))])
				for _, cells := range [][]Cell{m.Cells(), m.UserCells()} {
					if !slices.IsSortedFunc(cells, byPair) {
						t.Errorf("view not sorted: %+v", cells)
						return
					}
				}
				_ = m.Len()
				if rng.Intn(10) == 0 {
					txnMu.Lock()
					err := readsMismatch(rng, b, m.ID)
					txnMu.Unlock()
					if err != nil {
						t.Errorf("writers quiet: %v", err)
						return
					}
				}
			}
		}(int64(r + 10))
	}
	wg.Wait()
	close(done)
	readers.Wait()
	rng := rand.New(rand.NewSource(99))
	for _, id := range ids {
		checkReads(t, rng, b, id, "after the run")
	}
}

// TestCellTableServesOnlyItsPrefixes: a handle opened before its
// mapping was re-created over other schemas reads other IDs, and the
// table its read keeps must not serve a fresh handle.
func TestCellTableServesOnlyItsPrefixes(t *testing.T) {
	b := boardWithSchemata(t)
	old, _ := b.NewMapping("m", "purchaseOrder", "shippingInfo")
	if err := b.DeleteMapping("m"); err != nil {
		t.Fatal(err)
	}
	m, _ := b.NewMapping("m", "shippingInfo", "purchaseOrder")
	if err := m.SetCell("shippingInfo/shippingInfo/name", "purchaseOrder/purchaseOrder/shipTo", 0.5, false, "harmony"); err != nil {
		t.Fatal(err)
	}
	if got := old.Cells(); len(got) != 1 || got[0].SourceID == "shippingInfo/shippingInfo/name" {
		t.Fatalf("the stale handle reads %+v", got)
	}
	rng := rand.New(rand.NewSource(1))
	checkReads(t, rng, b, "m", "after a stale handle's read")
}
