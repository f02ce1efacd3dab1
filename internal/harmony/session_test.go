package harmony

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/blackboard"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/wbmgr"
)

// sessionBoard stores the purchase-order pair on a fresh blackboard and
// maps it.
func sessionBoard(t *testing.T) (*blackboard.Blackboard, *blackboard.Mapping) {
	t.Helper()
	bb := blackboard.New()
	bb.SetMetrics(obs.NewRegistry())
	for _, s := range []*model.Schema{poSource(), siTarget()} {
		if _, err := bb.PutSchema(s); err != nil {
			t.Fatal(err)
		}
	}
	mp, err := bb.NewMapping("m", "purchaseOrder", "shippingInfo")
	if err != nil {
		t.Fatal(err)
	}
	return bb, mp
}

// renamedSource is poSource with one element renamed, its IDs derived
// from the names as a freshly parsed file carries them.
func renamedSource(from, to string) *model.Schema { return renamed(poSource(), from, to) }

// renamed copies in with one element renamed, its IDs derived from the
// names as a freshly parsed file carries them.
func renamed(in *model.Schema, from, to string) *model.Schema {
	out := model.NewSchema(in.Name, in.Format)
	var walk func(src, parent *model.Element)
	walk = func(src, parent *model.Element) {
		for _, c := range src.Children() {
			name := c.Name
			if name == from {
				name = to
			}
			n := out.AddElement(parent, name, c.Kind, c.EdgeFromParent)
			n.DataType, n.Doc = c.DataType, c.Doc
			walk(c, n)
		}
	}
	walk(in.Root(), nil)
	return out
}

func newTestSession() *Session {
	return NewSession(Options{Flooding: true, Metrics: obs.NewRegistry()})
}

// publishRun publishes a session result in one transaction on mgr and
// returns the cells it wrote.
func publishRun(t *testing.T, mgr *wbmgr.Manager, mp *blackboard.Mapping, res *Result) []blackboard.Cell {
	t.Helper()
	var cells []blackboard.Cell
	err := mgr.Do(context.Background(), "harmony", func(txn *wbmgr.Txn) error {
		var err error
		cells, err = res.Publish(txn, mp)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// publishChecked publishes res like publishRun and checks the publish
// against the mapping's cells before it and a cold run after it. It
// must write exactly the links whose cell was absent or held another
// machine score. Afterwards each cold link's cell holds the cold score
// bit for bit, or a decision it left as it was, and every other cell
// on the schemas' current elements scores below the threshold cold and
// was left as it was.
func publishChecked(t *testing.T, mgr *wbmgr.Manager, mp *blackboard.Mapping, res *Result, threshold float64) []blackboard.Cell {
	t.Helper()
	before := map[pairKey]blackboard.Cell{}
	for _, c := range mp.Cells() {
		before[pairKey{c.SourceID, c.TargetID}] = c
	}
	written := publishRun(t, mgr, mp, res)

	bb := mgr.Blackboard()
	src, err := bb.GetSchema(mp.SourceSchema)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := bb.GetSchema(mp.TargetSchema)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewEngine(src, tgt, Options{Flooding: true, Metrics: obs.NewRegistry()})
	cold.LoadFrom(mp)
	links := map[pairKey]float64{}
	want := map[pairKey]bool{}
	for _, l := range cold.Matrix().Above(threshold) {
		k := pairKey{l.Source.ID, l.Target.ID}
		links[k] = l.Confidence
		if c, ok := before[k]; !ok || !c.UserDefined && (c.SetBy != "harmony" || c.Confidence != l.Confidence) {
			want[k] = true
		}
	}
	for _, c := range written {
		k := pairKey{c.SourceID, c.TargetID}
		if !want[k] || c.UserDefined || c.SetBy != "harmony" || math.Float64bits(c.Confidence) != math.Float64bits(links[k]) {
			t.Errorf("publish wrote %+v; want written %v, cold link %v", c, want[k], links[k])
		}
		delete(want, k)
	}
	for k := range want {
		t.Errorf("publish did not write %s → %s (cold %v, before %+v)", k.src, k.tgt, links[k], before[k])
	}

	live := func(sch *model.Schema, id string) bool { return sch.Element(id) != nil }
	for _, c := range mp.Cells() {
		k := pairKey{c.SourceID, c.TargetID}
		if !live(src, k.src) || !live(tgt, k.tgt) {
			continue
		}
		conf, isLink := links[k]
		switch {
		case isLink && !c.UserDefined:
			if math.Float64bits(c.Confidence) != math.Float64bits(conf) {
				t.Errorf("cell %s → %s = %v; cold link %v", k.src, k.tgt, c.Confidence, conf)
			}
		case c != before[k]:
			t.Errorf("publish rewrote %+v (before %+v, a link %v)", c, before[k], isLink)
		case !isLink && cold.Matrix().Get(k.src, k.tgt) >= threshold:
			t.Errorf("cell %s → %s is no link but scores %v cold", k.src, k.tgt, cold.Matrix().Get(k.src, k.tgt))
		}
		delete(links, k)
	}
	for k, conf := range links {
		t.Errorf("cold link %s → %s (%v) has no cell", k.src, k.tgt, conf)
	}
	return written
}

// assertColdEqual checks the session's matrix bit for bit against a
// cold engine over the blackboard's schemas with the mapping's
// decisions.
func assertColdEqual(t *testing.T, s *Session, bb *blackboard.Blackboard, mp *blackboard.Mapping) {
	t.Helper()
	src, err := bb.GetSchema(mp.SourceSchema)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := bb.GetSchema(mp.TargetSchema)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewEngine(src, tgt, Options{Flooding: true, Metrics: obs.NewRegistry()})
	cold.LoadFrom(mp)
	want, got := cold.Matrix(), s.Engine().Matrix()
	for _, se := range want.Sources {
		for _, te := range want.Targets {
			if w, g := want.Get(se.ID, te.ID), got.Get(se.ID, te.ID); math.Float64bits(w) != math.Float64bits(g) {
				t.Errorf("cell %s → %s = %v; cold run %v", se.ID, te.ID, g, w)
			}
		}
	}
}

func TestSessionUnpinsRemovedDecision(t *testing.T) {
	bb, mp := sessionBoard(t)
	s := newTestSession()
	if err := mp.SetCell(firstID, nameID, 1, true, "analyst"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Rematch(context.Background(), bb, mp, Dirty{}, 0.2); err != nil {
		t.Fatal(err)
	}
	if !s.Engine().IsUserDefined(firstID, nameID) {
		t.Fatal("decision not pinned")
	}
	// The decision goes away: a machine cell replaces it.
	if err := mp.SetCell(firstID, nameID, 0.3, false, "harmony"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Rematch(context.Background(), bb, mp, Dirty{}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != RematchPins {
		t.Errorf("mode = %q; want %q", res.Mode, RematchPins)
	}
	if s.Engine().IsUserDefined(firstID, nameID) {
		t.Error("removed decision still pinned")
	}
	assertColdEqual(t, s, bb, mp)
}

func TestSessionRetriesPinsAfterSchemaSwap(t *testing.T) {
	bb, mp := sessionBoard(t)
	s := newTestSession()
	// A decision on an element only the next source version carries.
	givenID := shipToID + "/givenName"
	if err := mp.SetCell(givenID, nameID, 1, true, "analyst"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Rematch(context.Background(), bb, mp, Dirty{}, 0.2); err != nil {
		t.Fatal(err)
	}
	if s.Engine().IsUserDefined(givenID, nameID) {
		t.Fatal("decision on an unknown element pinned")
	}
	if _, err := bb.PutSchema(renamedSource("firstName", "givenName")); err != nil {
		t.Fatal(err)
	}
	res, err := s.Rematch(context.Background(), bb, mp, Dirty{}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode == RematchPins || res.Mode == RematchCold {
		t.Errorf("mode = %q; want a re-read rematch", res.Mode)
	}
	if got := s.Engine().Matrix().Get(givenID, nameID); !s.Engine().IsUserDefined(givenID, nameID) || got != 1 {
		t.Errorf("decision not placed after the swap: pinned=%v score=%v", s.Engine().IsUserDefined(givenID, nameID), got)
	}
	assertColdEqual(t, s, bb, mp)
}

// TestSessionIdenticalRematchWritesNothing: the first publish writes
// every link, and an identical rematch, publishing through the same
// manager on the session's baseline, writes nothing and leaves every
// cell as the cold run scores it.
func TestSessionIdenticalRematchWritesNothing(t *testing.T) {
	bb, mp := sessionBoard(t)
	mgr := wbmgr.NewWith(bb)
	s := newTestSession()
	res, err := s.Rematch(context.Background(), bb, mp, Dirty{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	first := publishChecked(t, mgr, mp, res, 0.1)
	if len(first) == 0 || len(first) != len(res.Links) {
		t.Fatalf("first publish wrote %d cells of %d links", len(first), len(res.Links))
	}
	rev := bb.Revision()
	res, err = s.Rematch(context.Background(), bb, mp, Dirty{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if again := publishChecked(t, mgr, mp, res, 0.1); len(again) != 0 {
		t.Errorf("identical rematch wrote %d cells", len(again))
	}
	if got := bb.Revision(); got != rev {
		t.Errorf("identical rematch moved the revision by %d", got-rev)
	}
}

func TestSessionNeverOverwritesMidRangeDecision(t *testing.T) {
	bb, mp := sessionBoard(t)
	mgr := wbmgr.NewWith(bb)
	s := newTestSession()
	if err := mp.SetCell(subtotalID, totalID, 0.5, true, "analyst"); err != nil {
		t.Fatal(err)
	}
	// Twice: the first publish reads every link, the second publishes on
	// the first's baseline.
	for round := 0; round < 2; round++ {
		res, err := s.Rematch(context.Background(), bb, mp, Dirty{}, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		var linked bool
		for _, l := range res.Links {
			linked = linked || l.Source.ID == subtotalID && l.Target.ID == totalID
		}
		if !linked {
			t.Fatalf("round %d: the decided pair is no link", round)
		}
		for _, c := range publishChecked(t, mgr, mp, res, 0.1) {
			if c.SourceID == subtotalID && c.TargetID == totalID {
				t.Errorf("round %d: publish wrote the decided pair: %+v", round, c)
			}
		}
		c, _ := mp.GetCell(subtotalID, totalID)
		if c.Confidence != 0.5 || !c.UserDefined || c.SetBy != "analyst" {
			t.Errorf("round %d: mid-range decision overwritten: %+v", round, c)
		}
	}
}

// TestSessionConcurrentRuns drives one session table from several
// goroutines at once (run with -race).
func TestSessionConcurrentRuns(t *testing.T) {
	bb, mp := sessionBoard(t)
	table := NewSessions(Options{Flooding: true, Metrics: obs.NewRegistry()})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := table.For("m").Rematch(context.Background(), bb, mp, Dirty{}, 0.2); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	assertColdEqual(t, table.For("m"), bb, mp)
}

// TestSessionRereadsOnlyTheMovedSchema reloads one side at a time. The
// rematch re-reads the schema whose version moved and keeps the
// engine's object for the other, the matrix stays bit-identical to a
// cold match, and each publish writes exactly the links that moved and
// leaves the mapping's cells as the cold match scores them.
func TestSessionRereadsOnlyTheMovedSchema(t *testing.T) {
	bb, mp := sessionBoard(t)
	mgr := wbmgr.NewWith(bb)
	s := newTestSession()
	if _, err := s.Rematch(context.Background(), bb, mp, Dirty{}, 0.2); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		side string
		next *model.Schema
	}{
		{"source", renamedSource("firstName", "givenName")},
		{"target", renamed(siTarget(), "name", "recipient")},
	} {
		oldSrc, oldTgt := s.Engine().ctx.Source, s.Engine().ctx.Target
		if _, err := bb.PutSchema(tc.next); err != nil {
			t.Fatal(err)
		}
		res, err := s.Rematch(context.Background(), bb, mp, Dirty{}, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		src, tgt := s.Engine().ctx.Source, s.Engine().ctx.Target
		if (src != oldSrc) != (tc.side == "source") || (tgt != oldTgt) != (tc.side == "target") {
			t.Errorf("%s reload: source re-read %v, target re-read %v", tc.side, src != oldSrc, tgt != oldTgt)
		}
		assertColdEqual(t, s, bb, mp)
		publishChecked(t, mgr, mp, res, 0.2)
	}
}
