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

// publishRun publishes a session result in one transaction.
func publishRun(t *testing.T, bb *blackboard.Blackboard, mp *blackboard.Mapping, res *Result) []blackboard.Cell {
	t.Helper()
	var cells []blackboard.Cell
	err := wbmgr.NewWith(bb).Do(context.Background(), "harmony", func(txn *wbmgr.Txn) error {
		var err error
		cells, err = res.Publish(txn, mp)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return cells
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

func TestSessionIdenticalRematchWritesNothing(t *testing.T) {
	bb, mp := sessionBoard(t)
	s := newTestSession()
	res, err := s.Rematch(context.Background(), bb, mp, Dirty{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	first := publishRun(t, bb, mp, res)
	if len(first) == 0 {
		t.Fatal("run published nothing")
	}
	rev := bb.Revision()
	res, err = s.Rematch(context.Background(), bb, mp, Dirty{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	again := publishRun(t, bb, mp, res)
	if got := bb.Revision(); got != rev {
		t.Errorf("identical rematch wrote %d cells", got-rev)
	}
	if len(again) != len(first) {
		t.Errorf("identical rematch returned %d cells, run %d", len(again), len(first))
	}
}

func TestSessionNeverOverwritesMidRangeDecision(t *testing.T) {
	bb, mp := sessionBoard(t)
	s := newTestSession()
	if err := mp.SetCell(subtotalID, totalID, 0.5, true, "analyst"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Rematch(context.Background(), bb, mp, Dirty{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var returned bool
	for _, c := range publishRun(t, bb, mp, res) {
		returned = returned || c.SourceID == subtotalID && c.TargetID == totalID
	}
	if !returned {
		t.Error("the decided pair's stored cell was not returned")
	}
	c, _ := mp.GetCell(subtotalID, totalID)
	if c.Confidence != 0.5 || !c.UserDefined || c.SetBy != "analyst" {
		t.Errorf("mid-range decision overwritten: %+v", c)
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
// engine's object for the other, and both the matrix and the published
// cells stay bit-identical to a cold match.
func TestSessionRereadsOnlyTheMovedSchema(t *testing.T) {
	bb, mp := sessionBoard(t)
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
		cold := NewEngine(src, tgt, Options{Flooding: true, Metrics: obs.NewRegistry()})
		cold.Run()
		want := map[[2]string]uint64{}
		for _, l := range cold.Matrix().Above(0.2) {
			want[[2]string{l.Source.ID, l.Target.ID}] = math.Float64bits(l.Confidence)
		}
		cells := publishRun(t, bb, mp, res)
		if len(cells) != len(want) {
			t.Errorf("%s reload published %d cells, cold match %d", tc.side, len(cells), len(want))
		}
		for _, c := range cells {
			if w, ok := want[[2]string{c.SourceID, c.TargetID}]; !ok || w != math.Float64bits(c.Confidence) {
				t.Errorf("%s reload published %s → %s = %v; cold match %v", tc.side, c.SourceID, c.TargetID, c.Confidence, math.Float64frombits(w))
			}
		}
	}
}
