package harmony

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/blackboard"
	"repro/internal/chaos"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/reuse"
	"repro/internal/wbmgr"
)

// Publish differential: seeded random sequences run through a session
// on board a, which is viewed (Mapping.Cells) before every publish, so
// the publish reads its cells from the mapping's exact cell table. Every
// step is mirrored on board b, which is never viewed, so the same links'
// publish there reads every cell from the graph. After every publish the
// two graphs must be rdf.Equal and the written cells identical,
// revisions included.

// pubBoard is one side of the differential: a blackboard holding the
// purchase-order pair, its manager and its mapping.
type pubBoard struct {
	bb  *blackboard.Blackboard
	mgr *wbmgr.Manager
	mp  *blackboard.Mapping
}

func newPubBoard(t *testing.T) pubBoard {
	t.Helper()
	bb, mp := sessionBoard(t)
	return pubBoard{bb: bb, mgr: wbmgr.NewWith(bb), mp: mp}
}

// publishSpan publishes res through mgr in one traced transaction —
// with a mapping-matrix event after it when matrixEvent, and then
// running also, when set — and returns the cells written, the commit
// error and the wbmgr.txn span's attributes.
func publishSpan(mgr *wbmgr.Manager, mp *blackboard.Mapping, res *Result, matrixEvent bool, also func() error) ([]blackboard.Cell, error, map[string]string) {
	store := obs.NewTraceStore(1)
	root, ctx := store.StartRoot(context.Background(), "publish", obs.SpanContext{})
	var written []blackboard.Cell
	err := mgr.Do(ctx, "harmony", func(txn *wbmgr.Txn) error {
		var perr error
		if written, perr = res.Publish(txn, mp); perr != nil {
			return perr
		}
		if matrixEvent {
			txn.Emit(wbmgr.EventMappingMatrix, mp.ID)
		}
		if also != nil {
			return also()
		}
		return nil
	})
	root.End()
	attrs := map[string]string{}
	tr, _ := store.Get(root.Context().Trace)
	for _, sp := range tr.Spans {
		if sp.Name == "wbmgr.txn" {
			for _, a := range sp.Attrs {
				attrs[a.Key] = a.Value
			}
		}
	}
	return written, err, attrs
}

// livePair draws a decidable pair: non-root elements of the mapping's
// current schemas.
func livePair(t *testing.T, rng *rand.Rand, b pubBoard) (string, string) {
	t.Helper()
	for {
		src, err := b.bb.GetSchema(b.mp.SourceSchema)
		if err != nil {
			t.Fatal(err)
		}
		tgt, err := b.bb.GetSchema(b.mp.TargetSchema)
		if err != nil {
			t.Fatal(err)
		}
		s, d := randomElement(rng, src), randomElement(rng, tgt)
		if b.mp.CheckPair(s.ID, d.ID) == nil {
			return s.ID, d.ID
		}
	}
}

// linkPair draws one of the session's current links when it has any,
// so a write there is one the next publish must see; else any
// decidable pair.
func linkPair(t *testing.T, rng *rand.Rand, s *Session, b pubBoard) (string, string) {
	t.Helper()
	if eng := s.Engine(); eng != nil {
		if ls := eng.Matrix().Above(0.1); len(ls) > 0 {
			l := ls[rng.Intn(len(ls))]
			if b.mp.CheckPair(l.Source.ID, l.Target.ID) == nil {
				return l.Source.ID, l.Target.ID
			}
		}
	}
	return livePair(t, rng, b)
}

// editSchema applies one in-place edit — rename, add, drop or a
// documentation change — to a copy of the named schema. A rename
// re-derives the IDs under it from the names, as a parsed file would.
func editSchema(t *testing.T, rng *rand.Rand, bb *blackboard.Blackboard, name string, step int) *model.Schema {
	t.Helper()
	sch, err := bb.GetSchema(name)
	if err != nil {
		t.Fatal(err)
	}
	e := randomElement(rng, sch)
	switch rng.Intn(4) {
	case 0:
		sch = renamed(sch, e.Name, fmt.Sprintf("%sRev%d", e.Name, step))
	case 1:
		added := sch.AddElement(e, fmt.Sprintf("extra%d", step), model.KindAttribute, model.ContainsAttribute)
		added.DataType = "string"
	case 2:
		if len(sch.Elements()) > 8 {
			sch.RemoveElement(e.ID)
		}
	default:
		e.Doc += fmt.Sprintf(" amended wording %d", step)
	}
	return sch
}

func TestPublishDiffMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runPublishDiff(t, seed) })
	}
}

func runPublishDiff(t *testing.T, seed int64) {
	defer chaos.Reset()
	rng := rand.New(rand.NewSource(seed))
	a, b := newPubBoard(t), newPubBoard(t)
	both := func(fn func(pubBoard)) { fn(a); fn(b) }
	inTxn := func(mgr *wbmgr.Manager, fn func(*wbmgr.Txn) error) {
		t.Helper()
		if err := mgr.Do(context.Background(), "analyst", fn); err != nil {
			t.Fatal(err)
		}
	}
	s := newTestSession()
	var publishes, writes, skips int

	// machineWrite writes a machine score as another tool would, naming
	// the cell in a mapping-cell event on the board's manager, or on a
	// second manager over the same blackboard when viaOther is set.
	machineWrite := func(src, tgt string, conf float64, viaOther bool) {
		both(func(p pubBoard) {
			mgr := p.mgr
			if viaOther {
				mgr = wbmgr.NewWith(p.bb)
			}
			inTxn(mgr, func(txn *wbmgr.Txn) error {
				txn.Emit(wbmgr.EventMappingCell, fmt.Sprintf("%s|%s|%s", p.mp.ID, src, tgt))
				return p.mp.SetCell(src, tgt, conf, false, "other-matcher")
			})
		})
	}
	// publish publishes res on both boards through their own managers,
	// viewing a first, and compares what the two wrote; alsoA and alsoB
	// run inside the transactions after the publish.
	publish := func(step int, res *Result, matrixEvent bool, alsoA, alsoB func() error) string {
		t.Helper()
		a.mp.Cells()
		got, err, attrs := publishSpan(a.mgr, a.mp, res, matrixEvent, alsoA)
		if err != nil {
			t.Fatal(err)
		}
		want, err, battrs := publishSpan(b.mgr, b.mp, res, matrixEvent, alsoB)
		if err != nil {
			t.Fatal(err)
		}
		desc := fmt.Sprintf("publish of %d links: %v", len(res.Links), attrs)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d, %s: wrote %d cells from the table, %d from the graph:\n%+v\n%+v", step, desc, len(got), len(want), got, want)
		}
		if attrs["publish_read_from"] != "table" || battrs["publish_read_from"] != "graph" {
			t.Fatalf("step %d, %s: read from %q and %q, want table and graph", step, desc, attrs["publish_read_from"], battrs["publish_read_from"])
		}
		if want := fmt.Sprint(len(res.Links)); attrs["publish_links"] != want {
			t.Fatalf("step %d, %s: publish_links %q, want %s", step, desc, attrs["publish_links"], want)
		}
		publishes++
		if len(got) > 0 {
			writes++
		}
		if len(got) < len(res.Links) {
			skips++
		}
		return desc
	}
	rematch := func(threshold float64) *Result {
		t.Helper()
		res, err := s.Rematch(context.Background(), a.bb, a.mp, Dirty{}, threshold)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	const steps = 60
	for step := 0; step < steps; step++ {
		// Publish on every third step at least, so each op is followed
		// by one before the next op of its kind piles up.
		op := rng.Intn(13)
		if step%3 == 2 {
			op = 0
		}
		var desc string
		switch op {
		case 0, 1, 2: // publish at a threshold that may move
			threshold := []float64{0.1, 0.2, 0.35}[rng.Intn(3)]
			desc = publish(step, rematch(threshold), rng.Intn(2) == 0, nil, nil)
		case 3: // a decision with its mapping-cell event
			src, tgt := livePair(t, rng, a)
			conf := []float64{-1, 1}[rng.Intn(2)]
			both(func(p pubBoard) {
				inTxn(p.mgr, func(txn *wbmgr.Txn) error {
					txn.Emit(wbmgr.EventMappingCell, fmt.Sprintf("%s|%s|%s", p.mp.ID, src, tgt))
					return p.mp.SetCell(src, tgt, conf, true, "analyst")
				})
			})
			desc = fmt.Sprintf("decide %s → %s %v", src, tgt, conf)
		case 4: // a decision with no event
			src, tgt := linkPair(t, rng, s, a)
			accept := rng.Intn(2) == 0
			switch rng.Intn(3) {
			case 0:
				both(func(p pubBoard) {
					if err := reuse.RecordDecisions(p.mp, map[[2]string]bool{{src, tgt}: accept}, "reuse"); err != nil {
						t.Fatal(err)
					}
				})
			case 1:
				ssch, _ := a.bb.GetSchema(a.mp.SourceSchema)
				tsch, _ := a.bb.GetSchema(a.mp.TargetSchema)
				eng := NewEngine(ssch, tsch, Options{Flooding: true, Metrics: obs.NewRegistry()})
				if err := eng.decide(src, tgt, accept); err != nil {
					t.Fatal(err)
				}
				both(func(p pubBoard) {
					if err := eng.SaveTo(p.mp, "engine"); err != nil {
						t.Fatal(err)
					}
				})
			default: // a mid-range user-defined cell
				conf := []float64{-0.4, 0.5}[rng.Intn(2)]
				both(func(p pubBoard) {
					if err := p.mp.SetCell(src, tgt, conf, true, "analyst"); err != nil {
						t.Fatal(err)
					}
				})
			}
			desc = fmt.Sprintf("event-less decision %s → %s", src, tgt)
		case 5: // another tool's machine write with its event
			src, tgt := livePair(t, rng, a)
			if rng.Intn(2) == 0 {
				src, tgt = linkPair(t, rng, s, a)
			}
			conf := float64(rng.Intn(100)) / 100
			machineWrite(src, tgt, conf, false)
			desc = fmt.Sprintf("machine write %s → %s %v", src, tgt, conf)
		case 6, 7: // a publish that rolls back: an abort or a commit fault
			res := rematch(0.2)
			abort := op == 6
			a.mp.Cells()
			for _, p := range []pubBoard{a, b} {
				if abort {
					txn, err := p.mgr.Begin("harmony")
					if err != nil {
						t.Fatal(err)
					}
					if _, err := res.Publish(txn, p.mp); err != nil {
						t.Fatal(err)
					}
					if err := txn.Abort(); err != nil {
						t.Fatal(err)
					}
					continue
				}
				chaos.Enable(wbmgr.SiteCommit, chaos.Rule{Kind: chaos.FaultError, Every: 1, Limit: 1})
				if _, err, _ := publishSpan(p.mgr, p.mp, res, true, nil); err == nil {
					t.Fatal("commit fault did not fail the publish")
				}
				chaos.Reset()
			}
			desc = fmt.Sprintf("rolled-back publish (abort %v)", abort)
		case 8: // a replicated transaction moves a cell as raw triples
			src, tgt := linkPair(t, rng, s, a)
			g := b.bb.Graph()
			sp := g.Savepoint()
			if err := b.mp.SetCell(src, tgt, 0.77, false, "primary-matcher"); err != nil {
				t.Fatal(err)
			}
			ops := g.ChangesSince(sp)
			g.Release(sp)
			for _, o := range ops {
				if o.Add {
					a.bb.Graph().Add(o.T)
				} else {
					a.bb.Graph().Remove(o.T)
				}
			}
			a.bb.ResumeRevision()
			a.mgr.Publish(wbmgr.Event{Kind: "repl-txn", Tool: "repl", Subject: fmt.Sprint(step)})
			desc = fmt.Sprintf("replicated write %s → %s", src, tgt)
		case 9: // another tool moves a link, and a write lands inside the publish
			src, tgt := linkPair(t, rng, s, a)
			machineWrite(src, tgt, 0.03, false)
			res := rematch(0.1)
			src, tgt = linkPair(t, rng, s, a)
			alsoA := func() error { return a.mp.SetCell(src, tgt, 0.61, false, "primary-matcher") }
			alsoB := func() error { return b.mp.SetCell(src, tgt, 0.61, false, "primary-matcher") }
			desc = "write inside the publish; " + publish(step, res, false, alsoA, alsoB)
		case 10: // a current link's machine write through a second manager
			res := rematch(0.1)
			src, tgt := linkPair(t, rng, s, a)
			machineWrite(src, tgt, 0.03, true)
			desc = fmt.Sprintf("second manager writes %s → %s; ", src, tgt) + publish(step, res, false, nil, nil)
		case 11: // the mapping is deleted and created again under its ID
			both(func(p pubBoard) {
				inTxn(p.mgr, func(txn *wbmgr.Txn) error {
					txn.Emit(wbmgr.EventMappingMatrix, p.mp.ID)
					if err := p.bb.DeleteMapping(p.mp.ID); err != nil {
						return err
					}
					_, err := p.bb.NewMapping(p.mp.ID, p.mp.SourceSchema, p.mp.TargetSchema)
					return err
				})
			})
			desc = "mapping re-created"
		default: // an in-place schema edit
			name := a.mp.SourceSchema
			if rng.Intn(2) == 0 {
				name = a.mp.TargetSchema
			}
			sch := editSchema(t, rng, a.bb, name, step)
			both(func(p pubBoard) {
				inTxn(p.mgr, func(txn *wbmgr.Txn) error {
					txn.Emit(wbmgr.EventSchemaGraph, name)
					_, err := p.bb.PutSchema(sch)
					return err
				})
			})
			desc = "edit schema " + name
		}
		if b.mp.TableExact() {
			t.Fatalf("step %d, %s: board b holds a cell table", step, desc)
		}
		if !rdf.Equal(a.bb.Graph(), b.bb.Graph()) {
			add, del := a.bb.Graph().Diff(b.bb.Graph())
			t.Fatalf("step %d, %s: graphs differ: +%d -%d, e.g. %v %v", step, desc, len(add), len(del), add, del)
		}
	}
	if writes == 0 || skips == 0 {
		t.Errorf("%d publishes, %d wrote and %d skipped a link: the sequence exercised too little", publishes, writes, skips)
	}
}

// TestSessionConcurrentPublishes publishes one session's results from
// several goroutines on one manager with no lock of their own (run
// with -race), while the next run may already hold the session. Every
// cell must end at its link's score.
func TestSessionConcurrentPublishes(t *testing.T) {
	bb, mp := sessionBoard(t)
	mgr := wbmgr.NewWith(bb)
	s := newTestSession()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := s.Rematch(context.Background(), bb, mp, Dirty{}, 0.1)
				if err != nil {
					t.Error(err)
					return
				}
				txn, err := mgr.Begin("harmony")
				for errors.Is(err, wbmgr.ErrTxnActive) {
					runtime.Gosched()
					txn, err = mgr.Begin("harmony")
				}
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := res.Publish(txn, mp); err != nil {
					t.Error(err)
					_ = txn.Abort()
					return
				}
				if err := txn.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	links := s.Engine().Matrix().Above(0.1)
	for _, l := range links {
		c, ok := mp.GetCell(l.Source.ID, l.Target.ID)
		if !ok || c.Confidence != l.Confidence {
			t.Errorf("cell %s → %s = %+v (present %v); link %v", l.Source.ID, l.Target.ID, c, ok, l.Confidence)
		}
	}
	if n := len(mp.Cells()); n != len(links) {
		t.Errorf("%d cells for %d links", n, len(links))
	}
}
