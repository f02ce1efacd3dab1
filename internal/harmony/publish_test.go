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
// that publishes on its baseline (board a), and every step is mirrored
// on a reference board b, where a session-less Result.Publish of the
// same links reads every link. After every publish the two graphs must
// be rdf.Equal and the written cells identical, revisions included.

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
	inTxn := func(p pubBoard, fn func(*wbmgr.Txn) error) {
		t.Helper()
		if err := p.mgr.Do(context.Background(), "analyst", fn); err != nil {
			t.Fatal(err)
		}
	}
	s := newTestSession()
	var mustFull bool // an op since the last publish leaves the baseline unusable
	var diffs, fulls, narrowed int
	lowCap := false

	// machineWrite writes a machine score as another tool would,
	// naming the cell in a mapping-cell event.
	machineWrite := func(src, tgt string, conf float64) {
		both(func(p pubBoard) {
			inTxn(p, func(txn *wbmgr.Txn) error {
				txn.Emit(wbmgr.EventMappingCell, fmt.Sprintf("%s|%s|%s", p.mp.ID, src, tgt))
				return p.mp.SetCell(src, tgt, conf, false, "other-matcher")
			})
		})
	}

	const steps = 60
	for step := 0; step < steps; step++ {
		// Publish on every third step at least, so each op is followed
		// by one before the next op of its kind piles up.
		op := rng.Intn(14)
		if step%3 == 2 {
			op = 0
		}
		var desc string
		switch op {
		case 0, 1, 2, 10: // publish, usually through a's own manager
			threshold := []float64{0.1, 0.2, 0.35}[rng.Intn(3)]
			matrixEvent := rng.Intn(2) == 0
			if op == 10 {
				// The publish must write (a link another tool moved) and
				// end on its own mapping-cell event.
				threshold, matrixEvent = 0.1, false
				src, tgt := linkPair(t, rng, s, a)
				machineWrite(src, tgt, 0.03)
			}
			res, err := s.Rematch(context.Background(), a.bb, a.mp, Dirty{}, threshold)
			if err != nil {
				t.Fatal(err)
			}
			mgr, other := a.mgr, op != 10 && rng.Intn(6) == 0
			if other {
				mgr = wbmgr.NewWith(a.bb)
			}
			// op 10: a replicated transaction lands on a link while the
			// publish is open, after it read the event log.
			var alsoA, alsoB func() error
			if op == 10 {
				src, tgt := linkPair(t, rng, s, a)
				alsoA = func() error {
					a.mgr.Publish(wbmgr.Event{Kind: "repl-txn", Tool: "repl", Subject: fmt.Sprint(step)})
					return a.mp.SetCell(src, tgt, 0.61, false, "primary-matcher")
				}
				alsoB = func() error { return b.mp.SetCell(src, tgt, 0.61, false, "primary-matcher") }
			}
			got, err, attrs := publishSpan(mgr, a.mp, res, matrixEvent, alsoA)
			if err != nil {
				t.Fatal(err)
			}
			want, err, _ := publishSpan(b.mgr, b.mp, &Result{Links: res.Links}, matrixEvent, alsoB)
			if err != nil {
				t.Fatal(err)
			}
			desc = fmt.Sprintf("publish %d at %v (other manager %v): %v", op, threshold, other, attrs)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d, %s: wrote %d cells, the full scan %d:\n%+v\n%+v", step, desc, len(got), len(want), got, want)
			}
			if want := fmt.Sprint(len(res.Links)); attrs["publish_links"] != want {
				t.Fatalf("step %d, %s: publish_links %q, want %s", step, desc, attrs["publish_links"], want)
			}
			switch attrs["publish_scan"] {
			case "diff":
				if mustFull {
					t.Fatalf("step %d, %s: diff scan on an unusable baseline", step, desc)
				}
				diffs++
				if attrs["publish_read"] != attrs["publish_links"] {
					narrowed++
				}
			case "full":
				fulls++
			default:
				t.Fatalf("step %d, %s: no publish_scan", step, desc)
			}
			// Through another manager the baseline stays there; past a
			// foreign event inside the transaction there is none.
			mustFull = other || op == 10
		case 3: // a decision with its mapping-cell event
			src, tgt := livePair(t, rng, a)
			conf := []float64{-1, 1}[rng.Intn(2)]
			both(func(p pubBoard) {
				inTxn(p, func(txn *wbmgr.Txn) error {
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
			machineWrite(src, tgt, conf)
			desc = fmt.Sprintf("machine write %s → %s %v", src, tgt, conf)
		case 6, 7: // a publish that rolls back: an abort or a commit fault
			res, err := s.Rematch(context.Background(), a.bb, a.mp, Dirty{}, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			before := s.base
			abort := op == 6
			for _, side := range []struct {
				p   pubBoard
				res *Result
			}{{a, res}, {b, &Result{Links: res.Links}}} {
				if abort {
					txn, err := side.p.mgr.Begin("harmony")
					if err != nil {
						t.Fatal(err)
					}
					if _, err := side.res.Publish(txn, side.p.mp); err != nil {
						t.Fatal(err)
					}
					if err := txn.Abort(); err != nil {
						t.Fatal(err)
					}
					continue
				}
				chaos.Enable(wbmgr.SiteCommit, chaos.Rule{Kind: chaos.FaultError, Every: 1, Limit: 1})
				if _, err, _ := publishSpan(side.p.mgr, side.p.mp, side.res, true, nil); err == nil {
					t.Fatal("commit fault did not fail the publish")
				}
				chaos.Reset()
			}
			if s.base != before {
				t.Fatalf("step %d: a rolled-back publish (abort %v) moved the baseline", step, abort)
			}
			desc = fmt.Sprintf("rolled-back publish (abort %v)", abort)
		case 8: // machine writes overrun the event log past the baseline's head
			if lowCap {
				a.mgr.SetEventLogCapacity(0)
				lowCap = false
				desc = "event log back to its default capacity"
				break
			}
			a.mgr.SetEventLogCapacity(4)
			lowCap = true
			for i := 0; i < 5; i++ {
				src, tgt := linkPair(t, rng, s, a)
				machineWrite(src, tgt, 0.05*float64(i+1))
			}
			mustFull = true
			desc = "event log overrun"
		case 9: // a replicated transaction moves a cell without naming it
			src, tgt := linkPair(t, rng, s, a)
			both(func(p pubBoard) {
				if err := p.mp.SetCell(src, tgt, 0.77, false, "primary-matcher"); err != nil {
					t.Fatal(err)
				}
			})
			a.mgr.Publish(wbmgr.Event{Kind: "repl-txn", Tool: "repl", Subject: fmt.Sprint(step)})
			mustFull = true
			desc = fmt.Sprintf("replicated write %s → %s", src, tgt)
		case 11: // the mapping is deleted and created again under its ID
			both(func(p pubBoard) {
				inTxn(p, func(txn *wbmgr.Txn) error {
					txn.Emit(wbmgr.EventMappingMatrix, p.mp.ID)
					if err := p.bb.DeleteMapping(p.mp.ID); err != nil {
						return err
					}
					_, err := p.bb.NewMapping(p.mp.ID, p.mp.SourceSchema, p.mp.TargetSchema)
					return err
				})
			})
			mustFull = true
			desc = "mapping re-created"
		default: // an in-place schema edit
			name := a.mp.SourceSchema
			if rng.Intn(2) == 0 {
				name = a.mp.TargetSchema
			}
			sch := editSchema(t, rng, a.bb, name, step)
			both(func(p pubBoard) {
				inTxn(p, func(txn *wbmgr.Txn) error {
					txn.Emit(wbmgr.EventSchemaGraph, name)
					_, err := p.bb.PutSchema(sch)
					return err
				})
			})
			desc = "edit schema " + name
		}
		if !rdf.Equal(a.bb.Graph(), b.bb.Graph()) {
			add, del := a.bb.Graph().Diff(b.bb.Graph())
			t.Fatalf("step %d, %s: graphs differ: +%d -%d, e.g. %v %v", step, desc, len(add), len(del), add, del)
		}
	}
	if diffs == 0 || narrowed == 0 || fulls < 2 {
		t.Errorf("%d diff publishes (%d read fewer cells than links), %d full scans: the sequence exercised too little", diffs, narrowed, fulls)
	}
}

// TestSessionConcurrentPublishes publishes one session's results from
// several goroutines on one manager with no lock of their own (run
// with -race): a commit advances the baseline after it leaves the
// manager's transaction slot, while the next publish may already read
// it. Every cell must end at its link's score.
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
