package wbmgr

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

// fakeTool records invocations and subscribes to one event kind.
type fakeTool struct {
	name     string
	listens  EventKind
	events   []Event
	invoked  int
	initErr  error
	invokeFn func(m *Manager, args map[string]string) error
}

func (f *fakeTool) Name() string { return f.name }

func (f *fakeTool) Initialize(m *Manager) error {
	if f.initErr != nil {
		return f.initErr
	}
	if f.listens != "" {
		m.Subscribe(f.listens, f.name, func(e Event) { f.events = append(f.events, e) })
	}
	return nil
}

func (f *fakeTool) Invoke(m *Manager, args map[string]string) error {
	f.invoked++
	if f.invokeFn != nil {
		return f.invokeFn(m, args)
	}
	return nil
}

func simpleSchema(name string) *model.Schema {
	s := model.NewSchema(name, "er")
	e := s.AddElement(nil, "E", model.KindEntity, model.ContainsElement)
	s.AddElement(e, "a", model.KindAttribute, model.ContainsAttribute)
	return s
}

func TestRegisterAndInvoke(t *testing.T) {
	m := New()
	ft := &fakeTool{name: "loader"}
	if err := m.Register(ft); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(&fakeTool{name: "loader"}); err == nil {
		t.Error("duplicate registration should error")
	}
	if err := m.Invoke("loader", nil); err != nil {
		t.Fatal(err)
	}
	if ft.invoked != 1 {
		t.Errorf("invoked = %d", ft.invoked)
	}
	if err := m.Invoke("ghost", nil); err == nil {
		t.Error("unknown tool should error")
	}
	if got := m.Tools(); len(got) != 1 || got[0] != "loader" {
		t.Errorf("Tools = %v", got)
	}
}

func TestRegisterInitializeError(t *testing.T) {
	m := New()
	wantErr := errors.New("boom")
	if err := m.Register(&fakeTool{name: "bad", initErr: wantErr}); !errors.Is(err, wantErr) {
		t.Errorf("err = %v", err)
	}
}

func TestEventsDeliveredOnCommit(t *testing.T) {
	m := New()
	matcher := &fakeTool{name: "matcher", listens: EventSchemaGraph}
	if err := m.Register(matcher); err != nil {
		t.Fatal(err)
	}

	txn, err := m.Begin("loader")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Blackboard().PutSchema(simpleSchema("s1")); err != nil {
		t.Fatal(err)
	}
	txn.Emit(EventSchemaGraph, "s1")
	// Not delivered before commit.
	if len(matcher.events) != 0 {
		t.Error("event leaked before commit")
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(matcher.events) != 1 || matcher.events[0].Subject != "s1" || matcher.events[0].Tool != "loader" {
		t.Errorf("events = %v", matcher.events)
	}
}

func TestOriginatorDoesNotReceiveOwnEvents(t *testing.T) {
	m := New()
	self := &fakeTool{name: "matcher", listens: EventMappingCell}
	other := &fakeTool{name: "mapper", listens: EventMappingCell}
	_ = m.Register(self)
	_ = m.Register(other)
	txn, _ := m.Begin("matcher")
	txn.Emit(EventMappingCell, "m|a|b")
	_ = txn.Commit()
	if len(self.events) != 0 {
		t.Error("originator received its own event")
	}
	if len(other.events) != 1 {
		t.Error("other tool missed the event")
	}
}

func TestEventKindRouting(t *testing.T) {
	m := New()
	cellTool := &fakeTool{name: "cells", listens: EventMappingCell}
	vecTool := &fakeTool{name: "vectors", listens: EventMappingVector}
	_ = m.Register(cellTool)
	_ = m.Register(vecTool)
	txn, _ := m.Begin("x")
	txn.Emit(EventMappingCell, "c")
	txn.Emit(EventMappingVector, "v")
	txn.Emit(EventMappingMatrix, "m")
	_ = txn.Commit()
	if len(cellTool.events) != 1 || cellTool.events[0].Kind != EventMappingCell {
		t.Errorf("cell tool events = %v", cellTool.events)
	}
	if len(vecTool.events) != 1 || vecTool.events[0].Kind != EventMappingVector {
		t.Errorf("vector tool events = %v", vecTool.events)
	}
}

func TestAbortRollsBack(t *testing.T) {
	m := New()
	listener := &fakeTool{name: "l", listens: EventSchemaGraph}
	_ = m.Register(listener)

	if _, err := m.Blackboard().PutSchema(simpleSchema("keep")); err != nil {
		t.Fatal(err)
	}
	before := m.Blackboard().Graph().Len()

	txn, _ := m.Begin("loader")
	_, _ = txn.Blackboard().PutSchema(simpleSchema("discard"))
	txn.Emit(EventSchemaGraph, "discard")
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := m.Blackboard().Graph().Len(); got != before {
		t.Errorf("rollback: %d triples, want %d", got, before)
	}
	if len(m.Blackboard().Schemas()) != 1 {
		t.Errorf("schemas after abort: %v", m.Blackboard().Schemas())
	}
	if len(listener.events) != 0 {
		t.Error("aborted txn leaked events")
	}
	// A new transaction can start after abort.
	txn2, err := m.Begin("loader")
	if err != nil {
		t.Fatal(err)
	}
	_ = txn2.Commit()
}

func TestSingleActiveTransaction(t *testing.T) {
	m := New()
	txn, _ := m.Begin("a")
	if _, err := m.Begin("b"); err == nil {
		t.Error("second Begin should fail while txn active")
	}
	_ = txn.Commit()
	if _, err := m.Begin("b"); err != nil {
		t.Errorf("Begin after commit: %v", err)
	}
}

func TestDoubleFinishErrors(t *testing.T) {
	m := New()
	txn, _ := m.Begin("a")
	_ = txn.Commit()
	if err := txn.Commit(); err == nil {
		t.Error("double commit should error")
	}
	if err := txn.Abort(); err == nil {
		t.Error("abort after commit should error")
	}
}

func TestUnsubscribe(t *testing.T) {
	m := New()
	got := 0
	token := m.Subscribe(EventSchemaGraph, "t", func(Event) { got++ })
	txn, _ := m.Begin("x")
	txn.Emit(EventSchemaGraph, "one")
	_ = txn.Commit()
	m.Unsubscribe(token)
	txn2, _ := m.Begin("x")
	txn2.Emit(EventSchemaGraph, "two")
	_ = txn2.Commit()
	if got != 1 {
		t.Errorf("handler ran %d times, want 1", got)
	}
}

func TestEventLog(t *testing.T) {
	m := New()
	txn, _ := m.Begin("x")
	txn.Emit(EventMappingMatrix, "m")
	_ = txn.Commit()
	log := m.EventLog()
	if len(log) != 1 || log[0].Kind != EventMappingMatrix {
		t.Errorf("log = %v", log)
	}
	// Returned slice is a copy.
	log[0].Subject = "mutated"
	if m.EventLog()[0].Subject != "m" {
		t.Error("EventLog must return a copy")
	}
}

func TestQuery(t *testing.T) {
	m := New()
	_, _ = m.Blackboard().PutSchema(simpleSchema("s1"))
	rows, err := m.Query(`?e <urn:workbench:name> "a"`, "e")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != "urn:workbench:schema/s1#s1/E/a" {
		t.Errorf("rows = %v", rows)
	}
	if _, err := m.Query("not a query", "x"); err == nil {
		t.Error("bad query should error")
	}
}

func TestToolChainThroughEvents(t *testing.T) {
	// A mapper that reacts to mapping-cell events by writing code, which
	// in turn fires a mapping-vector event — the §5.2.2 upstream/
	// downstream listening pattern.
	m := New()
	var vectorEvents []Event
	m.Subscribe(EventMappingVector, "observer", func(e Event) { vectorEvents = append(vectorEvents, e) })

	mapper := &fakeTool{name: "mapper"}
	mapper.invokeFn = func(m *Manager, args map[string]string) error {
		txn, err := m.Begin("mapper")
		if err != nil {
			return err
		}
		txn.Emit(EventMappingVector, args["subject"])
		return txn.Commit()
	}
	_ = m.Register(mapper)
	m.Subscribe(EventMappingCell, "mapper", func(e Event) {
		_ = m.Invoke("mapper", map[string]string{"subject": e.Subject})
	})

	txn, _ := m.Begin("matcher")
	txn.Emit(EventMappingCell, fmt.Sprintf("m|%s|%s", "src", "tgt"))
	_ = txn.Commit()

	if len(vectorEvents) != 1 || vectorEvents[0].Subject != "m|src|tgt" {
		t.Errorf("chained events = %v", vectorEvents)
	}
}

func TestConcurrentReadsDuringTransactions(t *testing.T) {
	// Queries and event subscriptions running concurrently with a
	// sequence of transactions must not race (run with -race in CI).
	m := New()
	if _, err := m.Blackboard().PutSchema(simpleSchema("base")); err != nil {
		t.Fatal(err)
	}
	var delivered int64
	m.Subscribe(EventSchemaGraph, "obs", func(Event) { atomic.AddInt64(&delivered, 1) })

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			txn, err := m.Begin("writer")
			if err != nil {
				continue // another txn active; acceptable
			}
			_, _ = txn.Blackboard().PutSchema(simpleSchema(fmt.Sprintf("s%d", i)))
			txn.Emit(EventSchemaGraph, fmt.Sprintf("s%d", i))
			if i%5 == 0 {
				_ = txn.Abort()
			} else {
				_ = txn.Commit()
			}
		}
	}()
	for i := 0; i < 200; i++ {
		_, _ = m.Query(`?s <urn:workbench:format> "er"`, "s")
		m.Blackboard().Schemas()
	}
	<-done
	if atomic.LoadInt64(&delivered) == 0 {
		t.Error("no events delivered")
	}
	// Aborted transactions left no schemas behind: s0, s5, ... missing.
	for _, name := range m.Blackboard().Schemas() {
		if name == "s0" || name == "s5" {
			t.Errorf("aborted schema %s persisted", name)
		}
	}
}

func TestSequentialTransactionThroughput(t *testing.T) {
	m := New()
	for i := 0; i < 100; i++ {
		txn, err := m.Begin("w")
		if err != nil {
			t.Fatal(err)
		}
		_, _ = txn.Blackboard().PutSchema(simpleSchema(fmt.Sprintf("t%d", i)))
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(m.Blackboard().Schemas()); got != 100 {
		t.Errorf("schemas = %d", got)
	}
}

func TestEventLogRingBuffer(t *testing.T) {
	m := New()
	m.SetEventLogCapacity(3)
	for i := 0; i < 5; i++ {
		txn, err := m.Begin("x")
		if err != nil {
			t.Fatal(err)
		}
		txn.Emit(EventMappingCell, fmt.Sprintf("s%d", i))
		_ = txn.Commit()
	}
	log := m.EventLog()
	if len(log) != 3 {
		t.Fatalf("log length = %d, want 3", len(log))
	}
	for i, want := range []string{"s2", "s3", "s4"} {
		if log[i].Subject != want {
			t.Errorf("log[%d] = %q, want %q (oldest-first order)", i, log[i].Subject, want)
		}
	}
}

func TestSetEventLogCapacityShrinksToNewest(t *testing.T) {
	m := New()
	for i := 0; i < 4; i++ {
		txn, _ := m.Begin("x")
		txn.Emit(EventMappingCell, fmt.Sprintf("s%d", i))
		_ = txn.Commit()
	}
	m.SetEventLogCapacity(2)
	log := m.EventLog()
	if len(log) != 2 || log[0].Subject != "s2" || log[1].Subject != "s3" {
		t.Errorf("after shrink log = %+v, want s2,s3", log)
	}
	// Zero restores the default capacity rather than disabling the log.
	m.SetEventLogCapacity(0)
	txn, _ := m.Begin("x")
	txn.Emit(EventMappingCell, "s4")
	_ = txn.Commit()
	if got := m.EventLog(); len(got) != 3 || got[2].Subject != "s4" {
		t.Errorf("after reset log = %+v", got)
	}
}

func TestManagerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := New()
	m.SetMetrics(reg)
	_ = m.Register(&fakeTool{name: "good"})
	_ = m.Register(&fakeTool{name: "bad", invokeFn: func(*Manager, map[string]string) error {
		return errors.New("boom")
	}})

	txn, _ := m.Begin("good")
	txn.Emit(EventMappingCell, "c")
	txn.Emit(EventSchemaGraph, "s")
	_ = txn.Commit()
	txn2, _ := m.Begin("good")
	_ = txn2.Abort()

	_ = m.Invoke("good", nil)
	_ = m.Invoke("bad", nil)
	_, _ = m.Query(`?s ?p ?o`, "s")

	wantCounters := map[string]float64{
		MetricTxnBegin:  2,
		MetricTxnCommit: 1,
		MetricTxnAbort:  1,
		MetricQueries:   1,
	}
	for name, want := range wantCounters {
		mt, ok := reg.Find(name)
		if !ok || len(mt.Series) != 1 || mt.Series[0].Value != want {
			t.Errorf("%s = %+v, want %v", name, mt, want)
		}
	}
	ev, _ := reg.Find(MetricEventsPublished)
	kinds := map[string]float64{}
	for _, s := range ev.Series {
		kinds[s.Labels["kind"]] = s.Value
	}
	if kinds["mapping-cell"] != 1 || kinds["schema-graph"] != 1 {
		t.Errorf("events published = %v", kinds)
	}
	inv, _ := reg.Find(MetricToolInvocations)
	statuses := map[string]float64{}
	for _, s := range inv.Series {
		statuses[s.Labels["tool"]+"/"+s.Labels["status"]] = s.Value
	}
	if statuses["good/ok"] != 1 || statuses["bad/error"] != 1 {
		t.Errorf("invocations = %v", statuses)
	}
	for _, histName := range []string{MetricCommitDuration, MetricInvokeDuration, MetricQueryDuration} {
		h, ok := reg.Find(histName)
		if !ok {
			t.Errorf("%s missing", histName)
			continue
		}
		var count uint64
		for _, s := range h.Series {
			count += s.Count
		}
		if count == 0 {
			t.Errorf("%s has no observations", histName)
		}
	}
}

func TestConcurrentPublishAndEventLog(t *testing.T) {
	// Subscriptions, direct publishes and log reads from many goroutines:
	// the -race proof for the manager's event path. Publish is exercised
	// directly (not via transactions) because only one txn may be active.
	m := New()
	m.SetEventLogCapacity(64)
	var delivered atomic.Int64
	m.Subscribe(EventMappingCell, "listener", func(Event) { delivered.Add(1) })
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				m.Publish(Event{Kind: EventMappingCell, Tool: "writer", Subject: "s"})
				if i%20 == 0 {
					_ = m.EventLog()
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if delivered.Load() != 800 {
		t.Errorf("delivered = %d, want 800", delivered.Load())
	}
	if got := len(m.EventLog()); got != 64 {
		t.Errorf("ring holds %d, want 64", got)
	}
}

func TestEventSeqContiguousAcrossCommitsPublishesAndShrink(t *testing.T) {
	// Commits, direct publishes and a capacity shrink share one sequence:
	// contiguous from 1, stamped before delivery. An aborted transaction
	// takes no numbers; a cursor the log can no longer continue gets a gap.
	reg := obs.NewRegistry()
	m := New()
	m.SetMetrics(reg)
	var delivered []Event
	m.Subscribe(EventMappingCell, "listener", func(e Event) { delivered = append(delivered, e) })
	commit := func(subjects ...string) {
		t.Helper()
		txn, err := m.Begin("x")
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range subjects {
			txn.Emit(EventMappingCell, s)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit("c1", "c2")
	m.Publish(Event{Kind: EventMappingCell, Tool: "replica", Subject: "p1"})
	txn, _ := m.Begin("x")
	txn.Emit(EventMappingCell, "aborted")
	_ = txn.Abort()
	commit("c3")
	m.SetEventLogCapacity(3) // keeps seqs 2..4
	m.Publish(Event{Kind: EventMappingCell, Tool: "replica", Subject: "p2"})
	commit("c4", "c5") // the log now holds seqs 5..7

	want := []string{"c1", "c2", "p1", "c3", "p2", "c4", "c5"}
	if len(delivered) != len(want) {
		t.Fatalf("delivered %d events, want %d", len(delivered), len(want))
	}
	for i, e := range delivered {
		if e.Seq != uint64(i+1) || e.Subject != want[i] {
			t.Fatalf("delivered[%d] = seq %d %q, want seq %d %q", i, e.Seq, e.Subject, i+1, want[i])
		}
	}
	if head := m.EventHead(); head != 7 {
		t.Fatalf("EventHead = %d, want 7", head)
	}
	if log := m.EventLog(); len(log) != 3 || log[0].Seq != 5 || log[2].Seq != 7 || log[0].Subject != "p2" {
		t.Fatalf("EventLog = %+v, want seqs 5..7", log)
	}
	// Three appends evicted seqs 2, 3 and 4; the shrink itself counts none.
	if n := findCounter(t, reg, MetricEventsDropped, "", ""); n != 3 {
		t.Fatalf("%s = %v, want 3", MetricEventsDropped, n)
	}

	for _, tc := range []struct {
		after    uint64
		gap      bool
		firstSeq uint64
		n        int
	}{
		{after: 4, firstSeq: 5, n: 3},
		{after: 6, firstSeq: 7, n: 1},
		{after: 7},
		{after: 3, gap: true, firstSeq: 5, n: 3}, // behind the eviction horizon
		{after: 0, gap: true, firstSeq: 5, n: 3},
		{after: 9, gap: true, firstSeq: 5, n: 3}, // ahead of the head
	} {
		evs, head, gap, _ := m.EventsSince(tc.after)
		if head != 7 || gap != tc.gap || len(evs) != tc.n || (tc.n > 0 && evs[0].Seq != tc.firstSeq) {
			t.Errorf("EventsSince(%d) = %d events (first %+v), head %d, gap %v; want %d from seq %d, head 7, gap %v",
				tc.after, len(evs), evs, head, gap, tc.n, tc.firstSeq, tc.gap)
		}
	}

	// The wake channel closes on the next publish, not before.
	_, _, _, wake := m.EventsSince(7)
	select {
	case <-wake:
		t.Fatal("wake closed with no new event")
	default:
	}
	m.Publish(Event{Kind: EventSchemaGraph, Tool: "replica", Subject: "p3"})
	select {
	case <-wake:
	default:
		t.Fatal("wake still open after a publish")
	}
	if evs, _, gap, _ := m.EventsSince(7); gap || len(evs) != 1 || evs[0].Seq != 8 {
		t.Fatalf("after publish: %+v gap=%v, want seq 8", evs, gap)
	}
}

func TestEventsSinceFollowsConcurrentPublishes(t *testing.T) {
	// A cursor reader that waits on the wake channel while several
	// goroutines publish sees every sequence number once, in order.
	m := New()
	const writers, each = 4, 250
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				m.Publish(Event{Kind: EventMappingCell, Tool: "writer", Subject: "s"})
			}
		}()
	}
	defer wg.Wait()
	var cursor uint64
	for cursor < writers*each {
		evs, _, gap, wake := m.EventsSince(cursor)
		if gap {
			t.Fatalf("gap at cursor %d", cursor)
		}
		for _, e := range evs {
			if e.Seq != cursor+1 {
				t.Fatalf("seq %d after cursor %d", e.Seq, cursor)
			}
			cursor = e.Seq
		}
		if len(evs) == 0 {
			select {
			case <-wake:
			case <-time.After(10 * time.Second):
				t.Fatalf("no wake-up at cursor %d", cursor)
			}
		}
	}
}

// BenchmarkPublishFullLog commits one 1,500-cell match publish into an
// event log that is already full. The ring is indexed by sequence
// number, so ns/event must not grow with the capacity.
func BenchmarkPublishFullLog(b *testing.B) {
	subjects := make([]string, 1500)
	for i := range subjects {
		subjects[i] = fmt.Sprintf("m1|src/e%d|tgt/e%d", i, i)
	}
	for _, capacity := range []int{4096, 65536} {
		b.Run(fmt.Sprintf("cap=%d", capacity), func(b *testing.B) {
			m := New()
			m.SetMetrics(obs.NewRegistry())
			m.SetEventLogCapacity(capacity)
			for i := 0; i < capacity; i++ {
				m.Publish(Event{Kind: EventMappingCell, Tool: "fill", Subject: "fill"})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				txn, err := m.Begin("harmony")
				if err != nil {
					b.Fatal(err)
				}
				for _, s := range subjects {
					txn.Emit(EventMappingCell, s)
				}
				if err := txn.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(subjects)), "ns/event")
		})
	}
}

// TestBeginRacingFinish: goroutines that retry Begin on ErrTxnActive
// with no lock of their own must never see a transaction's finish
// trip over the next one's savepoint — the slot frees only once the
// finished transaction's savepoint is closed. Run with -race.
func TestBeginRacingFinish(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				txn, err := m.Begin(fmt.Sprintf("tool%d", g))
				for errors.Is(err, ErrTxnActive) {
					txn, err = m.Begin(fmt.Sprintf("tool%d", g))
				}
				if err != nil {
					t.Error(err)
					return
				}
				m.Blackboard().SetFocus(fmt.Sprintf("s%d", g), fmt.Sprintf("e%d", i))
				if i%3 == 0 {
					err = txn.Abort()
				} else {
					err = txn.Commit()
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
