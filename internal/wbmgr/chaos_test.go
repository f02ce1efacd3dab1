package wbmgr

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/rdf"
)

// findCounter sums a counter family's series matching the given label
// pair ("" key matches everything).
func findCounter(t *testing.T, reg *obs.Registry, name, lk, lv string) float64 {
	t.Helper()
	m, ok := reg.Find(name)
	if !ok {
		return 0
	}
	total := 0.0
	for _, s := range m.Series {
		if lk == "" || s.Labels[lk] == lv {
			total += s.Value
		}
	}
	return total
}

func TestCommitFaultRollsBackWholeTxn(t *testing.T) {
	defer chaos.Reset()
	reg := obs.NewRegistry()
	m := New()
	m.SetMetrics(reg)
	m.Blackboard().SetMetrics(reg)

	pre := m.Blackboard().Graph().Clone()
	chaos.Enable(SiteCommit, chaos.Rule{Every: 1})

	txn, err := m.Begin("loader")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Blackboard().PutSchema(simpleSchema("s1")); err != nil {
		t.Fatal(err)
	}
	txn.Emit(EventSchemaGraph, "s1")
	cerr := txn.Commit()
	if !errors.Is(cerr, chaos.ErrInjected) {
		t.Fatalf("Commit = %v, want injected fault", cerr)
	}
	if !rdf.Equal(pre, m.Blackboard().Graph()) {
		t.Fatal("commit fault left the transaction's writes behind")
	}
	if got := len(m.EventLog()); got != 0 {
		t.Fatalf("queued events survived a failed commit: %d", got)
	}
	if n := findCounter(t, reg, MetricTxnRollbacks, "cause", "commit-fault"); n != 1 {
		t.Fatalf("rollbacks{cause=commit-fault} = %v, want 1", n)
	}

	// The manager must be usable again: same write now commits clean.
	chaos.Reset()
	txn, err = m.Begin("loader")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Blackboard().PutSchema(simpleSchema("s1")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Blackboard().GetSchema("s1"); err != nil {
		t.Fatalf("schema absent after clean retry: %v", err)
	}
}

func TestCommitPanicRollsBackThenRepanics(t *testing.T) {
	defer chaos.Reset()
	m := New()
	pre := m.Blackboard().Graph().Clone()
	chaos.Enable(SiteCommit, chaos.Rule{Kind: chaos.FaultPanic, Every: 1})

	txn, err := m.Begin("loader")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Blackboard().PutSchema(simpleSchema("s1")); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if _, ok := recover().(*chaos.Fault); !ok {
				t.Error("commit panic not propagated as *chaos.Fault")
			}
		}()
		_ = txn.Commit()
	}()
	if !rdf.Equal(pre, m.Blackboard().Graph()) {
		t.Fatal("panicking commit left writes behind")
	}
}

func TestAbortFaultStillRollsBack(t *testing.T) {
	defer chaos.Reset()
	for _, kind := range []chaos.FaultKind{chaos.FaultError, chaos.FaultPanic} {
		t.Run(string(kind), func(t *testing.T) {
			chaos.Reset()
			m := New()
			pre := m.Blackboard().Graph().Clone()
			chaos.Enable(SiteAbort, chaos.Rule{Kind: kind, Every: 1})

			txn, err := m.Begin("loader")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Blackboard().PutSchema(simpleSchema("s1")); err != nil {
				t.Fatal(err)
			}
			aerr := txn.Abort()
			if !errors.Is(aerr, chaos.ErrInjected) {
				t.Fatalf("Abort = %v, want the injected fault surfaced as error", aerr)
			}
			if !rdf.Equal(pre, m.Blackboard().Graph()) {
				t.Fatal("fault during Abort skipped the rollback")
			}
		})
	}
}

// TestAbortAfterPartialMultiSchemaWrites is the satellite coverage for
// Txn.Abort undoing a half-done multi-schema load.
func TestAbortAfterPartialMultiSchemaWrites(t *testing.T) {
	m := New()
	txn, err := m.Begin("loader")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Blackboard().PutSchema(simpleSchema("pre")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	pre := m.Blackboard().Graph().Clone()

	txn, err = m.Begin("loader")
	if err != nil {
		t.Fatal(err)
	}
	bb := m.Blackboard()
	if _, err := bb.PutSchema(simpleSchema("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := bb.PutSchema(simpleSchema("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := bb.PutSchema(simpleSchema("pre")); err != nil { // re-put: archives v1
		t.Fatal(err)
	}
	if _, err := bb.NewMapping("ab", "a", "b"); err != nil {
		t.Fatal(err)
	}
	mp, err := bb.GetMapping("ab")
	if err != nil {
		t.Fatal(err)
	}
	if err := mp.SetCell("E/a", "E/a", 0.5, false, "loader"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}

	if !rdf.Equal(pre, bb.Graph()) {
		added, removed := bb.Graph().Diff(pre)
		t.Fatalf("abort left residue: +%d -%d triples", len(added), len(removed))
	}
	if got := bb.Schemas(); len(got) != 1 || got[0] != "pre" {
		t.Fatalf("Schemas after abort = %v, want [pre]", got)
	}
	if bb.SchemaVersion("pre") != 1 {
		t.Fatalf("version bumped by aborted re-put: %d", bb.SchemaVersion("pre"))
	}
	if errs := bb.CheckIntegrity(); len(errs) != 0 {
		t.Fatalf("integrity violations after abort: %v", errs)
	}
}

func TestPublishSubscriberPanicRecovered(t *testing.T) {
	reg := obs.NewRegistry()
	m := New()
	m.SetMetrics(reg)

	var got []string
	m.Subscribe(EventSchemaGraph, "ok1", func(e Event) { got = append(got, "ok1") })
	m.Subscribe(EventSchemaGraph, "boom", func(e Event) { panic("handler exploded") })
	m.Subscribe(EventSchemaGraph, "ok2", func(e Event) { got = append(got, "ok2") })

	txn, err := m.Begin("loader")
	if err != nil {
		t.Fatal(err)
	}
	txn.Emit(EventSchemaGraph, "s")
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit failed because of a subscriber panic: %v", err)
	}
	if len(got) != 2 || got[0] != "ok1" || got[1] != "ok2" {
		t.Fatalf("surviving deliveries = %v, want [ok1 ok2]", got)
	}
	if n := findCounter(t, reg, MetricPublishPanics, "tool", "boom"); n != 1 {
		t.Fatalf("publish panics{tool=boom} = %v, want 1", n)
	}
}

func TestPublishInjectedFaultSkipsOneHandler(t *testing.T) {
	defer chaos.Reset()
	m := New()
	var delivered int
	m.Subscribe(EventSchemaGraph, "a", func(Event) { delivered++ })
	m.Subscribe(EventSchemaGraph, "b", func(Event) { delivered++ })
	chaos.Enable(SitePublish, chaos.Rule{Every: 2}) // second delivery fails

	txn, err := m.Begin("loader")
	if err != nil {
		t.Fatal(err)
	}
	txn.Emit(EventSchemaGraph, "s")
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (one handler skipped)", delivered)
	}
}

func TestInvokeRetriesThenSucceeds(t *testing.T) {
	defer chaos.Reset()
	reg := obs.NewRegistry()
	m := New()
	m.SetMetrics(reg)
	m.SetInvokePolicy(InvokePolicy{Retries: 3, Backoff: time.Microsecond})
	ft := &fakeTool{name: "flaky"}
	if err := m.Register(ft); err != nil {
		t.Fatal(err)
	}
	// Fail the first two attempts, then stop firing.
	chaos.Enable(SiteInvoke, chaos.Rule{Every: 1, Limit: 2})

	if err := m.Invoke("flaky", nil); err != nil {
		t.Fatalf("Invoke with retries = %v", err)
	}
	if ft.invoked != 1 {
		t.Fatalf("tool ran %d times, want 1 (faults fired before the tool)", ft.invoked)
	}
	if n := findCounter(t, reg, MetricInvokeRetries, "tool", "flaky"); n != 2 {
		t.Fatalf("retries{tool=flaky} = %v, want 2", n)
	}
}

func TestInvokeRetriesExhausted(t *testing.T) {
	defer chaos.Reset()
	m := New()
	m.SetInvokePolicy(InvokePolicy{Retries: 2})
	if err := m.Register(&fakeTool{name: "doomed"}); err != nil {
		t.Fatal(err)
	}
	chaos.Enable(SiteInvoke, chaos.Rule{Every: 1})
	if err := m.Invoke("doomed", nil); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("Invoke = %v, want injected fault after exhausted retries", err)
	}
}

func TestInvokeTimeout(t *testing.T) {
	m := New()
	m.SetInvokePolicy(InvokePolicy{Timeout: 20 * time.Millisecond})
	release := make(chan struct{})
	slow := &fakeTool{name: "slow", invokeFn: func(*Manager, map[string]string) error {
		<-release
		return nil
	}}
	if err := m.Register(slow); err != nil {
		t.Fatal(err)
	}
	err := m.Invoke("slow", nil)
	close(release)
	if !errors.Is(err, ErrInvokeTimeout) {
		t.Fatalf("Invoke = %v, want ErrInvokeTimeout", err)
	}
}

func TestInvokePanicBecomesError(t *testing.T) {
	m := New()
	if err := m.Register(&fakeTool{name: "crasher", invokeFn: func(*Manager, map[string]string) error {
		panic("tool bug")
	}}); err != nil {
		t.Fatal(err)
	}
	err := m.Invoke("crasher", nil)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Invoke = %v, want panic converted to error", err)
	}
}

func TestBeginFaultLeavesNoTxn(t *testing.T) {
	defer chaos.Reset()
	m := New()
	chaos.Enable(SiteBegin, chaos.Rule{Every: 1, Limit: 1})
	if _, err := m.Begin("loader"); !errors.Is(err, chaos.ErrInjected) {
		t.Fatal("Begin should fail with the injected fault")
	}
	// The failed Begin must not have claimed the transaction slot.
	txn, err := m.Begin("loader")
	if err != nil {
		t.Fatalf("Begin after injected failure = %v", err)
	}
	_ = txn.Abort()
}

// TestUnsubscribeRacingPublish is the satellite race test: subscription
// churn concurrent with event publishing must be race-free (run with
// -race) and never deliver to a token after Unsubscribe returns... or
// rather, never crash or corrupt the registry; delivery to a token
// mid-unsubscribe is allowed since publish snapshots subscribers.
func TestUnsubscribeRacingPublish(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			txn, err := m.Begin("publisher")
			if err != nil {
				continue
			}
			txn.Emit(EventMappingCell, fmt.Sprintf("c%d", i))
			if err := txn.Commit(); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
		}
	}()

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("churner%d", w)
			for i := 0; i < 200; i++ {
				tok := m.Subscribe(EventMappingCell, name, func(Event) {})
				m.Unsubscribe(tok)
			}
		}(w)
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Let the churn overlap the publisher for a while, then stop it.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	<-done
}
