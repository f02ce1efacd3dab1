package wbmgr

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rdf"
)

func mustTriple(t *testing.T, line string) rdf.Triple {
	t.Helper()
	tr, err := rdf.ParseTriple(line)
	if err != nil {
		t.Fatalf("ParseTriple(%q): %v", line, err)
	}
	return tr
}

// TestCommitHookSeesEffectiveOps: the hook receives exactly the
// transaction's effective mutations (the undo journal), attributed to
// the committing tool, before Commit returns.
func TestCommitHookSeesEffectiveOps(t *testing.T) {
	m := New()
	var gotTool string
	var gotOps []rdf.ChangeOp
	calls := 0
	m.SetCommitHook(func(_ context.Context, tool string, ops []rdf.ChangeOp) error {
		calls++
		gotTool, gotOps = tool, ops
		return nil
	})

	add := mustTriple(t, `<urn:a> <urn:p> <urn:b> .`)
	txn, err := m.Begin("loader")
	if err != nil {
		t.Fatal(err)
	}
	m.Blackboard().Graph().Add(add)
	// An add immediately undone is not an effective mutation; the hook
	// must not see it (nothing to make durable).
	noise := mustTriple(t, `<urn:n> <urn:p> <urn:n> .`)
	m.Blackboard().Graph().Add(noise)
	m.Blackboard().Graph().Remove(noise)
	if err := txn.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if calls != 1 || gotTool != "loader" {
		t.Fatalf("hook calls=%d tool=%q", calls, gotTool)
	}
	// The journal records the add, then the noise add and its removal —
	// replaying all three yields the same graph. What matters for the
	// WAL is that replay converges; check that.
	g := rdf.NewGraph()
	for _, op := range gotOps {
		if op.Add {
			g.Add(op.T)
		} else {
			g.Remove(op.T)
		}
	}
	if !rdf.Equal(g, m.Blackboard().Graph()) {
		t.Fatalf("replaying hook ops diverges: %d ops", len(gotOps))
	}
}

// TestCommitHookVetoRollsBack: a hook error (a failed WAL append) fails
// the commit atomically — graph restored, events dropped, manager free.
func TestCommitHookVetoRollsBack(t *testing.T) {
	m := New()
	m.SetCommitHook(func(context.Context, string, []rdf.ChangeOp) error {
		return fmt.Errorf("disk full")
	})
	before := m.Blackboard().Graph().Clone()

	var delivered []Event
	m.Subscribe(EventSchemaGraph, "watcher", func(e Event) { delivered = append(delivered, e) })

	txn, err := m.Begin("loader")
	if err != nil {
		t.Fatal(err)
	}
	m.Blackboard().Graph().Add(mustTriple(t, `<urn:a> <urn:p> <urn:b> .`))
	txn.Emit(EventSchemaGraph, "s1")
	err = txn.Commit()
	if err == nil || !strings.Contains(err.Error(), "commit hook") || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Commit = %v, want wrapped hook error", err)
	}
	if !rdf.Equal(m.Blackboard().Graph(), before) {
		t.Fatal("vetoed commit left mutations behind")
	}
	if len(delivered) != 0 {
		t.Fatalf("vetoed commit delivered %d events", len(delivered))
	}
	// The transaction slot is free again.
	txn2, err := m.Begin("loader")
	if err != nil {
		t.Fatalf("Begin after veto: %v", err)
	}
	if err := txn2.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitHookVetoCountsHookFault: the rollback is attributed to
// cause=hook-fault in the manager metrics.
func TestCommitHookVetoCountsHookFault(t *testing.T) {
	m := New()
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	m.SetCommitHook(func(context.Context, string, []rdf.ChangeOp) error { return fmt.Errorf("no") })
	txn, err := m.Begin("loader")
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err == nil {
		t.Fatal("Commit succeeded despite hook veto")
	}
	if got := reg.Counter(MetricTxnRollbacks, "cause", "hook-fault").Value(); got != 1 {
		t.Fatalf("hook-fault rollbacks = %d, want 1", got)
	}
}

// TestCommitHookSuccessOrder: a nil hook result lets the commit seal and
// deliver events normally.
func TestCommitHookSuccessOrder(t *testing.T) {
	m := New()
	hookDone := false
	m.SetCommitHook(func(context.Context, string, []rdf.ChangeOp) error {
		hookDone = true
		return nil
	})
	var sawHookDone bool
	m.Subscribe(EventSchemaGraph, "watcher", func(Event) { sawHookDone = hookDone })

	txn, err := m.Begin("loader")
	if err != nil {
		t.Fatal(err)
	}
	txn.Emit(EventSchemaGraph, "s1")
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if !sawHookDone {
		t.Fatal("events delivered before the durability hook ran")
	}
}

// TestCommitHookEmptyTxn: committing without mutations still calls the
// hook (with no ops) so the durable log can advance its txn ids.
func TestCommitHookEmptyTxn(t *testing.T) {
	m := New()
	calls, opCount := 0, -1
	m.SetCommitHook(func(_ context.Context, _ string, ops []rdf.ChangeOp) error {
		calls++
		opCount = len(ops)
		return nil
	})
	txn, err := m.Begin("loader")
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || opCount != 0 {
		t.Fatalf("calls=%d ops=%d, want 1 call with 0 ops", calls, opCount)
	}
}
