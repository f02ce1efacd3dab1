package wal

// Kill-and-replay tests: each WAL failpoint is armed in turn and the
// store is "crashed" (error faults fail the append cleanly; panic faults
// abandon the store mid-operation, like kill -9 between two syscalls).
// Recovery from the directory must then land on a deterministic state:
//
//	error at wal.append / wal.fsync → commit fails, txn never durable
//	panic at wal.append             → crash before the write, txn absent
//	panic at wal.fsync              → crash after the write, txn durable
//	panic at wal.snapshot           → old snapshot + intact log win
//	error at wal.recover            → Open reports the fault
//	panic or error at wal.rotate    → snapshot + unrotated log win, and
//	                                  every retained frame still ships
//	error at wal.read               → the poll fails; nothing ships
//
// A store that survives a wal.fsync panic (the server and the replica's
// tail loop both recover one, and wbmgr rolls the txn back in memory)
// must cut the unacknowledged bytes before its next append.
//
// The final test drives the full stack (wbmgr transaction → commit hook
// → WAL) and checks the recovered graph is rdf.Equal to the pre-crash
// committed state — the acceptance bar of the durable-service issue.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/blackboard"
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/wbmgr"
)

// arm enables one rule and guarantees a clean chaos state afterwards.
func arm(t *testing.T, site chaos.Site, kind chaos.FaultKind) {
	t.Helper()
	chaos.Enable(site, chaos.Rule{Kind: kind, Every: 1, Limit: 1})
	t.Cleanup(chaos.Reset)
}

// crash runs fn expecting an injected panic, and reports whether one
// arrived (the test's stand-in for the process dying).
func crash(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected an injected panic, got none")
		}
		if _, ok := r.(*chaos.Fault); !ok {
			panic(r)
		}
	}()
	fn()
}

// seedTxn appends one committed transaction to the store and mirrors it
// on the live graph, returning the ops.
func seedTxn(t *testing.T, s *Store, lines ...string) []rdf.ChangeOp {
	t.Helper()
	ops := mustOps(t, lines...)
	for _, op := range ops {
		if op.Add {
			s.Graph().Add(op.T)
		} else {
			s.Graph().Remove(op.T)
		}
	}
	if err := s.AppendTxn(ops); err != nil {
		t.Fatalf("AppendTxn: %v", err)
	}
	return ops
}

func TestChaosAppendErrorFailsCommitCleanly(t *testing.T) {
	s := newStore(t, Options{})
	seedTxn(t, s, `<urn:a> <urn:p> <urn:b> .`)
	committed := s.Graph().Clone()

	arm(t, SiteAppend, chaos.FaultError)
	err := s.AppendTxn(mustOps(t, `<urn:x> <urn:p> <urn:y> .`))
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("AppendTxn = %v, want injected fault", err)
	}
	chaos.Reset()

	// The failed transaction must not be durable, and the store must
	// still accept appends on a clean boundary.
	g, stats := reopen(t, s.Dir())
	if stats.TornTail || !rdf.Equal(g, committed) {
		t.Fatalf("after append fault: stats=%v", stats)
	}
	seedTxn(t, s, `<urn:x> <urn:p> <urn:y> .`)
	g, _ = reopen(t, s.Dir())
	if !rdf.Equal(g, s.Graph()) {
		t.Fatal("store unusable after append fault")
	}
}

func TestChaosFsyncErrorRemovesUndurableBytes(t *testing.T) {
	s := newStore(t, Options{})
	seedTxn(t, s, `<urn:a> <urn:p> <urn:b> .`)
	committed := s.Graph().Clone()
	sizeBefore := s.LogSize()

	arm(t, SiteFsync, chaos.FaultError)
	err := s.AppendTxn(mustOps(t, `<urn:x> <urn:p> <urn:y> .`))
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("AppendTxn = %v, want injected fault", err)
	}
	chaos.Reset()

	// The write happened before the fsync fault; the store must have
	// truncated it back, or the rolled-back transaction would resurrect.
	if s.LogSize() != sizeBefore {
		t.Fatalf("log grew across a failed fsync: %d → %d", sizeBefore, s.LogSize())
	}
	g, stats := reopen(t, s.Dir())
	if stats.CommittedTxns != 1 || !rdf.Equal(g, committed) {
		t.Fatalf("failed-fsync txn resurrected: stats=%v", stats)
	}
}

func TestChaosAppendPanicCrashLosesTxn(t *testing.T) {
	s := newStore(t, Options{})
	seedTxn(t, s, `<urn:a> <urn:p> <urn:b> .`)
	committed := s.Graph().Clone()

	arm(t, SiteAppend, chaos.FaultPanic)
	crash(t, func() { s.AppendTxn(mustOps(t, `<urn:x> <urn:p> <urn:y> .`)) })
	chaos.Reset()

	// Crash before the write: the transaction must be absent.
	g, stats := reopen(t, s.Dir())
	if stats.CommittedTxns != 1 || !rdf.Equal(g, committed) {
		t.Fatalf("pre-write crash leaked a txn: stats=%v", stats)
	}
}

func TestChaosFsyncPanicCrashKeepsWrittenTxn(t *testing.T) {
	s := newStore(t, Options{})
	ops1 := seedTxn(t, s, `<urn:a> <urn:p> <urn:b> .`)
	ops2 := mustOps(t, `<urn:x> <urn:p> <urn:y> .`)

	arm(t, SiteFsync, chaos.FaultPanic)
	crash(t, func() { s.AppendTxn(ops2) })
	chaos.Reset()

	// Crash after the write reached the file: recovery replays the fully
	// framed transaction — equivalent to a crash between disk write and
	// commit acknowledgment, where the WAL's contract is "committed".
	g, stats := reopen(t, s.Dir())
	want := applyOps(applyOps(rdf.NewGraph(), ops1), ops2)
	if stats.CommittedTxns != 2 || !rdf.Equal(g, want) {
		t.Fatalf("post-write crash lost the txn: stats=%v\n%s", stats, rdf.MarshalNTriples(g))
	}
}

func TestChaosSnapshotPanicLeavesRecoverableDir(t *testing.T) {
	s := newStore(t, Options{})
	seedTxn(t, s, `<urn:a> <urn:p> <urn:b> .`)
	seedTxn(t, s, `<urn:c> <urn:p> <urn:d> .`)
	committed := s.Graph().Clone()

	arm(t, SiteSnapshot, chaos.FaultPanic)
	crash(t, func() { s.SnapshotNow() })
	chaos.Reset()

	// The crash hit after the temp file was written but before the
	// rename: the (absent) old snapshot plus the intact log still hold
	// everything, and the leftover temp file is swept away.
	g, stats := reopen(t, s.Dir())
	if stats.CommittedTxns != 2 || !rdf.Equal(g, committed) {
		t.Fatalf("mid-snapshot crash lost state: stats=%v", stats)
	}
}

func TestChaosSnapshotErrorDoesNotFailAppend(t *testing.T) {
	// Auto-snapshot rides on the back of a commit that is already
	// durable; a snapshot fault must not surface as a commit failure.
	s := newStore(t, Options{SnapshotEvery: 1})
	arm(t, SiteSnapshot, chaos.FaultError)
	seedTxn(t, s, `<urn:a> <urn:p> <urn:b> .`) // fails inside the test on a non-nil AppendTxn
	if s.LogSize() == 0 {
		t.Fatal("log truncated despite the failed snapshot")
	}
	chaos.Reset()
	// The retry at the next commit folds both transactions away.
	seedTxn(t, s, `<urn:c> <urn:p> <urn:d> .`)
	if s.LogSize() != 0 {
		t.Fatalf("snapshot retry did not fire: log %d bytes", s.LogSize())
	}
	g, stats := reopen(t, s.Dir())
	if stats.SnapshotTriples != 2 || !rdf.Equal(g, s.Graph()) {
		t.Fatalf("stats = %v", stats)
	}
}

func TestChaosRecoverFaultFailsOpen(t *testing.T) {
	dir := t.TempDir()
	arm(t, SiteRecover, chaos.FaultError)
	if _, err := Open(dir, Options{SnapshotEvery: -1}); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("Open = %v, want injected fault", err)
	}
	chaos.Reset()
	if _, err := Open(dir, Options{SnapshotEvery: -1}); err != nil {
		t.Fatalf("Open after fault cleared: %v", err)
	}
}

// TestChaosSurvivedFsyncPanicIsNotReplayed: the store outlives a panic
// between a batch's write and its fsync, and the txn is rolled back in
// memory (here: never mirrored onto the graph). The next commit must not
// land after the rolled-back bytes, or the next Open replays them.
func TestChaosSurvivedFsyncPanicIsNotReplayed(t *testing.T) {
	s := newStore(t, Options{})
	seedTxn(t, s, `<urn:a> <urn:p> <urn:b> .`)
	arm(t, SiteFsync, chaos.FaultPanic)
	crash(t, func() { s.AppendTxn(mustOps(t, `<urn:x> <urn:p> <urn:y> .`)) })
	chaos.Reset()
	ops2 := seedTxn(t, s, `<urn:c> <urn:p> <urn:d> .`)

	g, stats := reopen(t, s.Dir())
	if stats.CommittedTxns != 2 || stats.TornTail || !rdf.Equal(g, s.Graph()) {
		t.Fatalf("recovered %d triples (%v), live graph %d: the rolled-back txn was replayed",
			g.Len(), stats, s.Graph().Len())
	}
	// Followers are served the acknowledged txns only.
	data, n, _, ok := s.FramesSince(1, 0)
	if !ok || n != 1 || !bytes.Equal(data, EncodeTxn(2, ops2)) {
		t.Fatalf("FramesSince(1) = %d txns, ok %v; want txn 2 as committed", n, ok)
	}
}

// TestChaosSurvivedFsyncPanicKeepsLaterAcks: after a survived fsync
// panic and an acknowledged commit, a failed fsync truncates back to the
// durable size. That size must still end on the acknowledged txn, not
// cut into it.
func TestChaosSurvivedFsyncPanicKeepsLaterAcks(t *testing.T) {
	s := newStore(t, Options{})
	seedTxn(t, s, `<urn:a> <urn:p> <urn:b> .`)
	arm(t, SiteFsync, chaos.FaultPanic)
	crash(t, func() { s.AppendTxn(mustOps(t, `<urn:x> <urn:p> <urn:y> .`)) })
	chaos.Reset()
	seedTxn(t, s, `<urn:c> <urn:p> <urn:d> .`)
	arm(t, SiteFsync, chaos.FaultError)
	if err := s.AppendTxn(mustOps(t, `<urn:e> <urn:p> <urn:f> .`)); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("AppendTxn = %v, want injected fault", err)
	}
	chaos.Reset()

	g, stats := reopen(t, s.Dir())
	if stats.CommittedTxns != 2 || stats.TornTail || !rdf.Equal(g, s.Graph()) {
		t.Fatalf("recovered %d triples (%v), live graph %d: an acknowledged txn was cut",
			g.Len(), stats, s.Graph().Len())
	}
}

// rotationFixture commits txns 1–2, rotates them into wal.prev, and
// commits txns 3–4 into the live log, returning each txn's batch.
func rotationFixture(t *testing.T, s *Store) map[uint64][]byte {
	t.Helper()
	want := map[uint64][]byte{}
	for txn := uint64(1); txn <= 4; txn++ {
		if txn == 3 {
			if err := s.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
		}
		ops := seedTxn(t, s, fmt.Sprintf(`<urn:s%d> <urn:p> <urn:o> .`, txn))
		want[txn] = EncodeTxn(txn, ops)
	}
	return want
}

func TestChaosRotatePanicLeavesServableDir(t *testing.T) {
	s := newStore(t, Options{})
	want := rotationFixture(t, s)
	committed := s.Graph().Clone()

	arm(t, SiteRotate, chaos.FaultPanic)
	crash(t, func() { s.SnapshotNow() })
	chaos.Reset()

	// The snapshot and header are durable, the log never rotated: the
	// snapshot plus an idempotent replay of the live log recover, and a
	// follower that applied txn 1 is still served 2–4.
	g, stats := reopen(t, s.Dir())
	if stats.CommittedTxns != 2 || !rdf.Equal(g, committed) {
		t.Fatalf("crash before rotation lost state: stats=%v", stats)
	}
	s2, err := Open(s.Dir(), Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkFrames(t, s2, want, 1, 4, 0)
}

func TestChaosRotateErrorKeepsServing(t *testing.T) {
	s := newStore(t, Options{})
	want := rotationFixture(t, s)

	arm(t, SiteRotate, chaos.FaultError)
	if err := s.SnapshotNow(); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("SnapshotNow = %v, want injected fault", err)
	}
	chaos.Reset()
	checkFrames(t, s, want, 1, 4, 0)
	g, _ := reopen(t, s.Dir())
	if !rdf.Equal(g, s.Graph()) {
		t.Fatal("failed rotation left an unrecoverable directory")
	}

	// The store keeps committing, and the next snapshot rotates.
	ops := seedTxn(t, s, `<urn:s5> <urn:p> <urn:o> .`)
	want[5] = EncodeTxn(5, ops)
	if err := s.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	checkFrames(t, s, want, 2, 5, 0)
	checkBootstrap(t, s, 1)
	g, stats := reopen(t, s.Dir())
	if stats.CommittedTxns != 0 || !rdf.Equal(g, s.Graph()) {
		t.Fatalf("after the retried rotation: stats=%v", stats)
	}
}

// TestChaosReadErrorFailsPoll: a failed segment read is reported as an
// error by PollFrames and as ok=false by FramesSince — never as frames
// or as caught up — and the next poll serves everything.
func TestChaosReadErrorFailsPoll(t *testing.T) {
	s := newStore(t, Options{})
	want := rotationFixture(t, s)

	arm(t, SiteRead, chaos.FaultError)
	data, n, _, ok, err := s.PollFrames(context.Background(), 0, time.Second, 0)
	if !errors.Is(err, chaos.ErrInjected) || ok || n != 0 || data != nil {
		t.Fatalf("PollFrames = %d txns, ok %v, err %v; want the injected fault", n, ok, err)
	}
	chaos.Enable(SiteRead, chaos.Rule{Kind: chaos.FaultError, Every: 1, Limit: 1})
	checkBootstrap(t, s, 2)
	chaos.Reset()
	checkFrames(t, s, want, 0, 4, 0)
}

// TestKillAndReplayThroughManager is the end-to-end durability proof:
// transactions flow wbmgr → commit hook → WAL, the process "dies" with a
// panic between the log write and the commit acknowledgment, and a fresh
// Open recovers a graph bit-identical (rdf.Equal) to the committed
// pre-crash state.
func TestKillAndReplayThroughManager(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	bb := blackboard.NewFromGraph(s.Graph())
	m := wbmgr.NewWith(bb)
	m.SetCommitHook(func(_ context.Context, _ string, ops []rdf.ChangeOp) error {
		return s.AppendTxn(ops)
	})

	commit := func(lines ...string) {
		t.Helper()
		txn, err := m.Begin("loader")
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range mustOps(t, lines...) {
			if op.Add {
				bb.Graph().Add(op.T)
			} else {
				bb.Graph().Remove(op.T)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit(`<urn:s1> <urn:p> "one" .`, `<urn:s2> <urn:p> "two" .`)
	commit(`-<urn:s2> <urn:p> "two" .`, `<urn:s3> <urn:p> "three" .`)
	// Capture the state including the transaction that will be cut down
	// mid-commit: its bytes reach the log before the crash point, so the
	// WAL contract says it survives.
	txn, err := m.Begin("loader")
	if err != nil {
		t.Fatal(err)
	}
	last := mustOps(t, `<urn:s4> <urn:p> "four" .`)
	bb.Graph().Add(last[0].T)
	wantRecovered := bb.Graph().Clone()

	arm(t, SiteFsync, chaos.FaultPanic)
	crash(t, func() { txn.Commit() })
	chaos.Reset()

	// In-process, the manager rolled the transaction back (the commit
	// never acknowledged)…
	if bb.Graph().Has(last[0].T) {
		t.Fatal("manager did not roll back the crashed commit")
	}
	// …but on disk it is durable, exactly like a crash after the write
	// syscall: the recovered graph includes it.
	s2, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	defer s2.Close()
	if !rdf.Equal(s2.Graph(), wantRecovered) {
		t.Fatalf("recovered graph differs from pre-crash committed state:\n%s\nwant:\n%s",
			rdf.MarshalNTriples(s2.Graph()), rdf.MarshalNTriples(wantRecovered))
	}
	if st := s2.Stats(); st.CommittedTxns != 3 || st.TornTail {
		t.Fatalf("recovery stats = %v", st)
	}
}

// TestAutoSnapshotPanicKeepsDurableCommit drives commits through a
// manager whose commit hook appends to a store that snapshots every two
// commits, and arms a one-shot panic at each auto-snapshot site for the
// second commit. That commit is durable before its snapshot starts, so
// it must return nil and stay committed everywhere: in the live graph,
// in what recovery reads, and in the frames a follower is served. The
// third commit retries the snapshot.
func TestAutoSnapshotPanicKeepsDurableCommit(t *testing.T) {
	for _, site := range []chaos.Site{SiteSnapshot, SiteRotate} {
		t.Run(string(site), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{SnapshotEvery: 2, Metrics: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			bb := blackboard.NewFromGraph(s.Graph())
			m := wbmgr.NewWith(bb)
			m.SetCommitHook(func(ctx context.Context, _ string, ops []rdf.ChangeOp) error {
				return s.AppendTxnContext(ctx, ops)
			})
			commit := func(line string) (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("commit panicked: %v", r)
					}
				}()
				txn, err := m.Begin("loader")
				if err != nil {
					return err
				}
				bb.Graph().Add(mustOps(t, line)[0].T)
				return txn.Commit()
			}
			lines := []string{`<urn:s1> <urn:p> "one" .`, `<urn:s2> <urn:p> "two" .`, `<urn:s3> <urn:p> "three" .`}
			if err := commit(lines[0]); err != nil {
				t.Fatal(err)
			}
			arm(t, site, chaos.FaultPanic)
			if err := commit(lines[1]); err != nil {
				t.Fatalf("second commit = %v; want nil, the txn is durable", err)
			}
			chaos.Reset()
			for _, line := range lines[:2] {
				if tr := mustOps(t, line)[0].T; !bb.Graph().Has(tr) {
					t.Fatalf("live graph lost %v", tr)
				}
			}
			got, _, err := Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !rdf.Equal(got, bb.Graph()) {
				t.Fatalf("recovered graph differs from the live one:\n%s\nwant:\n%s", rdf.MarshalNTriples(got), rdf.MarshalNTriples(bb.Graph()))
			}
			if _, n, last, ok := s.FramesSince(0, 0); !ok || n != 2 || last != 2 {
				t.Fatalf("FramesSince(0) = %d txns up to %d, ok %v; want both", n, last, ok)
			}
			if _, err := os.Stat(filepath.Join(dir, SnapshotFile+".tmp")); !os.IsNotExist(err) {
				t.Fatalf("the panicking snapshot left its temporary file: %v", err)
			}

			if err := commit(lines[2]); err != nil {
				t.Fatal(err)
			}
			if s.LogSize() != 0 {
				t.Fatalf("log holds %d bytes after the third commit; want the retried snapshot to rotate it", s.LogSize())
			}
			got, _, err = Recover(dir)
			if err != nil || !rdf.Equal(got, bb.Graph()) {
				t.Fatalf("after the retried snapshot recovery differs from the live graph (%v)", err)
			}
		})
	}
}

// TestAutoSnapshotSpan: the commit that reaches SnapshotEvery records a
// wal.snapshot span under its wal.append, carrying the graph's triple
// count; the commits before and after it record none. A snapshot that
// fails or panics sets the span's error, and the next commit's retry
// records a clean one.
func TestAutoSnapshotSpan(t *testing.T) {
	s, err := Open(t.TempDir(), Options{SnapshotEvery: 3, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := obs.NewTraceStore(0)
	n := 0
	// commit adds one triple in a traced commit and returns the
	// commit's wal.snapshot span, if it has one.
	commit := func() (obs.SpanRecord, bool) {
		t.Helper()
		n++
		root, ctx := ts.StartRoot(context.Background(), "commit", obs.SpanContext{})
		tr := rdf.Triple{S: rdf.IRI(fmt.Sprintf("urn:s%d", n)), P: rdf.IRI("urn:p"), O: rdf.IntLiteral(n)}
		s.Graph().Add(tr)
		if err := s.AppendTxnContext(ctx, []rdf.ChangeOp{{Add: true, T: tr}}); err != nil {
			t.Fatalf("commit %d: %v", n, err)
		}
		root.End()
		trace, _ := ts.Get(root.Context().Trace)
		var appendID obs.SpanID
		var snap *obs.SpanRecord
		for i, sp := range trace.Spans {
			switch sp.Name {
			case "wal.append":
				appendID = sp.ID
			case "wal.snapshot":
				snap = &trace.Spans[i]
			}
		}
		if snap == nil {
			return obs.SpanRecord{}, false
		}
		if snap.Parent != appendID || appendID == 0 {
			t.Fatalf("commit %d: wal.snapshot's parent is %v, not the wal.append span %v", n, snap.Parent, appendID)
		}
		return *snap, true
	}
	attr := func(sp obs.SpanRecord, key string) string {
		for _, a := range sp.Attrs {
			if a.Key == key {
				return a.Value
			}
		}
		return ""
	}
	for _, want := range []bool{false, false, true, false, false, true} {
		sp, ok := commit()
		if ok != want {
			t.Fatalf("commit %d: wal.snapshot span present = %v, want %v", n, ok, want)
		}
		if ok && (attr(sp, "triples") != fmt.Sprint(n) || sp.Err != "") {
			t.Fatalf("commit %d: wal.snapshot span triples=%q err=%q, want %d and none", n, attr(sp, "triples"), sp.Err, n)
		}
	}
	for _, kind := range []chaos.FaultKind{chaos.FaultError, chaos.FaultPanic} {
		for i := 0; i < 2; i++ {
			if _, ok := commit(); ok {
				t.Fatalf("commit %d: a wal.snapshot span before the cadence", n)
			}
		}
		arm(t, SiteSnapshot, kind)
		sp, ok := commit()
		if !ok || sp.Err == "" {
			t.Fatalf("%v: failed snapshot's span present = %v with err %q, want an error", kind, ok, sp.Err)
		}
		chaos.Reset()
		if sp, ok := commit(); !ok || sp.Err != "" {
			t.Fatalf("%v: the retry's span present = %v with err %q, want a clean one", kind, ok, sp.Err)
		}
	}
}
