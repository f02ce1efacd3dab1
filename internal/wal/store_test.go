package wal

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// newStore opens a store in a fresh temp dir with auto-snapshots off
// (tests control snapshot timing explicitly) and an isolated registry.
func newStore(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = -1
	}
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// reopen recovers the store's directory into a fresh read-only graph,
// simulating a restart after the original process vanished.
func reopen(t *testing.T, dir string) (*rdf.Graph, RecoveryStats) {
	t.Helper()
	g, stats, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover(%s): %v", dir, err)
	}
	return g, stats
}

func TestAppendAndRecover(t *testing.T) {
	s := newStore(t, Options{})
	ops1 := mustOps(t, `<urn:a> <urn:p> <urn:b> .`, `<urn:c> <urn:p> <urn:d> .`)
	ops2 := mustOps(t, `-<urn:c> <urn:p> <urn:d> .`, `<urn:e> <urn:p> <urn:f> .`)
	for _, ops := range [][]rdf.ChangeOp{ops1, ops2} {
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
	}
	g, stats := reopen(t, s.Dir())
	if !rdf.Equal(g, s.Graph()) {
		t.Fatalf("recovered graph differs from live graph:\n%s\nvs\n%s",
			rdf.MarshalNTriples(g), rdf.MarshalNTriples(s.Graph()))
	}
	if stats.CommittedTxns != 2 || stats.ReplayedOps != 4 || stats.TornTail {
		t.Fatalf("stats = %v", stats)
	}
}

func TestEmptyTxnStillAdvances(t *testing.T) {
	s := newStore(t, Options{})
	if err := s.AppendTxn(nil); err != nil {
		t.Fatalf("AppendTxn(nil): %v", err)
	}
	if err := s.AppendTxn(nil); err != nil {
		t.Fatalf("AppendTxn(nil) #2: %v", err)
	}
	_, stats := reopen(t, s.Dir())
	if stats.CommittedTxns != 2 || stats.ReplayedOps != 0 {
		t.Fatalf("stats = %v", stats)
	}
}

func TestSnapshotTruncatesLog(t *testing.T) {
	reg := obs.NewRegistry()
	s := newStore(t, Options{Metrics: reg})
	ops := mustOps(t, `<urn:a> <urn:p> <urn:b> .`)
	s.Graph().Add(ops[0].T)
	if err := s.AppendTxn(ops); err != nil {
		t.Fatal(err)
	}
	if s.LogSize() == 0 {
		t.Fatal("log empty after append")
	}
	if err := s.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	if s.LogSize() != 0 {
		t.Fatalf("log not truncated: %d bytes", s.LogSize())
	}
	g, stats := reopen(t, s.Dir())
	if stats.SnapshotTriples != 1 || stats.CommittedTxns != 0 {
		t.Fatalf("stats = %v", stats)
	}
	if !rdf.Equal(g, s.Graph()) {
		t.Fatal("snapshot lost state")
	}
}

func TestAutoSnapshotCadence(t *testing.T) {
	s := newStore(t, Options{SnapshotEvery: 3})
	ops := mustOps(t, `<urn:a> <urn:p> <urn:b> .`)
	s.Graph().Add(ops[0].T)
	for i := 0; i < 3; i++ {
		if err := s.AppendTxn(ops); err != nil {
			t.Fatal(err)
		}
	}
	if s.LogSize() != 0 {
		t.Fatalf("auto-snapshot did not fire: log %d bytes", s.LogSize())
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), SnapshotFile)); err != nil {
		t.Fatalf("snapshot file: %v", err)
	}
}

func TestCloseFoldsLogIntoSnapshot(t *testing.T) {
	s := newStore(t, Options{})
	ops := mustOps(t, `<urn:a> <urn:p> <urn:b> .`)
	s.Graph().Add(ops[0].T)
	if err := s.AppendTxn(ops); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.AppendTxn(ops); err == nil {
		t.Fatal("append after Close succeeded")
	}
	_, stats := reopen(t, s.Dir())
	if stats.SnapshotTriples != 1 || stats.LogBytes != 0 {
		t.Fatalf("stats after Close = %v", stats)
	}
}

func TestReplayIsIdempotentOverSnapshot(t *testing.T) {
	// The crash window between snapshot rename and log truncation leaves
	// a snapshot that already contains the logged transactions. Replay
	// must be a no-op, not a duplication or an error.
	s := newStore(t, Options{})
	ops := mustOps(t, `<urn:a> <urn:p> <urn:b> .`, `-<urn:zz> <urn:p> <urn:zz> .`)
	s.Graph().Add(ops[0].T)
	if err := s.AppendTxn(ops); err != nil {
		t.Fatal(err)
	}
	// Write the snapshot by hand without truncating the log.
	f, err := os.Create(filepath.Join(s.Dir(), SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := rdf.WriteNTriples(f, s.Graph()); err != nil {
		t.Fatal(err)
	}
	f.Close()

	g, stats := reopen(t, s.Dir())
	if stats.TornTail || stats.CommittedTxns != 1 {
		t.Fatalf("stats = %v", stats)
	}
	if !rdf.Equal(g, s.Graph()) {
		t.Fatal("idempotent replay changed the graph")
	}
}

func TestLeftoverTmpSnapshotIgnored(t *testing.T) {
	s := newStore(t, Options{})
	ops := mustOps(t, `<urn:a> <urn:p> <urn:b> .`)
	s.Graph().Add(ops[0].T)
	if err := s.AppendTxn(ops); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-snapshot: a half-written temp file remains.
	if err := os.WriteFile(filepath.Join(s.Dir(), snapshotTmp), []byte("<urn:half"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, _ := reopen(t, s.Dir())
	if !rdf.Equal(g, s.Graph()) {
		t.Fatal("tmp snapshot corrupted recovery")
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), snapshotTmp)); !os.IsNotExist(err) {
		t.Fatalf("tmp snapshot not removed: %v", err)
	}
}

// TestRecoverEscapedIRIs logs and snapshots IRIs holding a space, '>'
// and '\' — what quoted SQL identifiers and inferred domain names put
// into element IRIs — and recovers them from the log and from the
// snapshot.
func TestRecoverEscapedIRIs(t *testing.T) {
	s := newStore(t, Options{})
	ops := []rdf.ChangeOp{
		{Add: true, T: rdf.Triple{S: rdf.IRI("urn:schema/orders#orders/Order Lines"), P: rdf.IRI("urn:p"), O: rdf.IRI("urn:domain/Order Lines.line no (inferred)")}},
		{Add: true, T: rdf.Triple{S: rdf.IRI(`urn:a>b\c`), P: rdf.IRI("urn:prop:check expr"), O: rdf.Literal(`line no > 0  `)}},
		{Add: true, T: rdf.Triple{S: rdf.IRI("urn:two  spaces"), P: rdf.IRI("urn:p"), O: rdf.TypedLiteral("1", "urn:type with space")}},
	}
	for _, op := range ops {
		s.Graph().Add(op.T)
	}
	if err := s.AppendTxn(ops); err != nil {
		t.Fatal(err)
	}
	g, stats := reopen(t, s.Dir())
	if stats.ReplayedOps != len(ops) || !rdf.Equal(g, s.Graph()) {
		t.Fatalf("log replay: stats %v, recovered\n%s", stats, rdf.MarshalNTriples(g))
	}
	if err := s.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	g, stats = reopen(t, s.Dir())
	if stats.SnapshotTriples != len(ops) || !rdf.Equal(g, s.Graph()) {
		t.Fatalf("snapshot restore: stats %v, recovered\n%s", stats, rdf.MarshalNTriples(g))
	}
}
