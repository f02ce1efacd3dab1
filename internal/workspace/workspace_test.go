package workspace

import (
	"context"
	"errors"
	"os"
	"path/filepath"
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

// commit mimics the wbmgr commit hook: mutate the blackboard graph,
// then durably log the ops.
func commit(t *testing.T, ws *Workspace, line string) {
	t.Helper()
	tr := mustTriple(t, line)
	ws.Blackboard().Graph().Add(tr)
	if err := ws.AppendTxn(context.Background(), []rdf.ChangeOp{{Add: true, T: tr}}); err != nil {
		t.Fatalf("AppendTxn: %v", err)
	}
}

func TestValidName(t *testing.T) {
	for name, want := range map[string]bool{
		"default": true, "team-a": true, "a.b_c-9": true, "0x": true,
		"": false, "UPPER": false, "has space": false, "-lead": false,
		".lead": false, "slash/y": false,
		strings.Repeat("a", 64): true,
		strings.Repeat("a", 65): false,
	} {
		if got := ValidName(name); got != want {
			t.Errorf("ValidName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestManagerLifecycle(t *testing.T) {
	m, err := NewManager(Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m.Close()

	if m.Default() == nil || m.Default().Name() != DefaultName {
		t.Fatal("manager without a default workspace")
	}
	if _, err := m.Create("team-a", Quota{}); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := m.Create("team-a", Quota{}); err == nil ||
		!strings.Contains(err.Error(), "already exists") {
		t.Fatalf("duplicate create: err=%v", err)
	}
	if _, err := m.Create("Bad Name", Quota{}); err == nil {
		t.Fatal("invalid name accepted")
	}
	if _, ok := m.Get("ghost"); ok {
		t.Fatal("Get invented a workspace")
	}
	if err := m.Delete(DefaultName); err == nil ||
		!strings.Contains(err.Error(), "cannot be deleted") {
		t.Fatalf("delete default: err=%v", err)
	}
	if got := m.Names(); len(got) != 2 || got[0] != DefaultName || got[1] != "team-a" {
		t.Fatalf("Names = %v", got)
	}
	if err := m.Delete("team-a"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := m.Delete("team-a"); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("double delete: err=%v", err)
	}

	// Ensure is the replica supervisor's idempotent create.
	w1, err := m.Ensure("mirror", Quota{})
	if err != nil {
		t.Fatalf("Ensure: %v", err)
	}
	w2, err := m.Ensure("mirror", Quota{})
	if err != nil || w1 != w2 {
		t.Fatalf("Ensure not idempotent: %p %p %v", w1, w2, err)
	}
}

func TestQuotaErrors(t *testing.T) {
	m, err := NewManager(Options{Root: t.TempDir(), Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m.Close()

	ws, err := m.Create("small", Quota{MaxTriples: 1, MaxWALBytes: 1})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := ws.PreTxnQuota(); err != nil {
		t.Fatalf("empty partition refused entry: %v", err)
	}
	commit(t, ws, `<urn:s> <urn:p> "one"`)

	err = ws.PreTxnQuota()
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Limit != "max_wal_bytes" || qe.Workspace != "small" {
		t.Fatalf("PreTxnQuota = %v, want *QuotaError{max_wal_bytes, small}", err)
	}
	if !strings.Contains(err.Error(), "max_wal_bytes") || !strings.Contains(err.Error(), `"small"`) {
		t.Fatalf("quota error does not name limit and tenant: %v", err)
	}

	if err := ws.PostTxnQuota(); err != nil {
		t.Fatalf("at-limit triple count rejected: %v", err)
	}
	ws.Blackboard().Graph().Add(mustTriple(t, `<urn:s> <urn:p> "two"`))
	err = ws.PostTxnQuota()
	qe = nil
	if !errors.As(err, &qe) || qe.Limit != "max_triples" || qe.Max != 1 || qe.Observed != 2 {
		t.Fatalf("PostTxnQuota = %v, want *QuotaError{max_triples, 1, 2}", err)
	}

	// SetQuota lifts the limits live.
	ws.SetQuota(Quota{})
	if ws.PreTxnQuota() != nil || ws.PostTxnQuota() != nil {
		t.Fatal("zero quota still enforced")
	}
}

func TestOpenHighWaterSurvivesReboot(t *testing.T) {
	root := t.TempDir()
	m1, err := NewManager(Options{Root: root, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	for i, line := range []string{
		`<urn:s> <urn:p> "a"`, `<urn:s> <urn:p> "b"`, `<urn:s> <urn:p> "c"`,
	} {
		commit(t, m1.Default(), line)
		if hw := m1.Default().HighWater(); hw != uint64(i+1) {
			t.Fatalf("HighWater after txn %d = %d", i+1, hw)
		}
	}
	if err := m1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	m2, err := NewManager(Options{Root: root, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("NewManager (reboot): %v", err)
	}
	defer m2.Close()
	ws := m2.Default()
	if ws.OpenHighWater() != 3 {
		t.Fatalf("OpenHighWater after reboot = %d, want 3 (session ids would collide)", ws.OpenHighWater())
	}
	if ws.Blackboard().Graph().Len() != 3 {
		t.Fatalf("recovered graph = %d triples, want 3", ws.Blackboard().Graph().Len())
	}
	if ws.Recovery() == "" {
		t.Fatal("no recovery summary after reboot")
	}
}

func TestDeleteRemovesPartitionDir(t *testing.T) {
	root := t.TempDir()
	m, err := NewManager(Options{Root: root, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m.Close()
	ws, err := m.Create("doomed", Quota{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	commit(t, ws, `<urn:s> <urn:p> "gone"`)
	dir := ws.Dir()
	if dir != filepath.Join(root, "ws", "doomed") {
		t.Fatalf("partition dir = %q", dir)
	}
	if err := m.Delete("doomed"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := ws.AppendTxn(context.Background(), []rdf.ChangeOp{{Add: true, T: mustTriple(t, `<urn:s> <urn:p> "late"`)}}); err == nil {
		t.Fatal("deleted workspace accepted an append")
	}
	if _, statErr := os.Stat(dir); statErr == nil {
		t.Fatalf("partition dir %q survives deletion", dir)
	}
}
