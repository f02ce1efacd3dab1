package server_test

// Per-tenant replication: a replica mirrors the primary's whole tenant
// table — its supervisor discovers workspaces created after the tail
// started, each partition ships independently, and one promotion moves
// every workspace to the new primary under a single bumped epoch.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/repl"
)

// fetchWsSnap pulls one workspace's graph through the workspace-scoped
// bootstrap endpoint.
func fetchWsSnap(url, ws string) (*rdf.Graph, uint64, error) {
	g, txn, _, err := repl.NewFetcher(url, nil).ForWorkspace(ws).FetchSnapshot(context.Background())
	return g, txn, err
}

// waitWsConverged blocks until one workspace is txn-identical and
// rdf.Equal across the two nodes.
func waitWsConverged(t *testing.T, priURL, repURL, ws string) *rdf.Graph {
	t.Helper()
	var lastState string
	deadline := time.Now().Add(convergeWait)
	for time.Now().Before(deadline) {
		gp, tp, err := fetchWsSnap(priURL, ws)
		if err == nil {
			gr, tr, rerr := fetchWsSnap(repURL, ws)
			if rerr == nil && tp == tr && rdf.Equal(gp, gr) {
				return gp
			}
			lastState = fmt.Sprintf("workspace %s: primary txn %d vs replica txn %d (err %v)", ws, tp, tr, rerr)
		} else {
			lastState = err.Error()
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("workspace %s did not converge: %s", ws, lastState)
	return nil
}

func TestReplicationMirrorsWorkspaces(t *testing.T) {
	pri := newNode(t, t.TempDir(), "")

	// One tenant exists before the replica boots, with data in both it
	// and the default workspace.
	if _, err := pri.c.CreateWorkspace("team-a", 0, 0); err != nil {
		t.Fatalf("CreateWorkspace: %v", err)
	}
	if _, err := pri.c.LoadSchema("d0", "sql", "CREATE TABLE d (id INT);"); err != nil {
		t.Fatalf("default load: %v", err)
	}
	if _, err := pri.c.ForWorkspace("team-a").LoadSchema("a0", "sql", "CREATE TABLE a (id INT);"); err != nil {
		t.Fatalf("team-a load: %v", err)
	}

	rep := newNode(t, t.TempDir(), pri.ts.URL)
	waitWsConverged(t, pri.ts.URL, rep.ts.URL, "default")
	waitWsConverged(t, pri.ts.URL, rep.ts.URL, "team-a")

	// The replica serves tenant reads from its own mirrored partitions.
	schemas, err := rep.c.ForWorkspace("team-a").Schemas()
	if err != nil || len(schemas) != 1 || schemas[0].Name != "a0" {
		t.Fatalf("replica team-a schemas = %+v, %v", schemas, err)
	}

	// A tenant created AFTER the tail started is discovered by the
	// replica's workspace supervisor and mirrored too.
	if _, err := pri.c.CreateWorkspace("late", 0, 0); err != nil {
		t.Fatalf("CreateWorkspace(late): %v", err)
	}
	if _, err := pri.c.ForWorkspace("late").LoadSchema("l0", "sql", "CREATE TABLE l (id INT);"); err != nil {
		t.Fatalf("late load: %v", err)
	}
	waitWsConverged(t, pri.ts.URL, rep.ts.URL, "late")

	// Replicas refuse tenant writes just like default-workspace writes.
	if _, err := rep.c.ForWorkspace("team-a").LoadSchema("x", "sql", "CREATE TABLE x (id INT);"); err == nil ||
		!strings.Contains(err.Error(), "read-only") {
		t.Fatalf("replica tenant write: err=%v", err)
	}

	// One promotion takes every workspace: the new primary accepts
	// writes in all tenants under a single bumped epoch.
	preStatus, err := pri.c.ReplStatus()
	if err != nil {
		t.Fatalf("ReplStatus: %v", err)
	}
	st, err := rep.c.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if st.Epoch != preStatus.Epoch+1 {
		t.Fatalf("promoted epoch = %d, want %d", st.Epoch, preStatus.Epoch+1)
	}
	pri.kill()
	for _, ws := range []string{"default", "team-a", "late"} {
		cl := rep.c
		if ws != "default" {
			cl = rep.c.ForWorkspace(ws)
		}
		if _, err := cl.LoadSchema("post-"+ws, "sql", "CREATE TABLE p (id INT);"); err != nil {
			t.Fatalf("post-promotion write in %s: %v", ws, err)
		}
	}
}

// TestReplShippedTxnsCountPerWorkspace checks that a primary books the
// txns it ships, and the snapshots it serves, under the workspace they
// belong to: two workspaces with different txn counts are tailed by one
// replica, and the primary's /metrics shows each workspace's
// repl_txns_shipped_total equal to its txns.
func TestReplShippedTxnsCountPerWorkspace(t *testing.T) {
	pri := newNode(t, t.TempDir(), "")
	if _, err := pri.c.CreateWorkspace("team-a", 0, 0); err != nil {
		t.Fatalf("CreateWorkspace: %v", err)
	}
	if _, err := pri.c.LoadSchema("d0", "sql", "CREATE TABLE d (id INT);"); err != nil {
		t.Fatalf("default load: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := pri.c.ForWorkspace("team-a").LoadSchema(fmt.Sprintf("a%d", i), "sql", "CREATE TABLE a (id INT);"); err != nil {
			t.Fatalf("team-a load %d: %v", i, err)
		}
	}
	rep := newNode(t, t.TempDir(), pri.ts.URL)
	txns := map[string]uint64{}
	for _, ws := range []string{"default", "team-a"} {
		waitWsConverged(t, pri.ts.URL, rep.ts.URL, ws)
		_, txn, err := fetchWsSnap(pri.ts.URL, ws)
		if err != nil {
			t.Fatalf("%s snapshot: %v", ws, err)
		}
		txns[ws] = txn
	}
	if txns["default"] == txns["team-a"] {
		t.Fatalf("both workspaces at txn %d: the counts cannot tell them apart", txns["default"])
	}
	resp, err := http.Get(pri.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(body), "\n")
	for ws, txn := range txns {
		if want := fmt.Sprintf("%s{workspace=%q} %d", repl.MetricShippedTxns, ws, txn); !slices.Contains(lines, want) {
			t.Errorf("primary /metrics has no line %q", want)
		}
		served := fmt.Sprintf("%s{workspace=%q} ", repl.MetricSnapshotsServed, ws)
		if !slices.ContainsFunc(lines, func(l string) bool { return strings.HasPrefix(l, served) }) {
			t.Errorf("primary /metrics has no line starting %q", served)
		}
	}
}
