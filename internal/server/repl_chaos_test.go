package server_test

// The replication kill matrix: chaos faults at every replication-path
// injection site, asserting the correctness contract each time — the
// surviving side ends rdf.Equal to the acknowledged state, the feed
// stays exactly-once, and the system recovers (by promotion for a dead
// primary, by a replication restart for a crashed replica tail, or by
// plain retry for transient ship failures).
//
// Chaos state is process-global, so every scenario quiesces the side it
// is NOT targeting before arming a site, and disarms (chaos.Reset)
// before driving recovery.

import (
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/rdf"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wal"
)

// seedPrimary commits a few transactions and returns the mapping id.
func seedPrimary(t *testing.T, n *node) string {
	t.Helper()
	id := loadPair(t, n.c)
	if _, err := n.c.Match(id, 0.2); err != nil {
		t.Fatal(err)
	}
	return id
}

// checkReplFeedExactlyOnce asserts the node's feed delivered exactly one
// repl-txn event per shipped transaction: contiguous seqs, strictly
// ascending txn subjects, no duplicates — the exactly-once contract even
// across crash/retry cycles.
func checkReplFeedExactlyOnce(t *testing.T, n *node, wantTxns uint64) {
	t.Helper()
	evs := drainFeed(t, n.c)
	var prev uint64
	var count uint64
	for _, e := range evs {
		if e.Kind != string(server.EventReplTxn) {
			continue
		}
		txn, err := strconv.ParseUint(e.Subject, 10, 64)
		if err != nil {
			t.Fatalf("repl-txn subject %q is not a txn id", e.Subject)
		}
		if txn <= prev {
			t.Fatalf("repl-txn for txn %d after txn %d: duplicate or reordered apply", txn, prev)
		}
		prev = txn
		count++
	}
	if count != wantTxns {
		t.Fatalf("feed has %d repl-txn events, want %d", count, wantTxns)
	}
}

// waitReplFatal polls until the node's replication reports a standing
// fatal error (the tail loop has stopped).
func waitReplFatal(t *testing.T, n *node) {
	t.Helper()
	deadline := time.Now().Add(convergeWait)
	for time.Now().Before(deadline) {
		st, err := n.c.ReplStatus()
		if err != nil {
			t.Fatal(err)
		}
		if !st.Healthy && strings.Contains(st.LastError, "fatal") {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("replication never reported a fatal stop")
}

// TestReplChaosPrimaryCrash kills the primary at each WAL commit site
// mid-write and promotes the replica. The in-flight transaction was
// never acknowledged, so the promoted state must equal the last acked
// state exactly — wal.append dies before anything is written,
// wal.fsync dies after the write but before the batch is indexed for
// followers, the durable-but-unacknowledged window.
func TestReplChaosPrimaryCrash(t *testing.T) {
	sites := []struct {
		name string
		site chaos.Site
	}{
		{"append", wal.SiteAppend},
		{"fsync", wal.SiteFsync},
	}
	for _, tc := range sites {
		t.Run(tc.name, func(t *testing.T) {
			defer chaos.Reset()
			pri := newNode(t, t.TempDir(), "")
			rep := newNode(t, t.TempDir(), pri.ts.URL)
			id := seedPrimary(t, pri)
			acked := waitConverged(t, pri.ts.URL, rep.ts.URL)
			ackedSt, err := pri.c.ReplStatus()
			if err != nil {
				t.Fatal(err)
			}

			// Quiesce the replica: its own WAL hits the same global sites.
			rep.srv.StopReplication()
			chaos.Enable(tc.site, chaos.Rule{Kind: chaos.FaultPanic, Every: 1, Limit: 1})

			// The doomed write: the handler goroutine dies at the fault
			// site, the client sees a dropped connection, never an ack.
			if _, err := pri.c.Decide(id, "po/purchaseOrder", "si/shippingInfo", "accept"); err == nil {
				t.Fatal("write through a crashing WAL was acknowledged")
			}
			chaos.Reset()
			pri.kill()

			st, err := rep.c.Promote()
			if err != nil {
				t.Fatalf("Promote: %v", err)
			}
			if st.Role != repl.RolePrimary || st.LastTxn != ackedSt.LastTxn {
				t.Fatalf("promoted status = %+v, want primary at txn %d", st, ackedSt.LastTxn)
			}
			g, _, err := fetchSnap(rep.ts.URL)
			if err != nil || !rdf.Equal(g, acked) {
				t.Fatalf("promoted graph differs from acked state (%v): the unacked txn leaked", err)
			}
			checkReplFeedExactlyOnce(t, rep, ackedSt.LastTxn)

			// The new primary takes writes and continues the txn space.
			if _, err := rep.c.Decide(id, "po/purchaseOrder", "si/shippingInfo", "accept"); err != nil {
				t.Fatalf("write after failover: %v", err)
			}
			if st, _ := rep.c.ReplStatus(); st.LastTxn != ackedSt.LastTxn+1 {
				t.Fatalf("txn after failover = %d, want %d", st.LastTxn, ackedSt.LastTxn+1)
			}
		})
	}
}

// TestReplChaosReplicaCrashAndRestart crashes the replica's replication
// machinery at each replica-side site (the tail loop recovers the chaos
// panic into a fatal stop — the in-process stand-in for kill -9),
// restarts replication on the same node, and requires convergence with
// the feed still exactly-once: the crashed transaction must be applied
// exactly once, not zero times and not twice.
func TestReplChaosReplicaCrashAndRestart(t *testing.T) {
	sites := []struct {
		name string
		site chaos.Site
	}{
		{"apply", repl.SiteApply},
		{"wal-fsync-during-apply", wal.SiteFsync},
	}
	for _, tc := range sites {
		t.Run(tc.name, func(t *testing.T) {
			defer chaos.Reset()
			pri := newNode(t, t.TempDir(), "")
			rep := newNode(t, t.TempDir(), pri.ts.URL)
			id := seedPrimary(t, pri)
			waitConverged(t, pri.ts.URL, rep.ts.URL)

			// Stop the tail, commit on the primary while nothing replicates
			// (so the primary's own WAL sites fire un-armed), then arm and
			// restart: the first apply of the new txn crashes.
			rep.srv.StopReplication()
			if _, err := pri.c.Decide(id, "po/purchaseOrder", "si/shippingInfo", "accept"); err != nil {
				t.Fatal(err)
			}
			chaos.Enable(tc.site, chaos.Rule{Kind: chaos.FaultPanic, Every: 1, Limit: 1})
			if err := rep.srv.StartReplication(); err != nil {
				t.Fatal(err)
			}
			waitReplFatal(t, rep)

			// The node is degraded but alive: reads still work.
			if _, err := rep.c.Schemas(); err != nil {
				t.Fatalf("reads on a repl-crashed node: %v", err)
			}

			// Restart replication (the operator action after a crash).
			chaos.Reset()
			rep.srv.StopReplication()
			if err := rep.srv.StartReplication(); err != nil {
				t.Fatal(err)
			}
			waitConverged(t, pri.ts.URL, rep.ts.URL)
			priSt, err := pri.c.ReplStatus()
			if err != nil {
				t.Fatal(err)
			}
			checkReplFeedExactlyOnce(t, rep, priSt.LastTxn)
			if st, _ := rep.c.ReplStatus(); !st.Healthy || st.LagTxns != 0 {
				t.Fatalf("restarted replica status = %+v", st)
			}
		})
	}
}

// TestReplChaosBootstrapCrash crashes the replica mid-bootstrap: the
// snapshot was fetched but never installed. The restart must bootstrap
// again and end with exactly ONE repl-txn feed event — the aborted
// attempt contributes nothing.
func TestReplChaosBootstrapCrash(t *testing.T) {
	defer chaos.Reset()
	// Two snapshots with a commit between them rotate the seeded txns
	// out of the primary's retained segments: a fresh follower's cursor
	// is answered with 410 Gone, forcing the snapshot path
	// deterministically.
	pri := newNode(t, t.TempDir(), "")
	id := seedPrimary(t, pri)
	if err := pri.srv.Store().SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := pri.c.Decide(id, "po/purchaseOrder", "si/shippingInfo", "accept"); err != nil {
		t.Fatal(err)
	}
	if err := pri.srv.Store().SnapshotNow(); err != nil {
		t.Fatal(err)
	}

	chaos.Enable(repl.SiteBootstrap, chaos.Rule{Kind: chaos.FaultPanic, Every: 1, Limit: 1})
	rep := newNode(t, t.TempDir(), pri.ts.URL)
	waitReplFatal(t, rep)
	if g, _, err := fetchSnap(rep.ts.URL); err != nil || g.Len() != 0 {
		t.Fatalf("aborted bootstrap left %d triples (%v), want none installed", g.Len(), err)
	}

	chaos.Reset()
	rep.srv.StopReplication()
	if err := rep.srv.StartReplication(); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, pri.ts.URL, rep.ts.URL)
	checkReplFeedExactlyOnce(t, rep, 1) // one bootstrap txn, applied once
}

// TestReplChaosSegmentReadErrors injects errors where the primary reads
// frames from its WAL segments: the poll fails with a 500, never with
// frames or as caught up, and the follower backs off, retries and
// converges exactly once, without a bootstrap.
func TestReplChaosSegmentReadErrors(t *testing.T) {
	defer chaos.Reset()
	pri := newNode(t, t.TempDir(), "")
	seedPrimary(t, pri)

	chaos.Enable(wal.SiteRead, chaos.Rule{Kind: chaos.FaultError, Every: 1, Limit: 1})
	resp, err := http.Get(pri.ts.URL + repl.LogPath + "?after=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poll through a failed segment read = %d, want 500", resp.StatusCode)
	}

	chaos.Enable(wal.SiteRead, chaos.Rule{Kind: chaos.FaultError, Every: 1, Limit: 3})
	rep := newNode(t, t.TempDir(), pri.ts.URL)
	waitConverged(t, pri.ts.URL, rep.ts.URL)
	if n := chaos.Fired(wal.SiteRead); n != 3 {
		t.Fatalf("wal.read fired %d times, want 3", n)
	}
	priSt, err := pri.c.ReplStatus()
	if err != nil {
		t.Fatal(err)
	}
	checkReplFeedExactlyOnce(t, rep, priSt.LastTxn)
	if n := rep.bootstraps(); n != 0 {
		t.Fatalf("follower bootstrapped %v times over transient read errors", n)
	}
}

// TestReplChaosTransientShipErrors injects plain errors (not crashes) at
// the primary's ship site: the replica must treat the failed polls as
// transient — back off, retry, and converge with no operator action.
func TestReplChaosTransientShipErrors(t *testing.T) {
	defer chaos.Reset()
	pri := newNode(t, t.TempDir(), "")
	rep := newNode(t, t.TempDir(), pri.ts.URL)
	id := seedPrimary(t, pri)
	waitConverged(t, pri.ts.URL, rep.ts.URL)

	chaos.Enable(repl.SiteShip, chaos.Rule{Kind: chaos.FaultError, Every: 1, Limit: 3})
	if _, err := pri.c.Decide(id, "po/purchaseOrder", "si/shippingInfo", "accept"); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, pri.ts.URL, rep.ts.URL)
	if chaos.Fired(repl.SiteShip) == 0 {
		t.Fatal("ship fault never fired: the scenario tested nothing")
	}
	priSt, err := pri.c.ReplStatus()
	if err != nil {
		t.Fatal(err)
	}
	checkReplFeedExactlyOnce(t, rep, priSt.LastTxn)

	// Health recovers on its own once the faults are spent.
	deadline := time.Now().Add(convergeWait)
	for {
		if st, _ := rep.c.ReplStatus(); st.Healthy {
			break
		}
		if time.Now().After(deadline) {
			st, _ := rep.c.ReplStatus()
			t.Fatalf("replica never recovered after transient ship errors: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
