package server_test

// End-to-end replication tests: a real primary and a real replica, each
// a full server behind an httptest listener, speaking the actual
// replication protocol over HTTP. The differential suite is the
// acceptance bar of the replication issue: after every shipped
// transaction the primary and replica blackboards must be rdf.Equal,
// the replica's feed must deliver exactly one repl-txn event per
// applied transaction, and a promoted replica must carry the identical
// committed state forward under a bumped fencing epoch.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/repl"
	"repro/internal/server"
)

// replTestPoll keeps the tail loop fast enough for -race CI runs.
const (
	replTestPoll    = 250 * time.Millisecond
	replTestBackoff = 20 * time.Millisecond
	convergeWait    = 10 * time.Second
)

// node bundles one server with its listener, client and registry.
type node struct {
	c   *client.Client
	srv *server.Server
	ts  *httptest.Server
	reg *obs.Registry
}

// newNode boots a full service. replicaOf != "" makes it a tailing
// replica. The listener dies with the test; the server (and its store)
// is deliberately NOT closed — failover tests abandon nodes like a
// kill -9 would, and closing a store folds the WAL, which a killed
// process never gets to do.
func newNode(t *testing.T, dir, replicaOf string) *node {
	t.Helper()
	return newNodeAt(t, dir, replicaOf, "127.0.0.1:0")
}

// newNodeAt is newNode listening on addr: a restarted node takes over
// the address its predecessor served, so its followers keep their
// primary URL.
func newNodeAt(t *testing.T, dir, replicaOf, addr string) *node {
	t.Helper()
	reg := obs.NewRegistry()
	srv, err := server.New(server.Config{
		DataDir:         dir,
		Metrics:         reg,
		ReplicaOf:       replicaOf,
		ReplPollTimeout: replTestPoll,
		ReplBackoff:     replTestBackoff,
	})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	t.Cleanup(ts.Close)
	t.Cleanup(srv.StopReplication)
	return &node{c: client.New(ts.URL), srv: srv, ts: ts, reg: reg}
}

// bootstraps sums the node's repl_bootstraps_total over its workspaces.
func (n *node) bootstraps() float64 {
	m, _ := n.reg.Find(repl.MetricBootstraps)
	var sum float64
	for _, se := range m.Series {
		sum += se.Value
	}
	return sum
}

// kill simulates kill -9: the listener drops and the server object is
// abandoned mid-flight — no Close, no WAL fold, replication threads
// stopped (they would be gone with the process).
func (n *node) kill() {
	n.ts.Close()
	n.srv.StopReplication()
}

// fetchSnap pulls a node's graph through the bootstrap endpoint — the
// one read that is captured atomically under the node's transaction
// lock, so comparing two nodes through it is race-free.
func fetchSnap(url string) (*rdf.Graph, uint64, error) {
	g, txn, _, err := repl.NewFetcher(url, nil).FetchSnapshot(context.Background())
	return g, txn, err
}

// waitConverged blocks until the replica's snapshot is txn-identical
// and rdf.Equal to the primary's, returning the converged graph.
func waitConverged(t *testing.T, priURL, repURL string) *rdf.Graph {
	t.Helper()
	var lastState string
	deadline := time.Now().Add(convergeWait)
	for time.Now().Before(deadline) {
		gp, tp, err := fetchSnap(priURL)
		if err == nil {
			gr, tr, rerr := fetchSnap(repURL)
			if rerr == nil && tp == tr && rdf.Equal(gp, gr) {
				return gp
			}
			lastState = fmt.Sprintf("primary txn %d vs replica txn %d (err %v)", tp, tr, rerr)
		} else {
			lastState = err.Error()
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("replica did not converge: %s", lastState)
	return nil
}

// drainFeed reads a node's whole event feed from seq 0.
func drainFeed(t *testing.T, c *client.Client) []server.FeedEvent {
	t.Helper()
	var all []server.FeedEvent
	cursor := uint64(0)
	for {
		evs, next, gap, err := c.Events(cursor, 100*time.Millisecond)
		if err != nil {
			t.Fatalf("Events: %v", err)
		}
		if gap {
			t.Fatal("unexpected feed gap")
		}
		if len(evs) == 0 {
			return all
		}
		all = append(all, evs...)
		cursor = next
	}
}

func TestReplicationDifferential(t *testing.T) {
	pri := newNode(t, t.TempDir(), "")
	rep := newNode(t, t.TempDir(), pri.ts.URL)

	// The primary-side op sequence: every mutating request commits one
	// transaction. After EACH one, the replica must converge to a graph
	// rdf.Equal to the primary's at the same txn id.
	type step struct {
		name string
		run  func() error
	}
	var matchCells []server.CellInfo
	id := "m1"
	steps := []step{
		{"load po", func() error {
			_, err := pri.c.LoadSchema("po", "xsd", schemaText(t, "purchaseOrder.xsd"))
			return err
		}},
		{"load si", func() error {
			_, err := pri.c.LoadSchema("si", "xsd", schemaText(t, "shippingInfo.xsd"))
			return err
		}},
		{"create mapping", func() error {
			_, err := pri.c.NewMapping(id, "po", "si")
			return err
		}},
		{"match", func() error {
			resp, err := pri.c.Match(id, 0.2)
			matchCells = resp.Cells
			return err
		}},
		{"accept cell", func() error {
			_, err := pri.c.Decide(id, matchCells[0].Source, matchCells[0].Target, "accept")
			return err
		}},
		{"reject cell", func() error {
			_, err := pri.c.Decide(id, matchCells[1].Source, matchCells[1].Target, "reject")
			return err
		}},
		{"rematch", func() error {
			_, err := pri.c.Rematch(id, 0.2, nil, nil)
			return err
		}},
		{"reload po", func() error {
			_, err := pri.c.LoadSchema("po", "xsd", schemaText(t, "purchaseOrder.xsd"))
			return err
		}},
	}
	for _, st := range steps {
		if err := st.run(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		waitConverged(t, pri.ts.URL, rep.ts.URL)
	}

	// Exactly-once delivery into the replica's feed: one repl-txn event
	// per applied primary transaction, contiguous seqs, strictly
	// ascending txn subjects, no duplicates.
	priStatus, err := pri.c.ReplStatus()
	if err != nil {
		t.Fatalf("primary ReplStatus: %v", err)
	}
	evs := drainFeed(t, rep.c)
	if len(evs) != int(priStatus.LastTxn) {
		t.Fatalf("replica feed has %d events, primary committed %d txns", len(evs), priStatus.LastTxn)
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d — not contiguous", i, e.Seq)
		}
		if e.Kind != string(server.EventReplTxn) {
			t.Fatalf("event %d kind %q, want repl-txn", i, e.Kind)
		}
		if e.Subject != strconv.Itoa(i+1) {
			t.Fatalf("event %d subject %q, want txn %d (double-applied or skipped txn)", i, e.Subject, i+1)
		}
	}

	// The replica serves the read API.
	if schemas, err := rep.c.Schemas(); err != nil || len(schemas) != 2 {
		t.Fatalf("replica Schemas = %v, %v", schemas, err)
	}
	cells, err := rep.c.Cells(id)
	if err != nil || len(cells) == 0 {
		t.Fatalf("replica Cells = %d, %v", len(cells), err)
	}
	priCells, err := pri.c.Cells(id)
	if err != nil || len(priCells) != len(cells) {
		t.Fatalf("cell views differ: primary %d vs replica %d (%v)", len(priCells), len(cells), err)
	}
	q := `?s <urn:workbench:name> "subtotal"`
	repRows, err := rep.c.Query(q, "s")
	if err != nil || len(repRows) == 0 {
		t.Fatalf("replica Query = %v, %v", repRows, err)
	}
	priRows, err := pri.c.Query(q, "s")
	if err != nil || fmt.Sprint(priRows) != fmt.Sprint(repRows) {
		t.Fatalf("query views differ: primary %v vs replica %v (%v)", priRows, repRows, err)
	}

	// Writes are refused with a 409 that routes the client to the
	// primary.
	if _, err := rep.c.LoadSchema("x", "sql", "create table t (a int);"); err == nil ||
		!strings.Contains(err.Error(), "read-only replica") {
		t.Fatalf("replica write = %v, want read-only refusal", err)
	}
	resp, err := http.Post(rep.ts.URL+"/v1/schemas", "application/json",
		strings.NewReader(`{"name":"x","format":"sql","text":"create table t (a int);"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("replica write status = %d, want 409", resp.StatusCode)
	}
	var ro server.ReadOnlyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ro); err != nil {
		t.Fatal(err)
	}
	if ro.Role != repl.RoleReplica || ro.Primary != pri.ts.URL {
		t.Fatalf("ReadOnlyResponse = %+v, want replica pointing at %s", ro, pri.ts.URL)
	}

	// Status surfaces on both sides.
	if priStatus.Role != repl.RolePrimary || !priStatus.Healthy {
		t.Fatalf("primary status = %+v", priStatus)
	}
	repStatus, err := rep.c.ReplStatus()
	if err != nil || repStatus.Role != repl.RoleReplica || !repStatus.Healthy {
		t.Fatalf("replica status = %+v, %v", repStatus, err)
	}
	if repStatus.Primary != pri.ts.URL || repStatus.LastTxn != priStatus.LastTxn || repStatus.LagTxns != 0 {
		t.Fatalf("replica status = %+v, want caught up to %s", repStatus, pri.ts.URL)
	}
}

// TestReplicationResumesAcrossPrimaryRestart: a follower that falls
// behind a primary which then restarts resumes from its cursor, served
// from the log the restarted primary recovered (after a kill) or from
// the segment its Close rotated (after a graceful stop), with one
// repl-txn event per txn and no snapshot bootstrap.
func TestReplicationResumesAcrossPrimaryRestart(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(*node)
	}{
		{"kill", (*node).kill},
		{"close", func(n *node) {
			n.kill()
			if err := n.srv.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			pri := newNode(t, dir, "")
			rep := newNode(t, t.TempDir(), pri.ts.URL)
			id := loadPair(t, pri.c)
			if _, err := pri.c.Match(id, 0.2); err != nil {
				t.Fatal(err)
			}
			waitConverged(t, pri.ts.URL, rep.ts.URL)

			// The follower falls behind, then the primary restarts on its
			// directory and address and commits more.
			rep.srv.StopReplication()
			if _, err := pri.c.Decide(id, "po/purchaseOrder", "si/shippingInfo", "accept"); err != nil {
				t.Fatal(err)
			}
			behind := pri.srv.Store().LastTxn()
			tc.stop(pri)
			pri2 := newNodeAt(t, dir, "", pri.ts.Listener.Addr().String())
			if got := pri2.srv.Store().LastTxn(); got != behind {
				t.Fatalf("restarted primary at txn %d, want %d", got, behind)
			}
			if _, err := pri2.c.Decide(id, "po/purchaseOrder", "si/shippingInfo", "reject"); err != nil {
				t.Fatal(err)
			}
			if err := rep.srv.StartReplication(); err != nil {
				t.Fatal(err)
			}
			waitConverged(t, pri2.ts.URL, rep.ts.URL)
			st, err := pri2.c.ReplStatus()
			if err != nil {
				t.Fatal(err)
			}
			checkReplFeedExactlyOnce(t, rep, st.LastTxn)
			if n := rep.bootstraps(); n != 0 {
				t.Fatalf("follower bootstrapped %v times across the restart", n)
			}
		})
	}
}

// TestInMemoryReplicaReportsAppliedTxn: an in-memory replica of a
// durable primary keeps one replication cursor, so its workspace list
// reports the txn it applied, as its replication status and the
// primary's workspace list do.
func TestInMemoryReplicaReportsAppliedTxn(t *testing.T) {
	pri := newNode(t, t.TempDir(), "")
	rep := newNode(t, "", pri.ts.URL)
	if _, err := pri.c.LoadSchema("po", "xsd", schemaText(t, "purchaseOrder.xsd")); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, pri.ts.URL, rep.ts.URL)
	priWss, err := pri.c.Workspaces()
	if err != nil {
		t.Fatal(err)
	}
	repWss, err := rep.c.Workspaces()
	if err != nil {
		t.Fatal(err)
	}
	st, err := rep.c.ReplStatus()
	if err != nil {
		t.Fatal(err)
	}
	if want := priWss[0].LastTxn; want == 0 || st.LastTxn != want || repWss[0].LastTxn != want {
		t.Fatalf("last_txn: replica workspace %d, replica repl status %d, primary workspace %d",
			repWss[0].LastTxn, st.LastTxn, want)
	}
}

func TestFailoverPromoteCarriesStateAndEpoch(t *testing.T) {
	pri := newNode(t, t.TempDir(), "")
	rep := newNode(t, t.TempDir(), pri.ts.URL)
	id := loadPair(t, pri.c)
	match, err := pri.c.Match(id, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	acked := waitConverged(t, pri.ts.URL, rep.ts.URL)
	ackedTxn, _ := pri.c.ReplStatus()

	// A feed consumer mid-stream before the failover.
	preEvents := drainFeed(t, rep.c)
	cursor := uint64(len(preEvents))

	// The primary dies; the replica is promoted.
	pri.kill()
	st, err := rep.c.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if st.Role != repl.RolePrimary || st.Epoch != 1 {
		t.Fatalf("promoted status = %+v, want primary at epoch 1", st)
	}
	if st.LastTxn != ackedTxn.LastTxn {
		t.Fatalf("promoted at txn %d, acked was %d", st.LastTxn, ackedTxn.LastTxn)
	}
	g, _, err := fetchSnap(rep.ts.URL)
	if err != nil || !rdf.Equal(g, acked) {
		t.Fatalf("promoted graph differs from acked pre-kill state (%v)", err)
	}

	// The promoted node accepts writes and continues the txn id space.
	cell, err := rep.c.Decide(id, match.Cells[0].Source, match.Cells[0].Target, "accept")
	if err != nil {
		t.Fatalf("write after promote: %v", err)
	}
	if cell.Confidence != 1 {
		t.Fatalf("decided cell = %+v", cell)
	}
	st2, _ := rep.c.ReplStatus()
	if st2.LastTxn != ackedTxn.LastTxn+1 {
		t.Fatalf("txn after promote = %d, want %d", st2.LastTxn, ackedTxn.LastTxn+1)
	}

	// The feed cursor from before the failover keeps working: the
	// decide's events follow contiguously, nothing redelivered.
	evs, next, gap, err := rep.c.Events(cursor, time.Second)
	if err != nil || gap {
		t.Fatalf("post-promote poll: gap=%v err=%v", gap, err)
	}
	if len(evs) == 0 || evs[0].Seq != cursor+1 {
		t.Fatalf("post-promote events = %+v, want seq %d first", evs, cursor+1)
	}
	for i, e := range evs {
		if e.Seq != cursor+uint64(i+1) {
			t.Fatalf("post-promote seq %d at index %d", e.Seq, i)
		}
		if e.Kind == string(server.EventReplTxn) {
			t.Fatal("promoted node emitted a repl-txn event for a local write")
		}
	}
	_ = next
}

func TestFencingSealsSurvivingPrimary(t *testing.T) {
	priDir := t.TempDir()
	pri := newNode(t, priDir, "")
	rep := newNode(t, t.TempDir(), pri.ts.URL)
	id := loadPair(t, pri.c)
	waitConverged(t, pri.ts.URL, rep.ts.URL)

	// Promote while the old primary is still alive: the fence POST must
	// land and seal it.
	if _, err := rep.c.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	st, err := pri.c.ReplStatus()
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != repl.RoleSealed || st.Epoch != 1 || st.Healthy {
		t.Fatalf("old primary status = %+v, want sealed at epoch 1", st)
	}

	// A sealed node refuses writes (409, no primary hint — it only
	// knows it was deposed, not by whom)...
	if _, err := pri.c.LoadSchema("x", "sql", "create table t (a int);"); err == nil ||
		!strings.Contains(err.Error(), "sealed") {
		t.Fatalf("sealed write = %v", err)
	}
	// ...refuses to serve replication...
	if _, _, err := fetchSnap(pri.ts.URL); err == nil {
		t.Fatal("sealed node served a snapshot")
	}
	// ...and reports itself unhealthy on /healthz.
	hresp, err := http.Get(pri.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sealed /healthz = %d, want 503", hresp.StatusCode)
	}

	// The seal survives kill -9: a restart over the same dir without
	// -replica-of comes back sealed, still refusing writes.
	pri.kill()
	pri2 := newNode(t, priDir, "")
	if st, _ := pri2.c.ReplStatus(); st.Role != repl.RoleSealed {
		t.Fatalf("restarted deposed primary role = %q, want sealed", st.Role)
	}

	// Rejoining as a replica of the new primary is the one exit: the
	// node unseals, tails, and converges — including writes the new
	// primary took after the failover.
	pri2.kill()
	if _, err := rep.c.Decide(id, "po/purchaseOrder", "si/shippingInfo", "accept"); err != nil {
		t.Fatalf("write on new primary: %v", err)
	}
	rejoined := newNode(t, priDir, rep.ts.URL)
	waitConverged(t, rep.ts.URL, rejoined.ts.URL)
	if st, _ := rejoined.c.ReplStatus(); st.Role != repl.RoleReplica || !st.Healthy {
		t.Fatalf("rejoined status = %+v", st)
	}
}

func TestReplGuardEpochTable(t *testing.T) {
	pri := newNode(t, t.TempDir(), "")
	loadPair(t, pri.c)
	// Drive the primary to epoch 2 directly through its store — the
	// same durable header promotion writes.
	if err := pri.srv.Store().SetEpoch(2, false); err != nil {
		t.Fatal(err)
	}

	get := func(epochHeader string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, pri.ts.URL+repl.LogPath+"?after=0&timeout=1ms", nil)
		if err != nil {
			t.Fatal(err)
		}
		if epochHeader != "" {
			req.Header.Set(repl.EpochHeader, epochHeader)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Order matters: the final case (remote ahead) seals the node.
	cases := []struct {
		name       string
		epoch      string
		wantStatus int
		wantBody   string
	}{
		{"no claim", "", http.StatusOK, ""},
		{"zero claim", "0", http.StatusOK, ""},
		{"equal epoch", "2", http.StatusOK, ""},
		{"stale epoch", "1", http.StatusConflict, "stale epoch 1 (current 2)"},
		{"garbage epoch", "banana", http.StatusBadRequest, "bad X-Ib-Repl-Epoch header"},
		{"negative epoch", "-1", http.StatusBadRequest, "bad X-Ib-Repl-Epoch header"},
		{"overflow epoch", "18446744073709551616", http.StatusBadRequest, "bad X-Ib-Repl-Epoch header"},
		{"newer epoch deposes", "3", http.StatusConflict, "fenced: remote epoch 3 ahead of local 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := get(tc.epoch)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if tc.wantBody != "" {
				var e server.ErrorResponse
				if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(e.Error, tc.wantBody) {
					t.Fatalf("error %q does not contain %q", e.Error, tc.wantBody)
				}
			}
		})
	}

	// The deposing request sealed the node durably.
	if st, _ := pri.c.ReplStatus(); st.Role != repl.RoleSealed || st.Epoch != 3 {
		t.Fatalf("status after deposing request = %+v", st)
	}
	if !pri.srv.Store().Sealed() {
		t.Fatal("seal not persisted to the WAL header")
	}
}

func TestFenceAndPromoteRefusals(t *testing.T) {
	pri := newNode(t, t.TempDir(), "")
	rep := newNode(t, t.TempDir(), pri.ts.URL)

	// A fence that does not advance the epoch is refused (equal and
	// behind alike) — fencing only ever moves forward.
	f := repl.NewFetcher(pri.ts.URL, nil)
	if err := f.Fence(context.Background(), 0); err == nil ||
		!strings.Contains(err.Error(), "does not advance") {
		t.Fatalf("fence at equal epoch = %v", err)
	}
	// An advancing fence seals.
	if err := f.Fence(context.Background(), 1); err != nil {
		t.Fatalf("advancing fence: %v", err)
	}
	if st, _ := pri.c.ReplStatus(); st.Role != repl.RoleSealed {
		t.Fatalf("primary role after fence = %q", st.Role)
	}
	// Now behind: refused again.
	if err := f.Fence(context.Background(), 1); err == nil {
		t.Fatal("re-fencing at the same epoch accepted")
	}

	// Promote is a replica-only verb.
	if _, err := pri.c.Promote(); err == nil ||
		!strings.Contains(err.Error(), "only a replica can be promoted") {
		t.Fatalf("promote on sealed node = %v", err)
	}
	fresh := newNode(t, t.TempDir(), "")
	if _, err := fresh.c.Promote(); err == nil ||
		!strings.Contains(err.Error(), "only a replica can be promoted") {
		t.Fatalf("promote on primary = %v", err)
	}
	// And on an actual replica it works exactly once; the second call
	// finds a primary.
	if _, err := rep.c.Promote(); err != nil {
		// The first promote raced the seal above (its upstream is now
		// sealed); that is fine — it must still promote.
		t.Fatalf("promote on replica = %v", err)
	}
	if _, err := rep.c.Promote(); err == nil {
		t.Fatal("second promote accepted")
	}
}

func TestRequestDecodingRejectsMalformedInputs(t *testing.T) {
	pri := newNode(t, t.TempDir(), "")
	mem, err := server.New(server.Config{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	memTS := httptest.NewServer(mem.Handler())
	t.Cleanup(memTS.Close)

	cases := []struct {
		name       string
		url        string
		wantStatus int
		wantErr    string
	}{
		{"events bad cursor", pri.ts.URL + "/v1/events?after=banana&timeout=1ms", 400, `bad after cursor "banana"`},
		{"events negative cursor", pri.ts.URL + "/v1/events?after=-1&timeout=1ms", 400, `bad after cursor "-1"`},
		{"events overflow cursor", pri.ts.URL + "/v1/events?after=18446744073709551616", 400, "bad after cursor"},
		{"events bad timeout", pri.ts.URL + "/v1/events?timeout=soon", 400, `bad timeout "soon"`},
		{"events negative timeout", pri.ts.URL + "/v1/events?timeout=-5s", 400, `negative timeout "-5s"`},
		{"events ok", pri.ts.URL + "/v1/events?after=0&timeout=1ms", 200, ""},
		{"repl log bad cursor", pri.ts.URL + repl.LogPath + "?after=1e3&timeout=1ms", 400, `bad after cursor "1e3"`},
		{"repl log negative cursor", pri.ts.URL + repl.LogPath + "?after=-7&timeout=1ms", 400, `bad after cursor "-7"`},
		{"repl log bad timeout", pri.ts.URL + repl.LogPath + "?timeout=42", 400, `bad timeout "42"`},
		{"repl log negative timeout", pri.ts.URL + repl.LogPath + "?timeout=-1s", 400, `negative timeout "-1s"`},
		{"repl log ok", pri.ts.URL + repl.LogPath + "?after=0&timeout=1ms", 200, ""},
		{"repl log without store", memTS.URL + repl.LogPath + "?after=0&timeout=1ms", 409, "requires a data dir"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(tc.url)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if tc.wantErr != "" {
				var e server.ErrorResponse
				if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(e.Error, tc.wantErr) {
					t.Fatalf("error %q does not contain %q", e.Error, tc.wantErr)
				}
			}
		})
	}

	// An oversized timeout is capped, not refused: the request succeeds
	// immediately here because frames exist past the cursor.
	if _, err := pri.c.LoadSchema("x", "sql", "create table t (a int);"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(pri.ts.URL + repl.LogPath + "?after=0&timeout=1000h")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("capped-timeout poll = %d, want 200", resp.StatusCode)
	}
}

func TestReplicaHealthDegradesWhenPrimaryDies(t *testing.T) {
	pri := newNode(t, t.TempDir(), "")
	rep := newNode(t, t.TempDir(), pri.ts.URL)
	loadPair(t, pri.c)
	waitConverged(t, pri.ts.URL, rep.ts.URL)

	hresp, err := http.Get(rep.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthy replica /healthz = %d", hresp.StatusCode)
	}

	pri.ts.Close() // the primary vanishes; polls start failing

	deadline := time.Now().Add(convergeWait)
	for {
		hresp, err := http.Get(rep.ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Status string `json:"status"`
			Detail string `json:"detail"`
		}
		if err := json.NewDecoder(hresp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		hresp.Body.Close()
		if hresp.StatusCode == http.StatusServiceUnavailable {
			if body.Status != "degraded" || !strings.Contains(body.Detail, "replication stalled") {
				t.Fatalf("degraded body = %+v", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica /healthz never degraded after primary death")
		}
		time.Sleep(20 * time.Millisecond)
	}

	st, err := rep.c.ReplStatus()
	if err != nil || st.Healthy || st.LastError == "" {
		t.Fatalf("stalled replica status = %+v, %v", st, err)
	}
}
