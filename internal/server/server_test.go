package server_test

// End-to-end tests of the workbench service: a real httptest server on
// one side, the thin Go client (internal/client) on the other, so every
// test exercises the exact bytes the CLI's -remote mode sends.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/harmony"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/server"
	"repro/internal/wbmgr"
	"repro/internal/xmlschema"
)

// schemaText reads one of the repo's sample schemata.
func schemaText(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatalf("testdata: %v", err)
	}
	return string(data)
}

// startServer boots a service (durable when dataDir != "") and returns a
// client pointed at it. The httptest server is torn down with the test;
// the wal.Store is deliberately NOT closed unless closeStore is set —
// durable tests reopen the directory as if the process had been killed.
func startServer(t *testing.T, dataDir string, closeStore bool) (*client.Client, *server.Server) {
	t.Helper()
	srv, err := server.New(server.Config{DataDir: dataDir, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	if closeStore {
		t.Cleanup(func() { srv.Close() })
	}
	return client.New(ts.URL), srv
}

// loadPair loads the two sample XSDs and maps them, returning the
// mapping id.
func loadPair(t *testing.T, c *client.Client) string {
	t.Helper()
	if _, err := c.LoadSchema("po", "xsd", schemaText(t, "purchaseOrder.xsd")); err != nil {
		t.Fatalf("LoadSchema po: %v", err)
	}
	if _, err := c.LoadSchema("si", "xsd", schemaText(t, "shippingInfo.xsd")); err != nil {
		t.Fatalf("LoadSchema si: %v", err)
	}
	if _, err := c.NewMapping("m1", "po", "si"); err != nil {
		t.Fatalf("NewMapping: %v", err)
	}
	return "m1"
}

func TestServerEndToEnd(t *testing.T) {
	c, _ := startServer(t, "", false)

	sess, err := c.OpenSession("alice")
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	if sess.ID == "" || sess.Client != "alice" {
		t.Fatalf("session = %+v", sess)
	}

	id := loadPair(t, c)
	schemas, err := c.Schemas()
	if err != nil || len(schemas) != 2 {
		t.Fatalf("Schemas = %v, %v", schemas, err)
	}

	match, err := c.Match(id, 0.2)
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	if match.Published == 0 || len(match.Cells) != match.Published {
		t.Fatalf("match = %+v", match)
	}

	// Accept the first correspondence; provenance must carry the session.
	first := match.Cells[0]
	cell, err := c.Decide(id, first.Source, first.Target, "accept")
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if cell.Confidence != 1 || !cell.UserDefined || cell.SetBy != sess.Tool {
		t.Fatalf("decided cell = %+v, want conf 1 set by %q", cell, sess.Tool)
	}

	cells, err := c.Cells(id)
	if err != nil || len(cells) != match.Published {
		t.Fatalf("Cells = %d cells, %v", len(cells), err)
	}

	rows, err := c.Query(`?s <urn:workbench:name> "subtotal"`, "s")
	if err != nil || len(rows) != 1 {
		t.Fatalf("Query = %v, %v", rows, err)
	}

	fsck, err := c.Fsck()
	if err != nil || !fsck.Clean || fsck.Triples == 0 {
		t.Fatalf("Fsck = %+v, %v", fsck, err)
	}

	// The session's op counter ticked for each mutating request.
	sessions, err := c.Sessions()
	if err != nil || len(sessions) != 1 {
		t.Fatalf("Sessions = %v, %v", sessions, err)
	}
	if sessions[0].Ops == 0 {
		t.Fatalf("session ops not counted: %+v", sessions[0])
	}
}

func TestServerRemoteMatchesLocal(t *testing.T) {
	// The same match through the HTTP API and directly against a local
	// engine must publish identical correspondences — the -remote mode
	// parity guarantee.
	c, _ := startServer(t, "", false)
	id := loadPair(t, c)
	match, err := c.Match(id, 0.2)
	if err != nil {
		t.Fatal(err)
	}

	src, err := xmlschema.Load("po", strings.NewReader(schemaText(t, "purchaseOrder.xsd")))
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := xmlschema.Load("si", strings.NewReader(schemaText(t, "shippingInfo.xsd")))
	if err != nil {
		t.Fatal(err)
	}
	engine := harmony.NewEngine(src, tgt, harmony.Options{Flooding: true, Metrics: obs.NewRegistry()})
	engine.Run()
	links := engine.Matrix().Above(0.2)
	if len(links) != match.Published {
		t.Fatalf("local engine found %d links, server published %d", len(links), match.Published)
	}
	for i, l := range links {
		cell := match.Cells[i]
		if cell.Source != l.Source.ID || cell.Target != l.Target.ID || cell.Confidence != l.Confidence {
			t.Fatalf("cell %d: remote %+v vs local %s→%s %.3f",
				i, cell, l.Source.ID, l.Target.ID, l.Confidence)
		}
	}
}

func TestServerEventFeedExactlyOnce(t *testing.T) {
	c, _ := startServer(t, "", false)
	id := loadPair(t, c) // 2 schema-graph + 1 mapping-matrix events
	match, err := c.Match(id, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// match emits one mapping-cell per published cell + 1 mapping-matrix.
	wantEvents := 3 + match.Published + 1

	var all []server.FeedEvent
	cursor := uint64(0)
	for len(all) < wantEvents {
		evs, next, gap, err := c.Events(cursor, 2*time.Second)
		if err != nil {
			t.Fatalf("Events: %v", err)
		}
		if gap {
			t.Fatal("unexpected gap")
		}
		if len(evs) == 0 {
			t.Fatalf("feed dried up at %d/%d events", len(all), wantEvents)
		}
		all = append(all, evs...)
		cursor = next
	}
	if len(all) != wantEvents {
		t.Fatalf("got %d events, want %d", len(all), wantEvents)
	}
	for i, e := range all {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d — not contiguous from 1", i, e.Seq)
		}
	}
	kinds := map[string]int{}
	for _, e := range all {
		kinds[e.Kind]++
	}
	if kinds["schema-graph"] != 2 || kinds["mapping-cell"] != match.Published || kinds["mapping-matrix"] != 2 {
		t.Fatalf("event kinds = %v", kinds)
	}

	// A poll at the head with a short timeout returns empty, not stale
	// events (exactly-once: nothing is redelivered).
	evs, next, _, err := c.Events(cursor, 50*time.Millisecond)
	if err != nil || len(evs) != 0 || next != cursor {
		t.Fatalf("idle poll = %d events next=%d, %v", len(evs), next, err)
	}
}

func TestServerFeedGapSignal(t *testing.T) {
	srv, err := server.New(server.Config{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	srv.Manager().SetEventLogCapacity(4)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)

	// 6 events through a capacity-4 feed: a cursor at 0 is behind the
	// eviction horizon and must see the gap signal.
	if _, err := c.LoadSchema("po", "xsd", schemaText(t, "purchaseOrder.xsd")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.LoadSchema("po", "xsd", schemaText(t, "purchaseOrder.xsd")); err != nil {
			t.Fatal(err)
		}
	}
	evs, next, gap, err := c.Events(0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !gap || len(evs) != 4 || next != 6 {
		t.Fatalf("gap=%v events=%d next=%d, want gap with the 4 retained events", gap, len(evs), next)
	}
}

func TestServerFeedCursorAheadAfterRestart(t *testing.T) {
	// Sequence numbers restart at 1 with the process, so a cursor from
	// before a restart can be ahead of the new head. The feed must answer
	// it with a gap and the retained events, as it does a cursor behind
	// the retention window — never with silence.
	dir := t.TempDir()
	c, _ := startServer(t, dir, false)
	loadPair(t, c)
	_, cursor, _, err := c.Events(0, time.Second)
	if err != nil || cursor != 3 {
		t.Fatalf("pre-restart cursor = %d, %v; want 3", cursor, err)
	}

	c2, srv2 := startServer(t, dir, true)
	evs, next, gap, err := c2.Events(cursor, 2*time.Second)
	if err != nil || !gap || len(evs) != 0 || next != 0 {
		t.Fatalf("poll before any write = %d events next=%d gap=%v, %v; want a gap at head 0", len(evs), next, gap, err)
	}
	if _, err := c2.LoadSchema("hr", "sql", schemaText(t, "hr.sql")); err != nil {
		t.Fatal(err)
	}
	evs, next, gap, err = c2.Events(cursor, 2*time.Second)
	if err != nil || !gap || len(evs) != 1 || evs[0].Seq != 1 || evs[0].Subject != "hr" || next != 1 {
		t.Fatalf("poll after one write = %+v next=%d gap=%v, %v; want a gap, event 1 and next 1", evs, next, gap, err)
	}

	// SSE resumes from the same point: a gap frame, then event 1.
	ts := httptest.NewServer(srv2.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", fmt.Sprintf("%s/v1/events?after=%d&stream=sse", ts.URL, cursor), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var frames []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() && len(frames) < 2 {
		if line := sc.Text(); strings.HasPrefix(line, "event: ") || strings.HasPrefix(line, "id: ") {
			frames = append(frames, line)
		}
	}
	if len(frames) != 2 || frames[0] != "event: gap" || frames[1] != "id: 1" {
		t.Fatalf("SSE frames = %q, want [event: gap, id: 1]", frames)
	}
}

func TestServerFeedSurvivesDeliveryFaults(t *testing.T) {
	// The event log records each event before any subscriber runs, so a
	// failed delivery drops nothing from /v1/events.
	c, srv := startServer(t, "", false)
	var observed atomic.Int64
	srv.Manager().Subscribe(wbmgr.EventSchemaGraph, "observer", func(wbmgr.Event) { observed.Add(1) })
	defer chaos.Reset()
	chaos.Enable(wbmgr.SitePublish, chaos.Rule{Kind: chaos.FaultError, Every: 1})
	loadPair(t, c) // 2 schema-graph + 1 mapping-matrix events
	if chaos.Fired(wbmgr.SitePublish) == 0 || observed.Load() != 0 {
		t.Fatalf("deliveries were not dropped: fired %d, observed %d", chaos.Fired(wbmgr.SitePublish), observed.Load())
	}
	evs, next, gap, err := c.Events(0, time.Second)
	if err != nil || gap || len(evs) != 3 || next != 3 {
		t.Fatalf("feed = %d events next=%d gap=%v, %v; want the 3 committed events", len(evs), next, gap, err)
	}
	for i, want := range []string{"schema-graph", "schema-graph", "mapping-matrix"} {
		if evs[i].Seq != uint64(i+1) || evs[i].Kind != want {
			t.Fatalf("event %d = %+v, want seq %d %s", i, evs[i], i+1, want)
		}
	}
}

func TestServerDurableKillAndRestart(t *testing.T) {
	dir := t.TempDir()
	c, srv := startServer(t, dir, false)
	id := loadPair(t, c)
	match, err := c.Match(id, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	first := match.Cells[0]
	if _, err := c.Decide(id, first.Source, first.Target, "accept"); err != nil {
		t.Fatal(err)
	}
	before := srv.Manager().Blackboard().Graph().Clone()
	if srv.Store().LogSize() == 0 && srv.Store().Stats().SnapshotTriples == 0 {
		t.Fatal("nothing was persisted")
	}

	// Kill -9: the first server is simply abandoned — no Close, no
	// snapshot. A second server over the same directory must recover the
	// exact committed state.
	c2, srv2 := startServer(t, dir, true)
	if !rdf.Equal(before, srv2.Manager().Blackboard().Graph()) {
		t.Fatal("recovered graph differs from pre-kill state")
	}
	schemas, err := c2.Schemas()
	if err != nil || len(schemas) != 2 {
		t.Fatalf("schemas after restart = %v, %v", schemas, err)
	}
	cells, err := c2.Cells(id)
	if err != nil || len(cells) != match.Published {
		t.Fatalf("cells after restart = %d, %v", len(cells), err)
	}
	found := false
	for _, cell := range cells {
		if cell.Source == first.Source && cell.Target == first.Target {
			found = cell.Confidence == 1 && cell.UserDefined
		}
	}
	if !found {
		t.Fatal("accepted cell lost across restart")
	}
	fsck, err := c2.Fsck()
	if err != nil || !fsck.Clean || fsck.Recovery == "" {
		t.Fatalf("fsck after restart = %+v, %v", fsck, err)
	}
}

func TestServerSnapshotEndpoint(t *testing.T) {
	dir := t.TempDir()
	c, srv := startServer(t, dir, true)
	loadPair(t, c)
	if srv.Store().LogSize() == 0 {
		t.Fatal("expected a non-empty log before snapshot")
	}
	resp, err := c.SnapshotNow()
	if err != nil || resp.Triples == 0 {
		t.Fatalf("SnapshotNow = %+v, %v", resp, err)
	}
	if srv.Store().LogSize() != 0 {
		t.Fatal("snapshot did not truncate the log")
	}

	// In-memory servers refuse.
	cm, _ := startServer(t, "", false)
	if _, err := cm.SnapshotNow(); err == nil {
		t.Fatal("snapshot succeeded without a data dir")
	}
}

func TestServerErrorShapes(t *testing.T) {
	c, _ := startServer(t, "", false)
	if _, err := c.LoadSchema("", "xsd", "<x/>"); err == nil {
		t.Fatal("empty schema name accepted")
	}
	if _, err := c.LoadSchema("x", "cobol", "whatever"); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := c.NewMapping("m", "missing", "also-missing"); err == nil {
		t.Fatal("mapping over missing schemata accepted")
	}
	if _, err := c.Decide("nope", "a", "b", "accept"); err == nil {
		t.Fatal("decide on missing mapping accepted")
	}
	if _, err := c.Cells("nope"); err == nil {
		t.Fatal("cells of missing mapping accepted")
	}
	id := loadPair(t, c)
	if _, err := c.Decide(id, "a", "b", "maybe"); err == nil {
		t.Fatal("bad verdict accepted")
	}
}

// TestServerDecideRejectsUnknownElements: a decision must name a
// non-root element of each side's schema, since no engine can pin any
// other pair. Anything else is a 400 naming the ID, and leaves no cell
// and no event behind.
func TestServerDecideRejectsUnknownElements(t *testing.T) {
	c, srv := startServer(t, "", false)
	id := loadPair(t, c)
	_, head, _, _ := srv.Manager().EventsSince(0)
	for _, tc := range []struct{ source, target, named string }{
		{"po/noSuchElement", "si/shippingInfo/total", "po/noSuchElement"},
		{"po/purchaseOrder/shipTo/subtotal", "si/alsoMissing", "si/alsoMissing"},
		// The source schema's root, then the two sides swapped.
		{"po", "si/shippingInfo/total", "po"},
		{"si/shippingInfo/total", "po/purchaseOrder/shipTo/subtotal", "si/shippingInfo/total"},
	} {
		body := fmt.Sprintf(`{"source": %q, "target": %q, "verdict": "accept"}`, tc.source, tc.target)
		resp, err := http.Post(c.BaseURL()+"/v1/mappings/"+id+"/decide", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e server.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, strconv.Quote(tc.named)) {
			t.Errorf("decide %s → %s: status %d, error %q (%v); want 400 naming %q",
				tc.source, tc.target, resp.StatusCode, e.Error, err, tc.named)
		}
	}
	if cells, err := c.Cells(id); err != nil || len(cells) != 0 {
		t.Errorf("refused decisions left cells: %v, %v", cells, err)
	}
	if _, after, _, _ := srv.Manager().EventsSince(0); after != head {
		t.Errorf("refused decisions published events: head %d → %d", head, after)
	}
	// A real pair still decides.
	if _, err := c.Decide(id, "po/purchaseOrder/shipTo/subtotal", "si/shippingInfo/total", "accept"); err != nil {
		t.Fatalf("decide on real elements: %v", err)
	}
}
