package server_test

// End-to-end tracing tests: one client request through a real httptest
// server must come back as a single connected trace — HTTP route span at
// the root, wbmgr transaction under it, Harmony stage and matchcache
// spans inside the engine, WAL append/fsync under the commit — with
// every parent link resolving inside the trace.

import (
	"bufio"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

// clientFor returns a fresh client for the same server (own lastTrace).
func clientFor(c *client.Client) *client.Client { return client.New(c.BaseURL()) }

// spanIndex maps a fetched trace for structural assertions.
type spanIndex struct {
	t     *testing.T
	trace server.TraceInfo
	byID  map[string]server.SpanInfo
}

func indexTrace(t *testing.T, tr server.TraceInfo) *spanIndex {
	t.Helper()
	idx := &spanIndex{t: t, trace: tr, byID: map[string]server.SpanInfo{}}
	for _, sp := range tr.Spans {
		idx.byID[sp.ID] = sp
	}
	return idx
}

// find returns the first span whose name matches exactly.
func (ix *spanIndex) find(name string) server.SpanInfo {
	ix.t.Helper()
	for _, sp := range ix.trace.Spans {
		if sp.Name == name {
			return sp
		}
	}
	ix.t.Fatalf("span %q missing from trace %s: %v", name, ix.trace.Trace, spanNames(ix.trace))
	return server.SpanInfo{}
}

func (ix *spanIndex) attr(sp server.SpanInfo, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

func spanNames(tr server.TraceInfo) []string {
	names := make([]string, 0, len(tr.Spans))
	for _, sp := range tr.Spans {
		names = append(names, sp.Name)
	}
	return names
}

func TestMatchRequestProducesConnectedTrace(t *testing.T) {
	c, _ := startServer(t, t.TempDir(), true) // durable: WAL spans must appear
	id := loadPair(t, c)

	if _, err := c.Match(id, 0.1); err != nil {
		t.Fatalf("Match: %v", err)
	}
	traceID := c.LastTrace()
	if traceID == "" {
		t.Fatal("client recorded no trace ID")
	}
	tr, err := c.Trace(traceID)
	if err != nil {
		t.Fatalf("Trace(%s): %v", traceID, err)
	}
	if tr.Trace != traceID {
		t.Fatalf("fetched trace %s, asked for %s", tr.Trace, traceID)
	}
	if tr.Root != "match.run" || tr.DurationUS <= 0 {
		t.Fatalf("trace root=%q duration=%dus", tr.Root, tr.DurationUS)
	}
	ix := indexTrace(t, tr)

	// The root is the server's route span, parented under the client's
	// header span — which lives client-side, so its parent is absent here.
	root := ix.find("match.run")
	if _, ok := ix.byID[root.Parent]; ok || root.Parent == "" {
		t.Errorf("route span parent %q should reference the (absent) client span", root.Parent)
	}
	if ix.attr(root, "mapping") != id || ix.attr(root, "code") != "200" {
		t.Errorf("route span attrs = %v", root.Attrs)
	}

	// Every other span's parent must resolve inside the trace: one
	// connected tree, no orphans.
	for _, sp := range tr.Spans {
		if sp.ID == root.ID {
			continue
		}
		if _, ok := ix.byID[sp.Parent]; !ok {
			t.Errorf("span %q parent %q not in trace", sp.Name, sp.Parent)
		}
	}

	// The layering: txn under the route, WAL append under the txn, fsync
	// under the append.
	txn := ix.find("wbmgr.txn")
	if txn.Parent != root.ID {
		t.Error("wbmgr.txn not parented under the route span")
	}
	if ix.attr(txn, "outcome") != "commit" {
		t.Errorf("txn outcome = %q, want commit", ix.attr(txn, "outcome"))
	}
	app := ix.find("wal.append")
	if app.Parent != txn.ID {
		t.Error("wal.append not parented under wbmgr.txn")
	}
	if ix.find("wal.fsync").Parent != app.ID {
		t.Error("wal.fsync not parented under wal.append")
	}

	// Harmony's stage spans joined the same trace: voter spans under the
	// route, each with a matchcache lookup child carrying cache_hit.
	var voters, cacheGets int
	for _, sp := range tr.Spans {
		if strings.HasPrefix(sp.Name, "voter:") {
			voters++
			if sp.Parent != root.ID {
				t.Errorf("stage span %q not parented under the route span", sp.Name)
			}
		}
		if sp.Name == "matchcache.get" {
			cacheGets++
			if hit := ix.attr(sp, "cache_hit"); hit != "true" && hit != "false" {
				t.Errorf("matchcache.get cache_hit = %q", hit)
			}
		}
	}
	if voters == 0 {
		t.Error("no voter stage spans in trace")
	}
	if cacheGets == 0 {
		t.Error("no matchcache.get spans in trace")
	}
	// The remaining Figure 1 stages hang off the route span too; no
	// wrapping span sits between a request and its pipeline.
	for _, name := range []string{"merge", "flooding", "pin-decisions"} {
		if ix.find(name).Parent != root.ID {
			t.Errorf("stage span %q not parented under the route span", name)
		}
	}
	// A cold match builds its engine's linguistic context exactly once,
	// under one "context" span hanging off the route span.
	var contexts int
	for _, sp := range tr.Spans {
		if sp.Name == "context" {
			contexts++
			if sp.Parent != root.ID {
				t.Error("context span not parented under the route span")
			}
		}
	}
	if contexts != 1 {
		t.Errorf("cold match has %d context spans, want 1", contexts)
	}
	// A voter's cache lookup hangs off its voter span, the merged
	// lookup off the route span.
	for _, sp := range tr.Spans {
		if sp.Name != "matchcache.get" {
			continue
		}
		if p := ix.byID[sp.Parent]; p.ID != root.ID && !strings.HasPrefix(p.Name, "voter:") {
			t.Errorf("matchcache.get parented under %q, want a voter span or the route", p.Name)
		}
	}
}

func TestRematchTraceCarriesMode(t *testing.T) {
	c, _ := startServer(t, "", false)
	id := loadPair(t, c)
	if _, err := c.Match(id, 0.1); err != nil {
		t.Fatalf("Match: %v", err)
	}
	if _, err := c.Rematch(id, 0.1, nil, nil); err != nil {
		t.Fatalf("Rematch: %v", err)
	}
	tr, err := c.Trace(c.LastTrace())
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	ix := indexTrace(t, tr)
	root := ix.find("match.rematch")
	if mode := ix.attr(root, "rematch_mode"); mode == "" {
		t.Errorf("rematch root span has no rematch_mode attr: %v", root.Attrs)
	}
}

// TestTraceJSONLExport reads the whole store as JSON Lines: one
// TraceInfo per line, oldest first, each line equal to the single-trace
// view of the same trace.
func TestTraceJSONLExport(t *testing.T) {
	c, srv := startServer(t, "", false)
	id := loadPair(t, c)
	if _, err := c.Match(id, 0.1); err != nil {
		t.Fatalf("Match: %v", err)
	}
	matchTrace := c.LastTrace()
	if _, err := c.Rematch(id, 0.1, nil, nil); err != nil {
		t.Fatalf("Rematch: %v", err)
	}
	rematchTrace := c.LastTrace()

	resp, err := http.Get(c.BaseURL() + "/debug/traces?format=jsonl")
	if err != nil {
		t.Fatalf("GET jsonl: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/jsonl" {
		t.Errorf("Content-Type = %q", ct)
	}
	var lines []server.TraceInfo
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var tr server.TraceInfo
		if err := json.Unmarshal(sc.Bytes(), &tr); err != nil {
			t.Fatalf("line %d does not decode as a TraceInfo: %v", len(lines)+1, err)
		}
		lines = append(lines, tr)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading jsonl: %v", err)
	}
	if len(lines) != srv.Traces().Len() || len(lines) < 2 {
		t.Fatalf("jsonl lines = %d, store holds %d traces", len(lines), srv.Traces().Len())
	}
	// Oldest first: the rematch was the last request, the match before it.
	if n := len(lines); lines[n-2].Trace != matchTrace || lines[n-1].Trace != rematchTrace {
		t.Errorf("last two lines are traces %s, %s; want match %s then rematch %s",
			lines[n-2].Trace, lines[n-1].Trace, matchTrace, rematchTrace)
	}
	for i, line := range lines {
		if i > 0 && line.Start.Before(lines[i-1].Start) {
			t.Errorf("line %d (%s) starts before line %d", i+1, line.Root, i)
		}
		one, err := c.Trace(line.Trace)
		if err != nil {
			t.Fatalf("Trace(%s): %v", line.Trace, err)
		}
		if !reflect.DeepEqual(line, one) {
			t.Errorf("jsonl line for %s differs from GET /debug/traces/{id}:\n%+v\n%+v", line.Trace, line, one)
		}
	}
}

func TestTraceListAndSlowViews(t *testing.T) {
	c, srv := startServer(t, "", false)
	id := loadPair(t, c)
	if _, err := c.Match(id, 0.1); err != nil {
		t.Fatalf("Match: %v", err)
	}
	traces, err := c.Traces(50)
	if err != nil {
		t.Fatalf("Traces: %v", err)
	}
	var sawMatch bool
	for _, tr := range traces {
		if tr.Root == "match.run" {
			sawMatch = true
		}
	}
	if !sawMatch {
		t.Errorf("recent traces missing the match request: %d traces", len(traces))
	}
	// Everything completed is "slow" at threshold 0; nothing at 1h.
	slow, err := c.SlowTraces(time.Nanosecond, 0)
	if err != nil || len(slow) == 0 {
		t.Fatalf("SlowTraces(1ns) = %d traces, err %v", len(slow), err)
	}
	slow, err = c.SlowTraces(time.Hour, 0)
	if err != nil || len(slow) != 0 {
		t.Fatalf("SlowTraces(1h) = %d traces, err %v", len(slow), err)
	}
	if srv.Traces().Len() == 0 {
		t.Error("server trace store empty")
	}
}

// TestConcurrentTracedRequests drives mixed traced traffic from many
// goroutines; under -race this guards the span/store synchronization.
func TestConcurrentTracedRequests(t *testing.T) {
	c, _ := startServer(t, t.TempDir(), true)
	id := loadPair(t, c)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine gets its own client: the shared one guards
			// lastTrace but the HTTP transport is already safe.
			cc := clientFor(c)
			for j := 0; j < 5; j++ {
				if _, err := cc.Rematch(id, 0.1, nil, nil); err != nil {
					t.Errorf("Rematch: %v", err)
					return
				}
				if _, err := cc.Traces(5); err != nil {
					t.Errorf("Traces: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTxnMuWaitAndCellReadSpans reads the two layers a decide and a view
// used to hide in their route span's self time: the workspace TxnMu wait
// (txnmu.wait, under the decide's route span and before its wbmgr.txn)
// and the mapping's cell read (blackboard.cells, under the view's route
// span). Under a TxnMu the test holds, the wait span covers the hold.
func TestTxnMuWaitAndCellReadSpans(t *testing.T) {
	c, srv := startServer(t, "", false)
	id := loadPair(t, c)
	match, err := c.Match(id, 0.1)
	if err != nil || len(match.Cells) == 0 {
		t.Fatalf("Match: %d cells, %v", len(match.Cells), err)
	}

	if _, err := c.Cells(id); err != nil {
		t.Fatal(err)
	}
	tr, err := c.Trace(c.LastTrace())
	if err != nil {
		t.Fatal(err)
	}
	ix := indexTrace(t, tr)
	if read := ix.find("blackboard.cells"); read.Parent != ix.find("cells.list").ID {
		t.Errorf("blackboard.cells not under the cells.list route span: %v", spanNames(tr))
	}

	ws, _ := srv.Workspaces().Get("default")
	const hold = 60 * time.Millisecond
	ws.TxnMu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := c.Decide(id, match.Cells[0].Source, match.Cells[0].Target, "accept")
		done <- err
	}()
	time.Sleep(hold)
	unlocked := time.Now()
	ws.TxnMu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	tr, err = c.Trace(c.LastTrace())
	if err != nil {
		t.Fatal(err)
	}
	ix = indexTrace(t, tr)
	wait, txn := ix.find("txnmu.wait"), ix.find("wbmgr.txn")
	if root := ix.find("cells.decide"); wait.Parent != root.ID || txn.Parent != root.ID {
		t.Errorf("txnmu.wait and wbmgr.txn not both under the decide route span: %+v", tr.Spans)
	}
	// The request waited from its arrival to the unlock: the span must
	// end at the unlock or later (microsecond rounding aside).
	if end := tr.Start.Add(time.Duration(wait.StartUS+wait.DurationUS+1) * time.Microsecond); end.Before(unlocked) {
		t.Errorf("txnmu.wait (%dµs) ends %v before the held TxnMu was released", wait.DurationUS, unlocked.Sub(end))
	}
	if wait.StartUS+wait.DurationUS > txn.StartUS {
		t.Errorf("txnmu.wait ends at %dµs, after wbmgr.txn starts at %dµs", wait.StartUS+wait.DurationUS, txn.StartUS)
	}
}
