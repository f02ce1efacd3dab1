// Package client is the thin Go client of the workbench service
// (internal/server): typed wrappers over the HTTP/JSON API that the
// `workbench` CLI uses in -remote mode, and that programmatic tools can
// embed to join a shared, durable blackboard. It reuses the server's
// wire structs, so the two sides cannot drift.
package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/server"
)

// Client talks to one workbench service.
type Client struct {
	base      string
	http      *http.Client
	session   string
	workspace string

	mu        sync.Mutex
	lastTrace obs.TraceID
}

// New returns a client for the service at base (e.g.
// "http://127.0.0.1:8080"). The scheme is added when missing.
func New(base string) *Client {
	base = strings.TrimRight(base, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{base: base, http: &http.Client{}}
}

// SetHTTPClient swaps the underlying http.Client (tests, timeouts).
func (c *Client) SetHTTPClient(hc *http.Client) { c.http = hc }

// ForWorkspace returns a client addressing one workspace: every
// workspace-scoped request carries the X-Ib-Workspace header, so it
// lands in that tenant instead of `default`. Node-level routes
// (promote, replication status, traces, workspace lifecycle) are
// unaffected. The returned client shares the transport but not the
// session — open one per workspace.
func (c *Client) ForWorkspace(ws string) *Client {
	return &Client{base: c.base, http: c.http, workspace: ws}
}

// Workspace returns the workspace this client addresses ("" = default).
func (c *Client) Workspace() string { return c.workspace }

// BaseURL returns the normalized service address this client talks to.
func (c *Client) BaseURL() string { return c.base }

// Session returns the session id attached to mutating requests ("" when
// none was opened).
func (c *Client) Session() string { return c.session }

// do performs one JSON round-trip. A nil in sends an empty body; a nil
// out discards the response body. Non-2xx responses are decoded as the
// uniform error shape. Every request mints a fresh trace context and
// sends it in the X-Ib-Trace header, so the server's request span joins
// a trace whose ID the client knows (LastTrace) — `workbench trace`
// can fetch exactly the trace its previous command produced.
func (c *Client) do(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.session != "" {
		req.Header.Set(server.SessionHeader, c.session)
	}
	if c.workspace != "" {
		req.Header.Set(server.WorkspaceHeader, c.workspace)
	}
	sc := obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}
	req.Header.Set(server.TraceHeader, sc.Header())
	c.mu.Lock()
	c.lastTrace = sc.Trace
	c.mu.Unlock()
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e server.ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("workbench server: %s", e.Error)
		}
		return fmt.Errorf("workbench server: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	if out == nil {
		return nil
	}
	if u, ok := out.(json.Unmarshaler); ok {
		// A type with a wire form of its own (server.CellList) reads the
		// body in one pass; encoding/json would scan it first.
		return u.UnmarshalJSON(data)
	}
	return json.Unmarshal(data, out)
}

// OpenSession opens an analyst session and attaches it to every
// subsequent mutating request, so provenance and events carry the
// client's name.
func (c *Client) OpenSession(clientName string) (server.SessionInfo, error) {
	var info server.SessionInfo
	err := c.do("POST", "/v1/sessions", server.OpenSessionRequest{Client: clientName}, &info)
	if err == nil {
		c.session = info.ID
	}
	return info, err
}

// Sessions lists open sessions.
func (c *Client) Sessions() ([]server.SessionInfo, error) {
	var out []server.SessionInfo
	return out, c.do("GET", "/v1/sessions", nil, &out)
}

// LoadSchema uploads schema text (format: xsd, sql or er) and stores it
// under name, returning the stored version.
func (c *Client) LoadSchema(name, format, text string) (server.SchemaInfo, error) {
	var out server.SchemaInfo
	err := c.do("POST", "/v1/schemas", server.LoadSchemaRequest{Name: name, Format: format, Text: text}, &out)
	return out, err
}

// Schemas lists stored schemata.
func (c *Client) Schemas() ([]server.SchemaInfo, error) {
	var out []server.SchemaInfo
	return out, c.do("GET", "/v1/schemas", nil, &out)
}

// NewMapping creates a mapping matrix between two stored schemata.
func (c *Client) NewMapping(id, source, target string) (server.MappingInfo, error) {
	var out server.MappingInfo
	err := c.do("POST", "/v1/mappings", server.CreateMappingRequest{ID: id, Source: source, Target: target}, &out)
	return out, err
}

// Mappings lists the mapping library.
func (c *Client) Mappings() ([]server.MappingInfo, error) {
	var out []server.MappingInfo
	return out, c.do("GET", "/v1/mappings", nil, &out)
}

// Match runs Harmony server-side and publishes every correspondence at
// or above threshold (the CLI default is server.DefaultThreshold). The
// response carries the cells the publish wrote and the revision after
// them (see CellsSince).
func (c *Client) Match(id string, threshold float64) (server.MatchResponse, error) {
	var out server.MatchResponse
	err := c.do("POST", "/v1/mappings/"+url.PathEscape(id)+"/match",
		server.MatchRequest{Threshold: &threshold}, &out)
	return out, err
}

// Rematch incrementally recomputes a mapping's matrix server-side. The
// dirty ID lists are optional hints naming elements the caller knows
// changed; the server unions them with its own change detection. The
// response's Mode reports which recompute path ran; like Match's, it
// carries only the cells the publish wrote.
func (c *Client) Rematch(id string, threshold float64, dirtySource, dirtyTarget []string) (server.RematchResponse, error) {
	var out server.RematchResponse
	err := c.do("POST", "/v1/mappings/"+url.PathEscape(id)+"/rematch",
		server.RematchRequest{Threshold: &threshold, DirtySource: dirtySource, DirtyTarget: dirtyTarget}, &out)
	return out, err
}

// Apply plans (req.DryRun) or applies a versioned schema set
// server-side: the server diffs every declared schema against its
// blackboard copy and, on a real apply, puts the changes as one
// transaction and incrementally re-matches every affected mapping.
func (c *Client) Apply(req server.ApplyRequest) (server.ApplyResponse, error) {
	var out server.ApplyResponse
	err := c.do("POST", "/v1/apply", req, &out)
	return out, err
}

// Decide accepts or rejects one correspondence (verdict: "accept" or
// "reject").
func (c *Client) Decide(id, source, target, verdict string) (server.CellInfo, error) {
	var out server.CellInfo
	err := c.do("POST", "/v1/mappings/"+url.PathEscape(id)+"/decide",
		server.DecideRequest{Source: source, Target: target, Verdict: verdict}, &out)
	return out, err
}

// Cells fetches the mapping matrix.
func (c *Client) Cells(id string) ([]server.CellInfo, error) {
	var out server.CellList
	return out, c.do("GET", "/v1/mappings/"+url.PathEscape(id)+"/cells", nil, &out)
}

// CellsSince fetches the mapping's cells written after blackboard
// revision since — a match, rematch or decide response's revision, or
// a cell's — ordered like Cells.
func (c *Client) CellsSince(id string, since int) ([]server.CellInfo, error) {
	var out server.CellList
	return out, c.do("GET", "/v1/mappings/"+url.PathEscape(id)+"/cells?since="+strconv.Itoa(since), nil, &out)
}

// Query runs a §5.2 ad hoc basic-graph-pattern query.
func (c *Client) Query(query string, vars ...string) ([][]string, error) {
	var out server.QueryResponse
	err := c.do("POST", "/v1/query", server.QueryRequest{Query: query, Vars: vars}, &out)
	return out.Rows, err
}

// Events long-polls the feed for events after the cursor, waiting up to
// timeout server-side. It returns the events (possibly none) and the
// cursor for the next call; gap reports dropped events (client too far
// behind — re-sync state before resuming).
func (c *Client) Events(after uint64, timeout time.Duration) (evs []server.FeedEvent, next uint64, gap bool, err error) {
	var out server.EventsResponse
	path := fmt.Sprintf("/v1/events?after=%d&timeout=%s", after, timeout)
	if err := c.do("GET", path, nil, &out); err != nil {
		return nil, after, false, err
	}
	return out.Events, out.Next, out.Gap, nil
}

// ReplStatus reports the node's replication role, epoch, cursor, and
// lag (meaningful for replicas; primaries report themselves healthy).
func (c *Client) ReplStatus() (repl.Status, error) {
	var out repl.Status
	return out, c.do("GET", repl.StatusPath, nil, &out)
}

// Promote asks a replica to take over as primary: it stops tailing,
// bumps the fencing epoch, opens its WAL for writes, and best-effort
// fences the old primary. Returns the node's post-promotion status.
func (c *Client) Promote() (repl.Status, error) {
	var out repl.Status
	return out, c.do("POST", repl.PromotePath, nil, &out)
}

// Fsck asks the server for a blackboard + WAL integrity report.
func (c *Client) Fsck() (server.FsckResponse, error) {
	var out server.FsckResponse
	return out, c.do("GET", "/v1/fsck", nil, &out)
}

// SnapshotNow forces the server to fold its WAL into a fresh snapshot.
func (c *Client) SnapshotNow() (server.SnapshotResponse, error) {
	var out server.SnapshotResponse
	return out, c.do("POST", "/v1/snapshot", nil, &out)
}

// CreateWorkspace creates a workspace, optionally with per-tenant
// quotas (0 = inherit the server default).
func (c *Client) CreateWorkspace(name string, maxTriples int, maxWALBytes int64) (server.WorkspaceInfo, error) {
	var out server.WorkspaceInfo
	err := c.do("POST", "/v1/workspaces", server.CreateWorkspaceRequest{
		Name: name, MaxTriples: maxTriples, MaxWALBytes: maxWALBytes,
	}, &out)
	return out, err
}

// Workspaces lists every workspace with its per-tenant stats.
func (c *Client) Workspaces() ([]server.WorkspaceInfo, error) {
	var out []server.WorkspaceInfo
	return out, c.do("GET", "/v1/workspaces", nil, &out)
}

// DeleteWorkspace destroys a workspace and its WAL partition. The
// confirm token the server demands is the workspace name itself; this
// wrapper supplies it, so calling this IS the confirmation.
func (c *Client) DeleteWorkspace(name string) (server.DeleteWorkspaceResponse, error) {
	var out server.DeleteWorkspaceResponse
	path := "/v1/workspaces/" + url.PathEscape(name) + "?confirm=" + url.QueryEscape(name)
	return out, c.do("DELETE", path, nil, &out)
}

// LastTrace returns the trace ID (16 hex digits) the client attached to
// its most recent request — pass it to Trace to see what the server did
// with that request ("" before any request).
func (c *Client) LastTrace() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lastTrace == 0 {
		return ""
	}
	return c.lastTrace.String()
}

// Traces lists the server's most recent request traces, newest first
// (n <= 0 lets the server pick its default).
func (c *Client) Traces(n int) ([]server.TraceInfo, error) {
	path := "/debug/traces"
	if n > 0 {
		path += fmt.Sprintf("?n=%d", n)
	}
	var out []server.TraceInfo
	return out, c.do("GET", path, nil, &out)
}

// SlowTraces lists completed traces whose request took at least min,
// newest first.
func (c *Client) SlowTraces(min time.Duration, n int) ([]server.TraceInfo, error) {
	path := fmt.Sprintf("/debug/traces?min=%s", url.QueryEscape(min.String()))
	if n > 0 {
		path += fmt.Sprintf("&n=%d", n)
	}
	var out []server.TraceInfo
	return out, c.do("GET", path, nil, &out)
}

// Trace fetches one trace by its 16-hex-digit ID (e.g. LastTrace).
func (c *Client) Trace(id string) (server.TraceInfo, error) {
	var out server.TraceInfo
	return out, c.do("GET", "/debug/traces/"+url.PathEscape(id), nil, &out)
}
