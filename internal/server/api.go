package server

import (
	"time"

	"repro/internal/obs"
)

// Wire types of the workbench HTTP/JSON API (v1). The thin Go client
// (internal/client) reuses these structs, so the two sides cannot drift.
//
// Routes (all JSON unless noted):
//
//	POST /v1/sessions                     open a session        → SessionInfo
//	GET  /v1/sessions                     list sessions         → []SessionInfo
//	POST /v1/schemas                      load a schema         → SchemaInfo
//	GET  /v1/schemas                      list schemata         → []SchemaInfo
//	GET  /v1/schemas/{name}               one schema            → SchemaInfo
//	POST /v1/mappings                     create a mapping      → MappingInfo
//	GET  /v1/mappings                     list mappings         → []MappingInfo
//	GET  /v1/mappings/{id}                one mapping           → MappingInfo
//	GET  /v1/mappings/{id}/cells          the mapping matrix    → CellList
//	GET  /v1/mappings/{id}/cells?since=R  cells written after revision R → CellList
//	POST /v1/mappings/{id}/match          run Harmony           → MatchResponse
//	POST /v1/mappings/{id}/rematch        incremental re-match  → RematchResponse
//	POST /v1/mappings/{id}/decide         accept/reject a cell  → CellInfo
//	POST /v1/apply                        schema-set plan/apply → ApplyResponse
//	POST /v1/query                        ad hoc IB query       → QueryResponse
//	GET  /v1/events?after=N&timeout=30s   long-poll event feed  → EventsResponse
//	GET  /v1/events (Accept: text/event-stream)  SSE event feed
//	GET  /v1/fsck                         integrity check       → FsckResponse
//	POST /v1/snapshot                     force a WAL snapshot  → SnapshotResponse
//	GET  /v1/healthz                      workspace health      → HealthResponse
//
// Every route above is workspace-scoped: the bare /v1/... form
// addresses the `default` workspace (or the one named by the
// X-Ib-Workspace header), and the same route nested as
// /v1/workspaces/{ws}/... addresses workspace {ws} explicitly. A
// request naming an unknown workspace is a 404; workspaces are never
// created implicitly.
//
//	POST   /v1/workspaces                 create a workspace    → WorkspaceInfo
//	GET    /v1/workspaces                 list + per-tenant stats → []WorkspaceInfo
//	GET    /v1/workspaces/{ws}            one workspace's stats → WorkspaceInfo
//	DELETE /v1/workspaces/{ws}?confirm={ws}  destroy a workspace → DeleteWorkspaceResponse
//	                                      (default is never deletable)
//	POST /v1/promote                      replica → primary     → repl.Status
//	GET  /v1/repl/status                  replication status    → repl.Status
//	POST /v1/repl/fence                   seal on a newer epoch → repl.FenceResponse
//	GET  /v1/repl/log?after=N&timeout=25s sealed WAL txn frames (octet-stream;
//	                                      410 = bootstrap needed; followers only)
//	GET  /v1/repl/snapshot                bootstrap graph (N-Triples + txn header)
//	GET  /metrics, /healthz               obs exposition (Prometheus text / JSON;
//	                                      healthz is 503 when sealed or replication stalls)
//	GET  /debug/traces?n=20&min=250ms     recent request traces → []TraceInfo
//	                                      (format=jsonl streams the JSONL export)
//	GET  /debug/traces/{id}               one trace by hex id   → TraceInfo
//	GET  /debug/pprof/...                 net/http/pprof (opt-in via Config.EnablePprof)
//
// Mutating routes attribute their transaction (and therefore event
// provenance) to the session named by the X-Workbench-Session header;
// without one they run as the "remote" tool. The workbench CLI opens no
// session, in -remote and in local mode alike (local mode is a client of
// an in-process service), so every CLI decision is set by "remote".
//
// A match or rematch answers with the cells its publish wrote, not the
// whole matrix, and the blackboard revision after them: a client that
// keeps a copy of the matrix merges the written cells into it by pair,
// or catches up with GET cells?since=<revision it last saw>. Every list
// of cells travels as one CellList table (celllist.go): each distinct
// source, target and tool once, then one column per field.
//
// A decide names a source and a target element; unless each is a
// non-root element of the mapping's current source or target schema,
// the route answers 400 naming the ID and stores nothing.
//
// Errors are {"error": "..."} with a 4xx/5xx status.

// SessionHeader carries the session id on mutating requests.
const SessionHeader = "X-Workbench-Session"

// WorkspaceHeader names the workspace a bare /v1/... request addresses
// (absent = the default workspace). The /v1/workspaces/{ws}/... path
// form takes precedence over the header.
const WorkspaceHeader = "X-Ib-Workspace"

// TraceHeader carries the caller's trace context on any request, as
// "<trace hex16>-<span hex16>" (obs.SpanContext.Header). The server
// continues the trace: its request root span becomes a child of the
// header's span, so client and server report the same trace ID.
const TraceHeader = "X-Ib-Trace"

// ErrorResponse is the uniform error body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ReadOnlyResponse is the 409 body a replica or sealed node answers
// mutating requests with: the uniform error shape plus enough routing
// detail for a client to retry against the acting primary.
type ReadOnlyResponse struct {
	Error string `json:"error"`
	// Role is "replica" or "sealed".
	Role string `json:"role"`
	// Primary is the upstream URL to write to ("" on a sealed node —
	// its deposer's address is unknown to it).
	Primary string `json:"primary,omitempty"`
	Epoch   uint64 `json:"epoch"`
}

// OpenSessionRequest names the connecting client.
type OpenSessionRequest struct {
	Client string `json:"client"`
}

// SessionInfo describes one live analyst session.
type SessionInfo struct {
	ID     string `json:"id"`
	Client string `json:"client"`
	// Workspace is the tenant the session lives in.
	Workspace string `json:"workspace,omitempty"`
	// Tool is the provenance name the session's transactions run under.
	Tool string `json:"tool"`
	// CreatedRev is the blackboard revision when the session opened.
	CreatedRev int `json:"createdRev"`
	// Ops counts mutating requests attributed to the session.
	Ops int `json:"ops"`
}

// LoadSchemaRequest uploads schema text for parsing and storage.
type LoadSchemaRequest struct {
	// Name is the schema name in the blackboard.
	Name string `json:"name"`
	// Format selects the loader: "xsd", "sql" or "er".
	Format string `json:"format"`
	// Text is the raw schema document.
	Text string `json:"text"`
}

// SchemaInfo summarizes one stored schema.
type SchemaInfo struct {
	Name     string `json:"name"`
	Version  int    `json:"version"`
	Elements int    `json:"elements"`
}

// CreateMappingRequest creates a mapping matrix between two schemata.
type CreateMappingRequest struct {
	ID     string `json:"id"`
	Source string `json:"source"`
	Target string `json:"target"`
}

// MappingInfo summarizes one mapping matrix.
type MappingInfo struct {
	ID     string `json:"id"`
	Source string `json:"source"`
	Target string `json:"target"`
	Cells  int    `json:"cells"`
}

// CellInfo is one mapping-matrix cell (blackboard.Cell on the wire).
type CellInfo struct {
	Source      string  `json:"source"`
	Target      string  `json:"target"`
	Confidence  float64 `json:"confidence"`
	UserDefined bool    `json:"userDefined"`
	SetBy       string  `json:"setBy"`
	Revision    int     `json:"revision"`
}

// MatchRequest tunes a Harmony run over a mapping's schema pair.
type MatchRequest struct {
	// Threshold filters published correspondences (default 0.25).
	Threshold *float64 `json:"threshold,omitempty"`
}

// MatchResponse reports a match run's publish: Published counts the
// correspondences at or above the threshold, Cells holds the ones the
// publish wrote (a cell already holding its score, or a decision, is
// not rewritten), and Revision is the blackboard revision after the
// publish.
type MatchResponse struct {
	Threshold float64  `json:"threshold"`
	Published int      `json:"published"`
	Cells     CellList `json:"cells"`
	Revision  int      `json:"revision"`
}

// RematchRequest tunes an incremental re-match over a mapping whose
// schemas or decisions changed since the last match run.
type RematchRequest struct {
	// Threshold filters published correspondences (default 0.25).
	Threshold *float64 `json:"threshold,omitempty"`
	// DirtySource/DirtyTarget are optional element-ID hints naming what
	// the client believes changed. They are advisory: the engine unions
	// them with its own change detection, so omitting them is always
	// safe, just potentially slower.
	DirtySource []string `json:"dirtySource,omitempty"`
	DirtyTarget []string `json:"dirtyTarget,omitempty"`
}

// CacheStats reports the score-matrix cache index of the mapping's
// workspace: the entries its live engines hold, lifetime lookup hits
// and misses, and evictions — entries dropped because their last
// holder moved on to newer matrices.
type CacheStats struct {
	Entries   int     `json:"entries"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRatio  float64 `json:"hitRatio"`
}

// RematchResponse reports an incremental re-match: which recompute path
// ran ("cold", "pins", "incremental", "corpus" or "full"), its publish
// as in MatchResponse — the count of correspondences at or above the
// threshold, the cells it wrote and the revision after them — and the
// state of the matrix cache.
type RematchResponse struct {
	Mode      string     `json:"mode"`
	Threshold float64    `json:"threshold"`
	Published int        `json:"published"`
	Cells     CellList   `json:"cells"`
	Revision  int        `json:"revision"`
	Cache     CacheStats `json:"cache"`
}

// ApplySchema is one declared schema in a schema-set apply request: the
// raw document travels to the server, which parses, hashes and diffs it
// against its blackboard copy (the files live client-side, the shared
// state server-side).
type ApplySchema struct {
	Name   string `json:"name"`
	Format string `json:"format"`
	Text   string `json:"text"`
}

// ApplyRequest plans (DryRun) or applies one versioned schema set. The
// lock fields carry the client's lockfile entry for the set so the
// server can report out-of-band drift (blackboard ≠ lockfile).
type ApplyRequest struct {
	Set     string        `json:"set"`
	Version string        `json:"version"`
	Schemas []ApplySchema `json:"schemas"`
	// LockVersion/LockHashes mirror the client's lockfile entry for
	// this set ("" / nil when the set was never applied).
	LockVersion string            `json:"lockVersion,omitempty"`
	LockHashes  map[string]string `json:"lockHashes,omitempty"`
	// DryRun computes and returns the plan without mutating anything.
	DryRun bool `json:"dryRun,omitempty"`
	// Threshold filters republished correspondences (default 0.25).
	Threshold *float64 `json:"threshold,omitempty"`
}

// ApplySchemaPlan is one schema's computed plan row.
type ApplySchemaPlan struct {
	Name   string `json:"name"`
	Format string `json:"format"`
	// Action is "create", "update" or "no-op".
	Action   string `json:"action"`
	Hash     string `json:"hash"`
	LockHash string `json:"lockHash,omitempty"`
	BBHash   string `json:"bbHash,omitempty"`
	Drift    bool   `json:"drift,omitempty"`
	// Diff renders the update's model.Diff entries.
	Diff []string `json:"diff,omitempty"`
}

// ApplyRematch reports one mapping's re-match during an apply.
type ApplyRematch struct {
	Mapping   string `json:"mapping"`
	Mode      string `json:"mode"`
	Published int    `json:"published"`
}

// ApplyResponse carries the change plan and, unless DryRun or a no-op,
// what the apply did: schemas put (one transaction) and the affected
// mappings' incremental re-matches.
type ApplyResponse struct {
	Set     string            `json:"set"`
	Version string            `json:"version"`
	Plan    []ApplySchemaPlan `json:"plan"`
	// PlanText is the rendered human-readable plan, identical to what
	// a local `workbench plan` would print.
	PlanText  string         `json:"planText"`
	NoOp      bool           `json:"noop"`
	DryRun    bool           `json:"dryRun,omitempty"`
	Txns      int            `json:"txns"`
	Applied   []string       `json:"applied,omitempty"`
	Rematches []ApplyRematch `json:"rematches,omitempty"`
}

// DecideRequest accepts or rejects one correspondence.
type DecideRequest struct {
	Source string `json:"source"`
	Target string `json:"target"`
	// Verdict is "accept" (confidence +1) or "reject" (confidence -1).
	Verdict string `json:"verdict"`
}

// QueryRequest is a §5.2 ad hoc query: basic-graph-pattern text plus the
// variables to project.
type QueryRequest struct {
	Query string   `json:"query"`
	Vars  []string `json:"vars"`
}

// QueryResponse carries the projected rows.
type QueryResponse struct {
	Rows [][]string `json:"rows"`
}

// FeedEvent is one blackboard-change event as seen by network clients:
// the workspace manager's event with its sequence number. Sequence
// numbers start at 1 and never repeat within a server process, so a
// client that long-polls with after=<last seen seq> receives every
// event exactly once, in order.
type FeedEvent struct {
	Seq     uint64 `json:"seq"`
	Kind    string `json:"kind"`
	Tool    string `json:"tool"`
	Subject string `json:"subject"`
}

// EventsResponse is one long-poll answer: the events after the client's
// cursor plus the new cursor to poll with next.
type EventsResponse struct {
	// Next is the cursor for the next poll: the highest delivered seq,
	// the head after a gap with nothing retained, or the request's after
	// when no events arrived before the timeout.
	Next uint64 `json:"next"`
	// Gap reports that the feed cannot continue the client's cursor: the
	// client fell further behind than the workspace's event log retains,
	// or its cursor is ahead of the head (sequence numbers restart at 1
	// when the server restarts). Events then holds every retained event,
	// oldest first, and the client should re-read current state before
	// trusting incremental updates again.
	Gap    bool        `json:"gap,omitempty"`
	Events []FeedEvent `json:"events"`
}

// FsckResponse reports blackboard + WAL integrity.
type FsckResponse struct {
	Clean   bool     `json:"clean"`
	Triples int      `json:"triples"`
	Errors  []string `json:"errors,omitempty"`
	// Workspace names the tenant the check ran in.
	Workspace string `json:"workspace,omitempty"`
	// Recovery is the WAL recovery summary from startup ("" when the
	// server runs without a data dir).
	Recovery string `json:"recovery,omitempty"`
}

// SnapshotResponse acknowledges a forced snapshot.
type SnapshotResponse struct {
	Triples int `json:"triples"`
}

// CreateWorkspaceRequest names a new workspace and (optionally) its
// quotas; a zero quota inherits the server's configured default.
type CreateWorkspaceRequest struct {
	Name        string `json:"name"`
	MaxTriples  int    `json:"max_triples,omitempty"`
	MaxWALBytes int64  `json:"max_wal_bytes,omitempty"`
}

// WorkspaceInfo is one tenant's stats row (workspace list/get routes).
type WorkspaceInfo struct {
	Name     string `json:"name"`
	Triples  int    `json:"triples"`
	Schemas  int    `json:"schemas"`
	Mappings int    `json:"mappings"`
	Sessions int    `json:"sessions"`
	// WALBytes is the partition's live log size: what it logged since its
	// last snapshot (0 when the server is in-memory).
	WALBytes int64 `json:"wal_bytes"`
	// LastTxn is the partition's committed-transaction high-water mark.
	LastTxn uint64 `json:"last_txn"`
	// FeedSeq is the highest sequence number the workspace's event log
	// has assigned.
	FeedSeq     uint64 `json:"feed_seq"`
	MaxTriples  int    `json:"max_triples,omitempty"`
	MaxWALBytes int64  `json:"max_wal_bytes,omitempty"`
}

// DeleteWorkspaceResponse acknowledges a workspace deletion.
type DeleteWorkspaceResponse struct {
	Name    string `json:"name"`
	Deleted bool   `json:"deleted"`
}

// HealthResponse is the per-workspace healthz body: "ok" with 200, or
// "degraded"/"sealed" with 503 and a human-readable detail.
type HealthResponse struct {
	Status    string `json:"status"`
	Workspace string `json:"workspace"`
	Detail    string `json:"detail,omitempty"`
}

// SpanInfo is one finished span of a request trace, as served by
// /debug/traces. Times are microseconds; StartUS is the offset from the
// trace's start.
type SpanInfo struct {
	ID         string     `json:"id"`
	Parent     string     `json:"parent,omitempty"`
	Name       string     `json:"name"`
	StartUS    int64      `json:"start_us"`
	DurationUS int64      `json:"duration_us"`
	Attrs      []obs.Attr `json:"attrs,omitempty"`
	Err        string     `json:"err,omitempty"`
}

// TraceInfo is one assembled request trace (GET /debug/traces,
// GET /debug/traces/{id}).
type TraceInfo struct {
	Trace string    `json:"trace"`
	Root  string    `json:"root"`
	Start time.Time `json:"start"`
	// DurationUS is the root span's duration (0 while still in flight).
	DurationUS int64 `json:"duration_us"`
	// DroppedSpans counts spans discarded past the per-trace bound.
	DroppedSpans int        `json:"dropped_spans,omitempty"`
	Spans        []SpanInfo `json:"spans"`
}
