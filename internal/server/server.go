// Package server turns the workbench into a long-lived, multi-client,
// multi-tenant service: a stdlib-only HTTP/JSON API over N isolated
// workspaces (internal/workspace), each its own workbench manager,
// integration blackboard and WAL partition. The paper's manager (§5.2)
// mediates transactions, events and queries for in-process tools; this
// package extends the same mediation across the network — sessions
// stand in for analysts, every mutating route runs as a manager
// transaction (so the WAL commit hook makes it durable before the
// response is sent), and the §5.2.2 event kinds reach remote tools via
// a long-poll or SSE feed with exactly-once, in-order delivery, one
// feed per workspace.
//
// Routing is tenant-aware twice over: /v1/workspaces/{ws}/... scopes a
// request explicitly, the X-Ib-Workspace header scopes a bare path, and
// a bare path with neither is the `default` workspace — so every
// pre-workspace client keeps working unchanged.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blackboard"
	"repro/internal/chaos"
	"repro/internal/harmony"
	"repro/internal/matchcache"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/logx"
	"repro/internal/repl"
	"repro/internal/schemaset"
	"repro/internal/wal"
	"repro/internal/wbmgr"
	"repro/internal/workspace"
)

// Metric names emitted by the server (see DESIGN.md §11). Request and
// session metrics carry a `workspace` label.
const (
	// MetricRequests counts HTTP requests, labeled route, code and
	// workspace.
	MetricRequests = "server_requests_total"
	// MetricRequestDuration is the per-route latency histogram.
	MetricRequestDuration = "server_request_seconds"
	// MetricSessions gauges currently open sessions per workspace.
	MetricSessions = "server_sessions"
)

// DefaultThreshold filters match-run correspondences when the request
// doesn't specify one (the CLI default).
const DefaultThreshold = 0.25

// Config assembles a Server.
type Config struct {
	// DataDir is the service data directory; each workspace's WAL
	// partition lives under DataDir/ws/<name>/. Empty means in-memory
	// only: the API works but nothing survives the process.
	DataDir string
	// Parallelism forwards to the Harmony engine for match runs.
	Parallelism int
	// Metrics receives server + WAL instrumentation (nil = obs.Default()).
	// Per-workspace series are labeled through obs.Registry.WithLabels.
	Metrics *obs.Registry
	// SlowRequest is the latency threshold for the slow-request log (0 =
	// DefaultSlowRequest; negative disables slow-request logging).
	SlowRequest time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the same
	// handler. Off by default: the profiler is a debugging door, opt in
	// only on trusted listeners.
	EnablePprof bool
	// Log receives request and error diagnostics (nil = the process-wide
	// logx default, stderr at info).
	Log *logx.Logger
	// ReplicaOf makes this node a read-only replica tailing the primary
	// at the given URL (scheme optional). Empty = primary. Every
	// workspace partition tails independently; a workspace supervisor
	// mirrors the primary's tenant table.
	ReplicaOf string
	// ReplPollTimeout and ReplBackoff tune the replica's tail loops
	// (0 = the repl package defaults; tests shrink them).
	ReplPollTimeout time.Duration
	ReplBackoff     time.Duration
	// MaxTriples and MaxWALBytes are the default per-workspace quotas
	// (0 = unlimited); a create request can override them per tenant.
	MaxTriples  int
	MaxWALBytes int64
}

// DefaultSlowRequest is the slow-request log threshold when Config
// leaves SlowRequest zero.
const DefaultSlowRequest = 250 * time.Millisecond

// session is the server-side record of one analyst session.
type session struct {
	info SessionInfo
}

// tenant is the server-side request state of one workspace: sessions,
// match sessions and (on a replica) the partition's tail loop. Its event
// feed is the workspace manager's event log. It hangs off
// workspace.Workspace.Ext.
type tenant struct {
	srv *Server
	ws  *workspace.Workspace
	reg *obs.Registry // workspace-labeled registry view

	mu       sync.Mutex // guards sessions
	sessions map[string]*session
	sessSeq  uint64

	// matches holds each mapping's match session (its live engine),
	// shared by the match, rematch and apply routes.
	matches *harmony.Sessions
	// cache indexes the score matrices the workspace's live engines hold,
	// so a mapping that runs cold over a pair another mapping already
	// matched shares its matrices. It lives and dies with matches.
	cache *matchcache.Cache

	tailMu     sync.Mutex
	tailer     *repl.Tailer
	tailCancel context.CancelFunc
	tailDone   chan struct{}
}

func (t *tenant) bb() *blackboard.Blackboard { return t.ws.Blackboard() }
func (t *tenant) mgr() *wbmgr.Manager        { return t.ws.Manager() }

// Server is the durable multi-tenant workbench service. Create with
// New, mount Handler on any http.Server, and Close on shutdown (Close
// folds every workspace WAL into a snapshot; crashes instead rely on
// recovery).
type Server struct {
	cfg    Config
	reg    *obs.Registry
	wsm    *workspace.Manager
	mux    *http.ServeMux
	traces *obs.TraceStore
	log    *logx.Logger
	slow   time.Duration // slow-request log threshold (0 = disabled)

	// Replication state (internal/server/repl.go). role is the node's
	// replication role; the epoch lives in the default workspace's WAL
	// header (memEpoch backs an in-memory node); replMu serializes
	// role/epoch transitions; each tenant owns its partition's tailer.
	role        atomic.Int32
	memEpoch    atomic.Uint64
	primaryURL  string
	replMu      sync.Mutex
	replRunning bool
	supCancel   context.CancelFunc
	supDone     chan struct{}
}

// New opens (and, with a DataDir, recovers every workspace partition
// of) a workbench service.
func New(cfg Config) (*Server, error) {
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	reg.Describe(MetricRequests, "Workbench API requests, by route, status code and workspace.")
	reg.Describe(MetricRequestDuration, "Workbench API request latency, by route.")
	reg.Describe(MetricSessions, "Currently open workbench sessions, by workspace.")

	slow := cfg.SlowRequest
	switch {
	case slow == 0:
		slow = DefaultSlowRequest
	case slow < 0:
		slow = 0
	}
	srvLog := cfg.Log
	if srvLog == nil {
		srvLog = logx.Default()
	}
	s := &Server{
		cfg:    cfg,
		reg:    reg,
		traces: obs.NewTraceStore(obs.DefaultTraceCapacity),
		log:    srvLog.With("component", "server"),
		slow:   slow,
	}
	wsm, err := workspace.NewManager(workspace.Options{
		Root:         cfg.DataDir,
		Metrics:      reg,
		DefaultQuota: workspace.Quota{MaxTriples: cfg.MaxTriples, MaxWALBytes: cfg.MaxWALBytes},
		OnOpen:       s.attachTenant,
	})
	if err != nil {
		return nil, err
	}
	s.wsm = wsm
	if err := s.initReplication(); err != nil {
		s.wsm.Close()
		return nil, err
	}
	s.buildMux()
	return s, nil
}

// attachTenant wires the server's per-workspace request state onto a
// workspace as the workspace manager opens or creates it.
func (s *Server) attachTenant(ws *workspace.Workspace) error {
	cache := matchcache.New(ws.Metrics())
	t := &tenant{
		srv:      s,
		ws:       ws,
		reg:      ws.Metrics(),
		sessions: map[string]*session{},
		matches: harmony.NewSessions(harmony.Options{
			Flooding: true, Metrics: ws.Metrics(), Parallelism: s.cfg.Parallelism,
			Cache: cache,
		}),
		cache: cache,
		// Session IDs restart from the recovered txn high-water mark, so
		// a stale pre-restart session ID can never collide with one
		// minted after the restart.
		sessSeq: ws.OpenHighWater(),
	}
	ws.Ext = t
	return nil
}

// defaultTenant returns the tenant behind the default workspace.
func (s *Server) defaultTenant() *tenant {
	t, _ := s.wsm.Default().Ext.(*tenant)
	return t
}

// tenantOf resolves a workspace name to its tenant.
func (s *Server) tenantOf(name string) (*tenant, bool) {
	ws, ok := s.wsm.Get(name)
	if !ok {
		return nil, false
	}
	t, ok := ws.Ext.(*tenant)
	return t, ok
}

// tenants snapshots every live tenant, sorted by workspace name.
func (s *Server) tenants() []*tenant {
	wss := s.wsm.List()
	out := make([]*tenant, 0, len(wss))
	for _, ws := range wss {
		if t, ok := ws.Ext.(*tenant); ok {
			out = append(out, t)
		}
	}
	return out
}

// Manager exposes the default workspace's manager (tests, embedding).
func (s *Server) Manager() *wbmgr.Manager { return s.wsm.Default().Manager() }

// Store exposes the default workspace's WAL store (nil when in-memory).
// The handle stays open until Close.
func (s *Server) Store() *wal.Store { return s.wsm.Default().Store() }

// Workspaces exposes the workspace manager (tests, embedding).
func (s *Server) Workspaces() *workspace.Manager { return s.wsm }

// Close stops replication, folds every workspace's WAL into a final
// snapshot, and releases them.
func (s *Server) Close() error {
	s.StopReplication()
	return s.wsm.Close()
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ---- routing & plumbing ----

// tenantHandler is a request handler bound to the resolved workspace.
type tenantHandler func(t *tenant, w http.ResponseWriter, r *http.Request)

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	obsHandler := obs.HandlerWithHealth(s.reg, s.health)
	mux.Handle("/metrics", obsHandler)
	mux.Handle("/healthz", obsHandler)

	s.route(mux, "POST", "/sessions", "sessions.open", s.handleOpenSession)
	s.route(mux, "GET", "/sessions", "sessions.list", s.handleListSessions)
	s.route(mux, "POST", "/schemas", "schemas.load", s.handleLoadSchema)
	s.route(mux, "GET", "/schemas", "schemas.list", s.handleListSchemas)
	s.route(mux, "GET", "/schemas/{name}", "schemas.get", s.handleGetSchema)
	s.route(mux, "POST", "/mappings", "mappings.create", s.handleCreateMapping)
	s.route(mux, "GET", "/mappings", "mappings.list", s.handleListMappings)
	s.route(mux, "GET", "/mappings/{id}", "mappings.get", s.handleGetMapping)
	s.route(mux, "GET", "/mappings/{id}/cells", "cells.list", s.handleCells)
	s.route(mux, "POST", "/mappings/{id}/match", "match.run", s.handleMatch(false))
	s.route(mux, "POST", "/mappings/{id}/rematch", "match.rematch", s.handleMatch(true))
	s.route(mux, "POST", "/mappings/{id}/decide", "cells.decide", s.handleDecide)
	s.route(mux, "POST", "/apply", "apply", s.handleApply)
	s.route(mux, "POST", "/query", "query", s.handleQuery)
	s.route(mux, "GET", "/events", "events", s.handleEvents)
	s.route(mux, "GET", "/fsck", "fsck", s.handleFsck)
	s.route(mux, "POST", "/snapshot", "snapshot", s.handleSnapshot)
	s.route(mux, "GET", "/healthz", "workspace.healthz", s.handleTenantHealth)

	// Workspace lifecycle (node-level: they act on the tenant table).
	s.routePlain(mux, "POST /v1/workspaces", "workspaces.create", s.handleWorkspaceCreate)
	s.routePlain(mux, "GET /v1/workspaces", "workspaces.list", s.handleWorkspaceList)
	s.routePlain(mux, "GET /v1/workspaces/{ws}", "workspaces.get", s.handleWorkspaceGet)
	s.routePlain(mux, "DELETE /v1/workspaces/{ws}", "workspaces.rm", s.handleWorkspaceDelete)

	// Failover + fencing are node-level: one role and one epoch cover
	// every partition.
	s.routePlain(mux, "POST /v1/promote", "promote", s.handlePromote)
	s.routePlain(mux, "GET "+repl.StatusPath, "repl.status", s.handleReplStatus)
	s.routePlain(mux, "POST "+repl.FencePath, "repl.fence", s.handleReplFence)
	// The shipping routes are metrics-only (no tracing): a tailing
	// replica polls continuously and would evict every analyst trace
	// from the bounded trace store. They ship per workspace partition.
	s.routeQuiet(mux, "GET", "/repl/log", "repl.log", s.handleReplLog)
	s.routeQuiet(mux, "GET", "/repl/snapshot", "repl.snapshot", s.handleReplSnapshot)
	s.mountDebug(mux)
	s.mux = mux
}

// statusRecorder captures the response code for the request metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so SSE streaming works through
// the metrics middleware.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// requestWorkspace names the workspace a request addresses: the
// /v1/workspaces/{ws}/ path segment, the X-Ib-Workspace header, or the
// default workspace, in that order.
func (s *Server) requestWorkspace(r *http.Request) string {
	if ws := r.PathValue("ws"); ws != "" {
		return ws
	}
	if ws := r.Header.Get(WorkspaceHeader); ws != "" {
		return ws
	}
	return workspace.DefaultName
}

// route mounts a traced tenant handler twice — bare /v1<suffix>
// (default workspace, or the X-Ib-Workspace header) and
// /v1/workspaces/{ws}<suffix>.
func (s *Server) route(mux *http.ServeMux, method, suffix, name string, h tenantHandler) {
	fn := s.middleware(name, true, true, h)
	mux.HandleFunc(method+" /v1"+suffix, fn)
	mux.HandleFunc(method+" /v1/workspaces/{ws}"+suffix, fn)
}

// routeQuiet mounts a tenant handler like route but untraced, for
// high-frequency machine routes (replication polls) that would otherwise
// flood the bounded trace store.
func (s *Server) routeQuiet(mux *http.ServeMux, method, suffix, name string, h tenantHandler) {
	fn := s.middleware(name, false, true, h)
	mux.HandleFunc(method+" /v1"+suffix, fn)
	mux.HandleFunc(method+" /v1/workspaces/{ws}"+suffix, fn)
}

// routePlain mounts a traced node-level handler (no workspace
// resolution) at pattern.
func (s *Server) routePlain(mux *http.ServeMux, pattern, name string, h http.HandlerFunc) {
	mux.HandleFunc(pattern, s.middleware(name, true, false,
		func(_ *tenant, w http.ResponseWriter, r *http.Request) { h(w, r) }))
}

// middleware is the one request wrapper: every route's status code is
// recorded, its latency observed and its request counted by route and
// code. A traced route also gets a root span in the server's trace store
// (continuing the client's trace when the X-Ib-Trace header names one),
// carried down through r.Context() so transactions, match stages and WAL
// writes join the same trace, and a log line — a warning with the trace
// ID when slower than the configured threshold. A scoped route resolves
// the request's workspace, which labels its span, log line and request
// counter; a request naming an unknown workspace is a 404 carrying the
// name, since workspaces are never created as a routing side effect.
func (s *Server) middleware(name string, traced, scoped bool, h tenantHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var wsName string
		if scoped {
			wsName = s.requestWorkspace(r)
		}
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		var sp *obs.Span
		if traced {
			remote, _ := obs.ParseTraceHeader(r.Header.Get(TraceHeader))
			var ctx context.Context
			sp, ctx = s.traces.StartRoot(r.Context(), name, remote)
			sp.SetAttr("route", name)
			if scoped {
				sp.SetAttr("workspace", wsName)
			}
			r = r.WithContext(ctx)
		}
		if !scoped {
			h(nil, rec, r)
		} else if t, ok := s.tenantOf(wsName); ok {
			h(t, rec, r)
		} else {
			fail(rec, http.StatusNotFound, "workspace %q not found", wsName)
		}
		code := strconv.Itoa(rec.code)
		d := time.Since(t0)
		if traced {
			sp.SetAttr("code", code)
			if rec.code >= 500 {
				sp.SetError(fmt.Errorf("http %d", rec.code))
			}
			d = sp.End()
			kv := []any{"route", name}
			if scoped {
				kv = append(kv, "workspace", wsName)
			}
			kv = append(kv, "code", rec.code, "duration", d)
			if s.slow > 0 && d >= s.slow {
				s.log.Warn(r.Context(), "slow request", kv...)
			} else {
				s.log.Debug(r.Context(), "request", kv...)
			}
		}
		s.reg.Histogram(MetricRequestDuration, obs.LatencyBuckets, "route", name).ObserveDuration(d)
		labels := []string{"route", name, "code", code}
		if scoped {
			labels = append(labels, "workspace", wsName)
		}
		s.reg.Counter(MetricRequests, labels...).Inc()
	}
}

// writeJSON sends v with the given status. A value with a wire form of
// its own (CellList) is written as it encodes itself: encoding/json
// would scan its output once more.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if m, ok := v.(json.Marshaler); ok {
		if data, err := m.MarshalJSON(); err == nil {
			_, _ = w.Write(append(data, '\n'))
		}
		return
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// fail sends a uniform error body.
func fail(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// failTxn maps a transaction error to its status: quota refusals are
// 429 (naming the limit), everything else takes the fallback.
func failTxn(w http.ResponseWriter, err error, fallback int) {
	var qe *workspace.QuotaError
	if errors.As(err, &qe) {
		fail(w, http.StatusTooManyRequests, "%v", qe)
		return
	}
	fail(w, fallback, "%v", err)
}

// readJSON decodes the request body into v (empty bodies decode to the
// zero value so optional-body POSTs stay ergonomic).
func readJSON(r *http.Request, v any) error {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, 64<<20))
	if err != nil {
		return err
	}
	if len(body) == 0 {
		return nil
	}
	return json.Unmarshal(body, v)
}

// toolFor resolves the provenance name for a mutating request: the
// session named in the header if it exists in this workspace, else
// "remote".
func (t *tenant) toolFor(r *http.Request) string {
	id := r.Header.Get(SessionHeader)
	if id == "" {
		return "remote"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sess, ok := t.sessions[id]; ok {
		sess.info.Ops++
		return sess.info.Tool
	}
	return "remote"
}

// inTxn runs fn inside one manager transaction attributed to the
// request's session, serialized against the workspace's other mutating
// requests — per workspace, so tenants never queue behind each other's
// commits. A fn error aborts; otherwise the commit (and, when durable,
// the WAL append + fsync) completes before inTxn returns. The request's
// trace context flows into the transaction, so the txn span — and the
// WAL spans under it — join the request trace.
func (s *Server) inTxn(t *tenant, r *http.Request, fn func(txn *wbmgr.Txn) error) error {
	return s.inTxnAs(r.Context(), t, t.toolFor(r), fn)
}

// inTxnAs is inTxn with the provenance name already resolved. Quotas
// bracket the transaction: the WAL-bytes quota refuses entry, the
// triple quota aborts (and rolls back) an over-limit commit.
func (s *Server) inTxnAs(ctx context.Context, t *tenant, tool string, fn func(txn *wbmgr.Txn) error) error {
	if err := t.ws.PreTxnQuota(); err != nil {
		return err
	}
	sp, _ := obs.StartSpan(ctx, "txnmu.wait")
	t.ws.TxnMu.Lock()
	sp.End()
	defer t.ws.TxnMu.Unlock()
	return t.mgr().Do(ctx, tool, func(txn *wbmgr.Txn) error {
		if err := fn(txn); err != nil {
			return err
		}
		return t.ws.PostTxnQuota()
	})
}

// ---- sessions ----

func (s *Server) handleOpenSession(t *tenant, w http.ResponseWriter, r *http.Request) {
	var req OpenSessionRequest
	if err := readJSON(r, &req); err != nil {
		fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	client := strings.TrimSpace(req.Client)
	if client == "" {
		client = "anonymous"
	}
	t.mu.Lock()
	t.sessSeq++
	id := fmt.Sprintf("ws-%s-%d", t.ws.Name(), t.sessSeq)
	info := SessionInfo{
		ID:         id,
		Client:     client,
		Workspace:  t.ws.Name(),
		Tool:       fmt.Sprintf("session:%s/%s", id, client),
		CreatedRev: t.bb().Revision(),
	}
	t.sessions[id] = &session{info: info}
	t.reg.Gauge(MetricSessions).Set(float64(len(t.sessions)))
	t.mu.Unlock()
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleListSessions(t *tenant, w http.ResponseWriter, r *http.Request) {
	t.mu.Lock()
	out := make([]SessionInfo, 0, len(t.sessions))
	for _, sess := range t.sessions {
		out = append(out, sess.info)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, out)
}

// ---- schemata ----

func (s *Server) handleLoadSchema(t *tenant, w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	var req LoadSchemaRequest
	if err := readJSON(r, &req); err != nil {
		fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	schema, err := schemaset.ParseSchema(req.Name, req.Format, strings.NewReader(req.Text))
	if err != nil {
		fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	var version int
	err = s.inTxn(t, r, func(txn *wbmgr.Txn) error {
		v, perr := t.bb().PutSchema(schema)
		if perr != nil {
			return perr
		}
		version = v
		txn.Emit(wbmgr.EventSchemaGraph, schema.Name)
		return nil
	})
	if err != nil {
		failTxn(w, err, http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusCreated, SchemaInfo{Name: schema.Name, Version: version, Elements: schema.Len()})
}

func (t *tenant) schemaInfo(name string) (SchemaInfo, error) {
	sc, err := t.bb().GetSchema(name)
	if err != nil {
		return SchemaInfo{}, err
	}
	return SchemaInfo{Name: name, Version: t.bb().SchemaVersion(name), Elements: sc.Len()}, nil
}

func (s *Server) handleListSchemas(t *tenant, w http.ResponseWriter, r *http.Request) {
	out := []SchemaInfo{}
	for _, n := range t.bb().Schemas() {
		if info, err := t.schemaInfo(n); err == nil {
			out = append(out, info)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetSchema(t *tenant, w http.ResponseWriter, r *http.Request) {
	info, err := t.schemaInfo(r.PathValue("name"))
	if err != nil {
		fail(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// ---- mappings ----

func (s *Server) handleCreateMapping(t *tenant, w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	var req CreateMappingRequest
	if err := readJSON(r, &req); err != nil {
		fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.ID == "" || req.Source == "" || req.Target == "" {
		fail(w, http.StatusBadRequest, "id, source and target are required")
		return
	}
	err := s.inTxn(t, r, func(txn *wbmgr.Txn) error {
		_, merr := t.bb().NewMapping(req.ID, req.Source, req.Target)
		if merr != nil {
			return merr
		}
		txn.Emit(wbmgr.EventMappingMatrix, req.ID)
		return nil
	})
	if err != nil {
		failTxn(w, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusCreated, MappingInfo{ID: req.ID, Source: req.Source, Target: req.Target})
}

func (t *tenant) mappingInfo(id string) (MappingInfo, error) {
	mp, err := t.bb().GetMapping(id)
	if err != nil {
		return MappingInfo{}, err
	}
	return MappingInfo{
		ID: id, Source: mp.SourceSchema, Target: mp.TargetSchema,
		Cells: mp.Len(),
	}, nil
}

func (s *Server) handleListMappings(t *tenant, w http.ResponseWriter, r *http.Request) {
	out := []MappingInfo{}
	for _, id := range t.bb().Mappings() {
		if info, err := t.mappingInfo(id); err == nil {
			out = append(out, info)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetMapping(t *tenant, w http.ResponseWriter, r *http.Request) {
	info, err := t.mappingInfo(r.PathValue("id"))
	if err != nil {
		fail(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// cellInfo converts a blackboard cell to its wire form.
func cellInfo(c blackboard.Cell) CellInfo {
	return CellInfo{
		Source: c.SourceID, Target: c.TargetID,
		Confidence: c.Confidence, UserDefined: c.UserDefined,
		SetBy: c.SetBy, Revision: c.Revision,
	}
}

// handleCells serves the mapping matrix, or with ?since=<revision> the
// cells written after that blackboard revision, in the same order.
func (s *Server) handleCells(t *tenant, w http.ResponseWriter, r *http.Request) {
	since := -1 // every cell, a revision-less one too
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			fail(w, http.StatusBadRequest, "since: %v", err)
			return
		}
		since = n
	}
	mp, err := t.bb().GetMapping(r.PathValue("id"))
	if err != nil {
		fail(w, http.StatusNotFound, "%v", err)
		return
	}
	sp, _ := obs.StartSpan(r.Context(), "blackboard.cells")
	cells := mp.Cells()
	sp.End()
	out := make(CellList, 0, len(cells))
	for _, c := range cells {
		if c.Revision > since {
			out = append(out, cellInfo(c))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// publish writes a match session's links into the mapping as one
// transaction (Result.Publish) announced by a mapping-matrix event, and
// returns the cells it wrote and the blackboard revision after them,
// both read inside the transaction.
func (s *Server) publish(t *tenant, r *http.Request, mp *blackboard.Mapping, res *harmony.Result) (CellList, int, error) {
	var written []blackboard.Cell
	var rev int
	err := s.inTxn(t, r, func(txn *wbmgr.Txn) error {
		var perr error
		written, perr = res.Publish(txn, mp)
		txn.Emit(wbmgr.EventMappingMatrix, mp.ID)
		rev = t.bb().Revision()
		return perr
	})
	if err != nil {
		return nil, 0, err
	}
	cells := make(CellList, len(written))
	for i, c := range written {
		cells[i] = cellInfo(c)
	}
	return cells, rev, nil
}

// cacheStats converts the workspace's cache index counters to their
// wire form.
func (t *tenant) cacheStats() CacheStats {
	st := t.cache.Stats()
	return CacheStats{
		Entries: st.Entries, Hits: st.Hits, Misses: st.Misses,
		Evictions: st.Evictions, HitRatio: st.HitRatio(),
	}
}

// handleMatch serves both match routes through the mapping's match
// session, its one entry point: the engine runs cold on a mapping
// without a live one, and otherwise re-reads the schemas when either
// one's blackboard version moved and recomputes only what its change
// signatures (plus a rematch request's optional dirty hints) require.
// Every correspondence above the threshold is published in one
// transaction, and the response carries the cells that publish wrote.
// The routes differ only in their response: a rematch also reports the
// mode that ran and the matrix cache.
func (s *Server) handleMatch(rematch bool) tenantHandler {
	return func(t *tenant, w http.ResponseWriter, r *http.Request) {
		if s.rejectReadOnly(w) {
			return
		}
		var req RematchRequest // MatchRequest is its threshold-only subset
		if err := readJSON(r, &req); err != nil {
			fail(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		threshold := DefaultThreshold
		if req.Threshold != nil {
			threshold = *req.Threshold
		}
		var dirty harmony.Dirty
		if rematch {
			dirty = harmony.Dirty{Source: req.DirtySource, Target: req.DirtyTarget}
		}
		id := r.PathValue("id")
		mp, err := t.bb().GetMapping(id)
		if err != nil {
			fail(w, http.StatusNotFound, "%v", err)
			return
		}
		if sp := obs.SpanFromContext(r.Context()); sp != nil {
			sp.SetAttr("mapping", id)
		}
		// The engine run is read-only and can be slow; keep it outside the
		// transaction so concurrent mutators aren't blocked by matching.
		res, err := t.matches.For(id).Rematch(r.Context(), t.bb(), mp, dirty, threshold)
		if err != nil {
			status := http.StatusNotFound
			if errors.Is(err, chaos.ErrInjected) {
				status = http.StatusInternalServerError
			}
			fail(w, status, "%v", err)
			return
		}
		cells, rev, err := s.publish(t, r, mp, res)
		if err != nil {
			failTxn(w, err, http.StatusInternalServerError)
			return
		}
		if !rematch {
			writeJSON(w, http.StatusOK, MatchResponse{
				Threshold: threshold, Published: len(res.Links), Cells: cells, Revision: rev,
			})
			return
		}
		writeJSON(w, http.StatusOK, RematchResponse{
			Mode: res.Mode, Threshold: threshold, Published: len(res.Links),
			Cells: cells, Revision: rev, Cache: t.cacheStats(),
		})
	}
}

// handleApply plans or applies one versioned schema set (DESIGN.md
// §17): parse every declared schema, diff against the blackboard and
// the client's lockfile entry, and — unless the request is a dry run or
// the plan a no-op — apply it through schemaset.Applier, the one apply
// path, in this workspace's transactions: every changed schema in one
// (all-or-nothing through the apply.commit failpoint), then each
// affected mapping's match session re-matched with the plan's diff as
// the dirty hint and published in its own.
func (s *Server) handleApply(t *tenant, w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	var req ApplyRequest
	if err := readJSON(r, &req); err != nil {
		fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if strings.TrimSpace(req.Set) == "" || strings.TrimSpace(req.Version) == "" {
		fail(w, http.StatusBadRequest, "apply: set and version required")
		return
	}
	if len(req.Schemas) == 0 {
		fail(w, http.StatusBadRequest, "apply: no schemas declared")
		return
	}
	threshold := DefaultThreshold
	if req.Threshold != nil {
		threshold = *req.Threshold
	}
	schemas := make([]*model.Schema, 0, len(req.Schemas))
	for _, as := range req.Schemas {
		sch, err := schemaset.ParseSchema(as.Name, as.Format, strings.NewReader(as.Text))
		if err != nil {
			fail(w, http.StatusBadRequest, "apply: schema %q: %v", as.Name, err)
			return
		}
		schemas = append(schemas, sch)
	}
	set := schemaset.Set{Name: req.Set, Version: req.Version}
	lock := &schemaset.Lockfile{}
	if req.LockVersion != "" || len(req.LockHashes) > 0 {
		ls := schemaset.LockSet{Name: req.Set, Version: req.LockVersion}
		for name, hash := range req.LockHashes {
			ls.Schemas = append(ls.Schemas, schemaset.LockSchema{Name: name, Hash: hash})
		}
		lock.Upsert(ls)
	}
	ap := &schemaset.Applier{BB: t.bb(), Metrics: t.reg, Sessions: t.matches}
	plan, err := ap.Plan(&set, schemas, lock)
	if err != nil {
		fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if reqSpan := obs.SpanFromContext(r.Context()); reqSpan != nil {
		reqSpan.SetAttr("set", req.Set)
		reqSpan.SetAttr("version", req.Version)
	}
	resp := ApplyResponse{Set: req.Set, Version: req.Version, NoOp: plan.NoOp(), DryRun: req.DryRun}
	var planText strings.Builder
	plan.Render(&planText)
	resp.PlanText = planText.String()
	for i := range plan.Schemas {
		sp := &plan.Schemas[i]
		row := ApplySchemaPlan{
			Name: sp.Name, Format: sp.Format, Action: string(sp.Action),
			Hash: sp.Hash, LockHash: sp.LockHash, BBHash: sp.BBHash, Drift: sp.Drift,
		}
		for _, d := range sp.Diff {
			row.Diff = append(row.Diff, d.String())
		}
		resp.Plan = append(resp.Plan, row)
	}
	if req.DryRun {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	res, err := ap.ApplyWith(r.Context(), plan, threshold, func(fn func(*wbmgr.Txn) error) error {
		return s.inTxn(t, r, fn)
	})
	if err != nil {
		failTxn(w, err, http.StatusInternalServerError)
		return
	}
	resp.Txns, resp.Applied = res.Txns, res.Applied
	for _, rm := range res.Rematches {
		resp.Rematches = append(resp.Rematches, ApplyRematch{Mapping: rm.Mapping, Mode: rm.Mode, Published: rm.Published})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleDecide records an analyst accept/reject on one cell.
func (s *Server) handleDecide(t *tenant, w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	var req DecideRequest
	if err := readJSON(r, &req); err != nil {
		fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	var conf float64
	switch req.Verdict {
	case "accept":
		conf = 1
	case "reject":
		conf = -1
	default:
		fail(w, http.StatusBadRequest, "verdict must be accept or reject, got %q", req.Verdict)
		return
	}
	if req.Source == "" || req.Target == "" {
		fail(w, http.StatusBadRequest, "source and target are required")
		return
	}
	id := r.PathValue("id")
	mp, err := t.bb().GetMapping(id)
	if err != nil {
		fail(w, http.StatusNotFound, "%v", err)
		return
	}
	tool := t.toolFor(r)
	// The pair is checked and the response read inside the transaction:
	// outside it, a concurrent schema put could drop an element, or a
	// concurrent decide overwrite this one.
	var c blackboard.Cell
	err = s.inTxnAs(r.Context(), t, tool, func(txn *wbmgr.Txn) error {
		if cerr := mp.CheckPair(req.Source, req.Target); cerr != nil {
			return cerr
		}
		if cerr := mp.SetCell(req.Source, req.Target, conf, true, tool); cerr != nil {
			return cerr
		}
		txn.Emit(wbmgr.EventMappingCell, fmt.Sprintf("%s|%s|%s", id, req.Source, req.Target))
		c, _ = mp.GetCell(req.Source, req.Target)
		return nil
	})
	if errors.Is(err, blackboard.ErrUnknownElement) {
		fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err != nil {
		failTxn(w, err, http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, cellInfo(c))
}

// ---- queries ----

func (s *Server) handleQuery(t *tenant, w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := readJSON(r, &req); err != nil {
		fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	rows, err := t.mgr().Query(req.Query, req.Vars...)
	if err != nil {
		fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if rows == nil {
		rows = [][]string{}
	}
	writeJSON(w, http.StatusOK, QueryResponse{Rows: rows})
}

// ---- events ----

// maxPollTimeout caps long-poll waits so dead clients can't pin
// handlers forever.
const maxPollTimeout = 60 * time.Second

func (s *Server) handleEvents(t *tenant, w http.ResponseWriter, r *http.Request) {
	after, ok := parseAfter(w, r)
	if !ok {
		return
	}
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") ||
		r.URL.Query().Get("stream") == "sse" {
		s.serveSSE(t, w, r, after)
		return
	}
	timeout, ok := parsePollTimeout(w, r)
	if !ok {
		return
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		evs, head, gap, wake := t.mgr().EventsSince(after)
		if len(evs) > 0 || gap {
			writeJSON(w, http.StatusOK, EventsResponse{Next: head, Gap: gap, Events: feedEvents(evs)})
			return
		}
		select {
		case <-wake:
			continue
		case <-deadline.C:
		case <-r.Context().Done():
		}
		writeJSON(w, http.StatusOK, EventsResponse{Next: after, Events: []FeedEvent{}})
		return
	}
}

// feedEvents converts logged manager events to their wire form.
func feedEvents(evs []wbmgr.Event) []FeedEvent {
	out := make([]FeedEvent, len(evs))
	for i, e := range evs {
		out[i] = FeedEvent{Seq: e.Seq, Kind: string(e.Kind), Tool: e.Tool, Subject: e.Subject}
	}
	return out
}

// serveSSE streams the feed as Server-Sent Events: each event carries
// its sequence number as the SSE id, so Last-Event-ID style resumption
// maps directly onto the after cursor. A gap is an `event: gap` frame
// followed by every retained event.
func (s *Server) serveSSE(t *tenant, w http.ResponseWriter, r *http.Request, after uint64) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		fail(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	cursor := after
	for {
		evs, head, gap, wake := t.mgr().EventsSince(cursor)
		if gap {
			fmt.Fprintf(w, "event: gap\ndata: {}\n\n")
		}
		for _, e := range feedEvents(evs) {
			data, _ := json.Marshal(e)
			fmt.Fprintf(w, "id: %d\ndata: %s\n\n", e.Seq, data)
		}
		if len(evs) > 0 || gap {
			cursor = head
			flusher.Flush()
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// ---- integrity & durability ----

func (s *Server) handleFsck(t *tenant, w http.ResponseWriter, r *http.Request) {
	errs := t.bb().CheckIntegrity()
	resp := FsckResponse{Clean: len(errs) == 0, Triples: t.bb().Graph().Len(), Workspace: t.ws.Name()}
	for _, e := range errs {
		resp.Errors = append(resp.Errors, e.Error())
	}
	resp.Recovery = t.ws.Recovery()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSnapshot(t *tenant, w http.ResponseWriter, r *http.Request) {
	if !t.ws.Durable() {
		fail(w, http.StatusConflict, "server is running without a data dir")
		return
	}
	t.ws.TxnMu.Lock()
	err := t.ws.SnapshotNow()
	t.ws.TxnMu.Unlock()
	if err != nil {
		fail(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, SnapshotResponse{Triples: t.bb().Graph().Len()})
}
