package server

// Replication wiring: the primary-side shipping routes (/v1/repl/*,
// served per workspace partition), the replica mode (Config.ReplicaOf)
// that tails every partition of a primary into the matching local
// workspace, fenced failover (/v1/promote + /v1/repl/fence), and the
// role-based write guard. The protocol pieces live in internal/repl;
// this file binds them to the workspaces' stores, blackboards, managers,
// and per-workspace transaction locks.
//
// Role and epoch are node-level: one promotion covers every workspace
// (the epoch is persisted in the default workspace's WAL header, whose
// store stays open for the server's life). Tail loops are per-workspace
// — each partition has its own cursor — and a replica-side supervisor
// polls the primary's workspace list so tenants created on the primary
// appear, and start tailing, on the replica without a restart.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/rdf"
	"repro/internal/repl"
	"repro/internal/wal"
	"repro/internal/wbmgr"
	"repro/internal/workspace"
)

// replTool is the provenance name replication applies transactions
// under; it never originates local transactions.
const replTool = "_repl"

// EventReplTxn is the event kind a replica's manager publishes once per
// applied primary transaction — a follower's clients see replication
// progress through the same exactly-once feed as local mutations.
const EventReplTxn wbmgr.EventKind = "repl-txn"

// replMaxBatch caps how many transactions one /v1/repl/log response
// carries, bounding response size for a far-behind follower.
const replMaxBatch = 512

// wsSupervisorPolls is how many replication backoff intervals the
// replica's workspace supervisor sleeps between polls of the primary's
// workspace list.
const wsSupervisorPolls = 8

// Node roles. The role is a small state machine: primary ⇄ sealed
// (fenced by a newer epoch), replica → primary (promote). A sealed node
// only leaves that state by restarting with -replica-of.
type replRole int32

const (
	rolePrimary replRole = iota
	roleReplica
	roleSealed
)

func (r replRole) String() string {
	switch r {
	case roleReplica:
		return repl.RoleReplica
	case roleSealed:
		return repl.RoleSealed
	default:
		return repl.RolePrimary
	}
}

// currentRole reads the node's role.
func (s *Server) currentRole() replRole { return replRole(s.role.Load()) }

// epochStore returns the default workspace's WAL store, the node's
// durable epoch authority (nil on an in-memory node). The default
// workspace cannot be deleted, so its store is open until Close.
func (s *Server) epochStore() *wal.Store {
	return s.wsm.Default().Store()
}

// epoch reads the fencing epoch: durable in the default partition's WAL
// header when a store exists, in-memory otherwise.
func (s *Server) epoch() uint64 {
	if st := s.epochStore(); st != nil {
		return st.Epoch()
	}
	return s.memEpoch.Load()
}

// setEpoch advances the epoch (durably when a store exists).
func (s *Server) setEpoch(e uint64, sealed bool) error {
	if st := s.epochStore(); st != nil {
		return st.SetEpoch(e, sealed)
	}
	s.memEpoch.Store(e)
	return nil
}

// initReplication establishes the node's role at startup. A ReplicaOf
// address makes it a tailing replica (clearing any stale sealed flag —
// rejoining as a replica is exactly how a deposed primary comes back); a
// sealed store without ReplicaOf stays sealed; everything else is a
// primary.
func (s *Server) initReplication() error {
	repl.DescribeMetrics(s.reg)
	s.primaryURL = strings.TrimRight(s.cfg.ReplicaOf, "/")
	if s.primaryURL != "" && !strings.Contains(s.primaryURL, "://") {
		s.primaryURL = "http://" + s.primaryURL
	}
	st := s.epochStore()
	switch {
	case s.primaryURL != "":
		s.role.Store(int32(roleReplica))
		if st != nil && st.Sealed() {
			if err := st.SetEpoch(st.Epoch(), false); err != nil {
				return err
			}
			s.log.Info(context.Background(), "unsealing: rejoining as replica", "primary", s.primaryURL)
		}
		return s.StartReplication()
	case st != nil && st.Sealed():
		s.role.Store(int32(roleSealed))
		s.log.Warn(context.Background(), "store is sealed: refusing writes until restarted with -replica-of",
			"epoch", st.Epoch())
	default:
		s.role.Store(int32(rolePrimary))
	}
	return nil
}

// startTenantTail starts the tail loop for one workspace partition.
// Callers hold replMu (or run before the server serves requests).
func (s *Server) startTenantTail(t *tenant) {
	t.tailMu.Lock()
	defer t.tailMu.Unlock()
	if t.tailCancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	tl := repl.NewTailer(repl.Config{
		Primary:     s.primaryURL,
		Workspace:   t.ws.Name(),
		Apply:       replApplier{s: s, t: t},
		Epoch:       s.epoch,
		Metrics:     t.reg,
		Log:         s.log.With("workspace", t.ws.Name()),
		PollTimeout: s.cfg.ReplPollTimeout,
		Backoff:     s.cfg.ReplBackoff,
	})
	t.tailer = tl
	t.tailCancel = cancel
	t.tailDone = done
	go func() {
		defer close(done)
		tl.Run(ctx)
	}()
}

// stopTenantTail halts one tenant's tail loop and waits for it.
func (s *Server) stopTenantTail(t *tenant) {
	t.tailMu.Lock()
	cancel, done := t.tailCancel, t.tailDone
	t.tailCancel, t.tailDone = nil, nil
	t.tailMu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
}

// StartReplication starts (or restarts) the per-workspace tail loops
// against the configured primary, plus the workspace supervisor that
// mirrors the primary's tenant table. It is the operational hook behind
// replica startup and the chaos tests' pause/resume; promoting stops it
// for good.
func (s *Server) StartReplication() error {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if s.primaryURL == "" {
		return fmt.Errorf("server: no primary configured (ReplicaOf)")
	}
	if s.replRunning {
		return fmt.Errorf("server: replication already running")
	}
	s.replRunning = true
	for _, t := range s.tenants() {
		s.startTenantTail(t)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	s.supCancel = cancel
	s.supDone = done
	go func() {
		defer close(done)
		s.superviseWorkspaces(ctx)
	}()
	return nil
}

// StopReplication halts every tail loop and the supervisor and waits
// for them to exit. Safe to call when none is running.
func (s *Server) StopReplication() {
	s.replMu.Lock()
	cancel, done := s.supCancel, s.supDone
	s.supCancel, s.supDone = nil, nil
	s.replRunning = false
	tenants := s.tenants()
	s.replMu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
	for _, t := range tenants {
		s.stopTenantTail(t)
	}
}

// superviseWorkspaces keeps the replica's tenant table converged on the
// primary's: every workspace listed by the primary exists locally and
// has a running tail loop. A pre-workspace primary (404 on the list
// route) degrades gracefully to the default-only behavior.
func (s *Server) superviseWorkspaces(ctx context.Context) {
	backoff := s.cfg.ReplBackoff
	if backoff <= 0 {
		backoff = 500 * time.Millisecond
	}
	interval := backoff * wsSupervisorPolls
	for {
		s.syncWorkspaces(ctx)
		select {
		case <-time.After(interval):
		case <-ctx.Done():
			return
		}
	}
}

// syncWorkspaces performs one supervisor round: list the primary's
// workspaces, ensure each exists locally, and start missing tails.
func (s *Server) syncWorkspaces(ctx context.Context) {
	names, err := s.fetchPrimaryWorkspaces(ctx)
	if err != nil || len(names) == 0 {
		return
	}
	for _, name := range names {
		if ctx.Err() != nil {
			return
		}
		ws, err := s.wsm.Ensure(name, workspace.Quota{})
		if err != nil {
			s.log.Warn(ctx, "supervisor: ensuring workspace failed", "workspace", name, "err", err)
			continue
		}
		t, ok := ws.Ext.(*tenant)
		if !ok {
			continue
		}
		s.replMu.Lock()
		if s.replRunning {
			s.startTenantTail(t)
		}
		s.replMu.Unlock()
	}
}

// fetchPrimaryWorkspaces lists the primary's workspace names.
func (s *Server) fetchPrimaryWorkspaces(ctx context.Context) ([]string, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.primaryURL+"/v1/workspaces", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("http %d", resp.StatusCode)
	}
	var infos []WorkspaceInfo
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&infos); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(infos))
	for _, in := range infos {
		names = append(names, in.Name)
	}
	return names, nil
}

// ---- the replica-side applier ----

// replApplier adapts one tenant to repl.Applier: shipped transactions
// become durable in the follower's partition (preserving the primary's
// txn ids), then mutate the blackboard graph directly — replay bypasses
// manager transactions because provenance, events, and validation
// already happened on the primary and are encoded in the ops. The
// manager publishes one repl-txn event per applied transaction.
type replApplier struct {
	s *Server
	t *tenant
}

// LastApplied implements repl.Applier.
func (a replApplier) LastApplied() uint64 { return a.t.ws.HighWater() }

// ApplyTxn implements repl.Applier: idempotent, durability-first replay
// of one shipped transaction under the workspace's write lock.
func (a replApplier) ApplyTxn(txn uint64, ops []rdf.ChangeOp) error {
	s, t := a.s, a.t
	t.ws.TxnMu.Lock()
	defer t.ws.TxnMu.Unlock()
	if s.currentRole() != roleReplica {
		return fmt.Errorf("server: not a replica (role %s)", s.currentRole())
	}
	if txn <= t.ws.HighWater() {
		return nil // already applied: a retried batch replays as a no-op
	}
	if err := t.ws.AppendTxnAt(context.Background(), txn, ops); err != nil {
		if errors.Is(err, wal.ErrTxnApplied) {
			return nil
		}
		return err
	}
	a.applyOpsLocked(ops)
	t.mgr().Publish(wbmgr.Event{Kind: EventReplTxn, Tool: replTool, Subject: strconv.FormatUint(txn, 10)})
	return nil
}

// applyOpsLocked mutates the follower graph and refreshes derived state.
func (a replApplier) applyOpsLocked(ops []rdf.ChangeOp) {
	g := a.t.bb().Graph()
	for _, op := range ops {
		if op.Add {
			g.Add(op.T)
		} else {
			g.Remove(op.T)
		}
	}
	a.t.bb().SyncMetrics()
}

// Bootstrap implements repl.Applier: converge the local graph onto a
// full primary snapshot taken at txn, applied as one WAL transaction
// under the snapshot's txn id. Diff-based convergence makes re-bootstrap
// and deposed-primary rejoin work with the same code path: whatever the
// local graph holds — empty, stale, or ahead by an orphaned
// unacknowledged txn — it ends rdf.Equal to the snapshot.
func (a replApplier) Bootstrap(g *rdf.Graph, txn uint64) error {
	s, t := a.s, a.t
	t.ws.TxnMu.Lock()
	defer t.ws.TxnMu.Unlock()
	if s.currentRole() != roleReplica {
		return fmt.Errorf("server: not a replica (role %s)", s.currentRole())
	}
	last := t.ws.HighWater()
	if txn < last {
		return fmt.Errorf("server: local txn %d ahead of primary snapshot txn %d (diverged history; wipe the data dir to rejoin)", last, txn)
	}
	added, removed := g.Diff(t.bb().Graph())
	if txn == last {
		if len(added) == 0 && len(removed) == 0 {
			return nil
		}
		return fmt.Errorf("server: graph diverged from primary at identical txn %d (%d/%d triples differ)", txn, len(added), len(removed))
	}
	ops := make([]rdf.ChangeOp, 0, len(added)+len(removed))
	for _, tr := range removed {
		ops = append(ops, rdf.ChangeOp{Add: false, T: tr})
	}
	for _, tr := range added {
		ops = append(ops, rdf.ChangeOp{Add: true, T: tr})
	}
	if err := t.ws.AppendTxnAt(context.Background(), txn, ops); err != nil {
		return err
	}
	a.applyOpsLocked(ops)
	if t.ws.Durable() {
		// Fold the (potentially huge) bootstrap txn straight into a local
		// snapshot; failure is harmless — the log replays fine.
		_ = t.ws.SnapshotNow()
	}
	t.mgr().Publish(wbmgr.Event{Kind: EventReplTxn, Tool: replTool, Subject: strconv.FormatUint(txn, 10)})
	return nil
}

// ObserveEpoch implements repl.Applier: learn a newer primary epoch,
// reject a stale one (a deposed upstream must not be tailed).
func (a replApplier) ObserveEpoch(e uint64) error {
	s := a.s
	s.replMu.Lock()
	defer s.replMu.Unlock()
	local := s.epoch()
	switch repl.CompareEpoch(local, e) {
	case repl.RemoteAhead:
		return s.setEpoch(e, false)
	case repl.RemoteBehind:
		return fmt.Errorf("server: primary epoch %d behind local %d: upstream was deposed", e, local)
	}
	return nil
}

// ---- guards ----

// rejectReadOnly refuses a mutating request on any node that is not the
// acting primary, with a 409 pointing the client at the right place.
func (s *Server) rejectReadOnly(w http.ResponseWriter) bool {
	switch s.currentRole() {
	case roleReplica:
		writeJSON(w, http.StatusConflict, ReadOnlyResponse{
			Error:   fmt.Sprintf("this node is a read-only replica of %s", s.primaryURL),
			Role:    repl.RoleReplica,
			Primary: s.primaryURL,
			Epoch:   s.epoch(),
		})
		return true
	case roleSealed:
		writeJSON(w, http.StatusConflict, ReadOnlyResponse{
			Error: fmt.Sprintf("writes refused: node sealed at epoch %d (a newer primary was promoted)", s.epoch()),
			Role:  repl.RoleSealed,
			Epoch: s.epoch(),
		})
		return true
	}
	return false
}

// replGuard applies the fencing rule to an incoming replication
// request: a stale epoch claim is refused, a newer one deposes this
// node (if it was the primary) before refusing, and a sealed node never
// serves replication. Epoch 0 is "no claim" — a fresh follower — and
// skips the comparison, since 0 is also the legitimate first epoch.
func (s *Server) replGuard(w http.ResponseWriter, r *http.Request) bool {
	remote, ok := repl.ParseEpochHeader(r.Header.Get(repl.EpochHeader))
	if !ok {
		fail(w, http.StatusBadRequest, "bad %s header %q", repl.EpochHeader, r.Header.Get(repl.EpochHeader))
		return true
	}
	s.replMu.Lock()
	defer s.replMu.Unlock()
	local := s.epoch()
	if remote != 0 {
		switch repl.CompareEpoch(local, remote) {
		case repl.RemoteAhead:
			s.sealLocked(remote)
			fail(w, http.StatusConflict, "fenced: remote epoch %d ahead of local %d", remote, local)
			return true
		case repl.RemoteBehind:
			fail(w, http.StatusConflict, "stale epoch %d (current %d)", remote, local)
			return true
		}
	}
	if s.currentRole() == roleSealed {
		fail(w, http.StatusConflict, "sealed at epoch %d: a newer primary exists", local)
		return true
	}
	return false
}

// sealLocked records deposition: a primary that learns of a newer epoch
// persists it with the sealed flag and stops accepting writes; a
// replica just learns the epoch (its upstream will be judged by
// ObserveEpoch). Callers hold replMu.
func (s *Server) sealLocked(newEpoch uint64) {
	if s.currentRole() == roleReplica {
		_ = s.setEpoch(newEpoch, false)
		return
	}
	if err := s.setEpoch(newEpoch, true); err != nil {
		s.log.Error(context.Background(), "persisting seal failed", "epoch", newEpoch, "err", err)
	}
	s.role.Store(int32(roleSealed))
	s.log.Warn(context.Background(), "sealed: a newer primary exists", "epoch", newEpoch)
}

// ---- handlers ----

// handleReplLog serves one partition's sealed txn frames after the
// follower's cursor, read from the WAL's log segments, long-polling when
// it is caught up. 410 Gone means the retained segments no longer reach
// the cursor and the follower must bootstrap; a failed segment read is a
// 500, which the follower retries after its backoff.
func (s *Server) handleReplLog(t *tenant, w http.ResponseWriter, r *http.Request) {
	store := t.ws.Store()
	if store == nil {
		fail(w, http.StatusConflict, "replication requires a data dir on the primary")
		return
	}
	if s.replGuard(w, r) {
		return
	}
	after, ok := parseAfter(w, r)
	if !ok {
		return
	}
	timeout, ok := parsePollTimeout(w, r)
	if !ok {
		return
	}
	if err := chaos.Inject(repl.SiteShip); err != nil {
		fail(w, http.StatusInternalServerError, "repl ship: %v", err)
		return
	}
	data, n, last, ok, err := store.PollFrames(r.Context(), after, timeout, replMaxBatch)
	if err != nil {
		fail(w, http.StatusInternalServerError, "repl log: %v", err)
		return
	}
	if !ok {
		fail(w, http.StatusGone, "txns after %d are no longer in the log; bootstrap from %s", after, repl.SnapshotPath)
		return
	}
	t.reg.Counter(repl.MetricShippedTxns).Add(int64(n))
	w.Header().Set(repl.EpochHeader, strconv.FormatUint(s.epoch(), 10))
	w.Header().Set(repl.LastTxnHeader, strconv.FormatUint(last, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handleReplSnapshot serves one partition's full graph as N-Triples for
// bootstrap, captured atomically against writers via the workspace's
// transaction lock.
func (s *Server) handleReplSnapshot(t *tenant, w http.ResponseWriter, r *http.Request) {
	if s.replGuard(w, r) {
		return
	}
	if err := chaos.Inject(repl.SiteShip); err != nil {
		fail(w, http.StatusInternalServerError, "repl ship: %v", err)
		return
	}
	t.ws.TxnMu.Lock()
	txn := t.ws.HighWater()
	var buf bytes.Buffer
	err := rdf.WriteNTriples(&buf, t.bb().Graph())
	t.ws.TxnMu.Unlock()
	if err != nil {
		fail(w, http.StatusInternalServerError, "%v", err)
		return
	}
	t.reg.Counter(repl.MetricSnapshotsServed).Inc()
	w.Header().Set(repl.EpochHeader, strconv.FormatUint(s.epoch(), 10))
	w.Header().Set(repl.SnapshotTxnHeader, strconv.FormatUint(txn, 10))
	w.Header().Set("Content-Type", "application/n-triples")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// replStatus assembles the node's replication status. On a replica the
// txn cursor and lag describe the default workspace's tail (the
// node-level legacy shape); per-workspace lag is visible in /metrics
// via the workspace label.
func (s *Server) replStatus() repl.Status {
	dt := s.defaultTenant()
	st := repl.Status{
		Role:    s.currentRole().String(),
		Epoch:   s.epoch(),
		LastTxn: dt.ws.HighWater(),
		Healthy: true,
	}
	switch s.currentRole() {
	case roleSealed:
		st.Healthy = false
		st.LastError = "sealed: a newer primary exists"
	case roleReplica:
		st.Primary = s.primaryURL
		dt.tailMu.Lock()
		tl := dt.tailer
		dt.tailMu.Unlock()
		if tl == nil {
			st.Healthy = false
			st.LastError = "replication not running"
			break
		}
		primaryLast, contact, lastErr := tl.Status()
		if primaryLast > st.LastTxn {
			st.LagTxns = primaryLast - st.LastTxn
		}
		if !contact.IsZero() {
			st.LagSeconds = time.Since(contact).Seconds()
		}
		st.Healthy = tl.Healthy()
		if lastErr != nil {
			st.LastError = lastErr.Error()
		}
		// Any other tenant's stalled tail also degrades the node.
		if st.Healthy {
			for _, t := range s.tenants() {
				if t == dt {
					continue
				}
				t.tailMu.Lock()
				otl := t.tailer
				t.tailMu.Unlock()
				if otl != nil && !otl.Healthy() {
					st.Healthy = false
					st.LastError = fmt.Sprintf("workspace %q replication stalled", t.ws.Name())
					break
				}
			}
		}
	}
	return st
}

func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.replStatus())
}

// handleReplFence accepts a promotion notification: a strictly newer
// epoch seals this node; anything else is refused (fencing must only
// ever move the epoch forward).
func (s *Server) handleReplFence(w http.ResponseWriter, r *http.Request) {
	var req repl.FenceRequest
	if err := readJSON(r, &req); err != nil {
		fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	s.replMu.Lock()
	defer s.replMu.Unlock()
	local := s.epoch()
	if repl.CompareEpoch(local, req.Epoch) != repl.RemoteAhead {
		fail(w, http.StatusConflict, "fence epoch %d does not advance local epoch %d", req.Epoch, local)
		return
	}
	s.sealLocked(req.Epoch)
	writeJSON(w, http.StatusOK, repl.FenceResponse{Role: s.currentRole().String(), Epoch: s.epoch()})
}

// handlePromote turns this replica into the primary: stop every tail
// loop, bump the fencing epoch durably (one epoch fences all
// workspaces), open for writes, and best-effort fence the old primary
// so a surviving process seals itself immediately (a dead one finds out
// from the epoch on the next replication exchange).
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	s.replMu.Lock()
	if s.currentRole() != roleReplica {
		role := s.currentRole().String()
		s.replMu.Unlock()
		fail(w, http.StatusConflict, "only a replica can be promoted; this node is %s", role)
		return
	}
	s.replMu.Unlock()

	// Stop the tails first (without holding replMu: the appliers'
	// callbacks take it). A concurrent promote loses the re-check below.
	s.StopReplication()

	s.replMu.Lock()
	if s.currentRole() != roleReplica {
		role := s.currentRole().String()
		s.replMu.Unlock()
		fail(w, http.StatusConflict, "only a replica can be promoted; this node is %s", role)
		return
	}
	newEpoch := s.epoch() + 1
	if err := s.setEpoch(newEpoch, false); err != nil {
		s.replMu.Unlock()
		fail(w, http.StatusInternalServerError, "persisting promotion epoch: %v", err)
		return
	}
	// Replication wrote cells around the blackboards' mutation paths:
	// resume each revision counter past them before writes open.
	for _, t := range s.tenants() {
		t.bb().ResumeRevision()
	}
	s.role.Store(int32(rolePrimary))
	oldPrimary := s.primaryURL
	s.primaryURL = ""
	s.replMu.Unlock()

	s.log.Info(r.Context(), "promoted to primary", "epoch", newEpoch, "oldPrimary", oldPrimary)
	if oldPrimary != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		f := repl.NewFetcher(oldPrimary, func() uint64 { return newEpoch })
		if err := f.Fence(ctx, newEpoch); err != nil {
			s.log.Warn(r.Context(), "fencing old primary failed (it will seal on next contact)",
				"oldPrimary", oldPrimary, "err", err)
		}
		cancel()
	}
	writeJSON(w, http.StatusOK, s.replStatus())
}

// health backs the node-level /healthz: "ok" only when this node is fit
// to serve its role — a sealed node and a replica whose tail is stalled
// both degrade.
func (s *Server) health() (status, detail string) {
	switch s.currentRole() {
	case roleSealed:
		return "sealed", fmt.Sprintf("sealed at epoch %d; a newer primary was promoted", s.epoch())
	case roleReplica:
		st := s.replStatus()
		if !st.Healthy {
			d := "replication stalled"
			if st.LastError != "" {
				d += ": " + st.LastError
			}
			return "degraded", d
		}
	}
	return "ok", ""
}

// tenantHealth backs the per-workspace healthz route: the node-level
// state first, then the workspace's own fitness — a tenant at or over
// its WAL quota is degraded (it refuses writes) without affecting its
// neighbors.
func (t *tenant) health() (status, detail string) {
	if st, d := t.srv.health(); st != "ok" {
		return st, d
	}
	if err := t.ws.PreTxnQuota(); err != nil {
		return "degraded", err.Error()
	}
	return "ok", ""
}

// handleTenantHealth serves GET /v1/healthz and
// GET /v1/workspaces/{ws}/healthz.
func (s *Server) handleTenantHealth(t *tenant, w http.ResponseWriter, r *http.Request) {
	status, detail := t.health()
	code := http.StatusOK
	if status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, HealthResponse{Status: status, Workspace: t.ws.Name(), Detail: detail})
}

// ---- request decoding helpers (shared with the events route) ----

// parseAfter decodes the ?after cursor (0 when absent); a malformed or
// negative value is a 400.
func parseAfter(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	v := r.URL.Query().Get("after")
	if v == "" {
		return 0, true
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		fail(w, http.StatusBadRequest, "bad after cursor %q", v)
		return 0, false
	}
	return n, true
}

// parsePollTimeout decodes the ?timeout long-poll window (default 25s),
// rejecting malformed and negative values and capping at
// maxPollTimeout.
func parsePollTimeout(w http.ResponseWriter, r *http.Request) (time.Duration, bool) {
	timeout := 25 * time.Second
	if v := r.URL.Query().Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			fail(w, http.StatusBadRequest, "bad timeout %q", v)
			return 0, false
		}
		if d < 0 {
			fail(w, http.StatusBadRequest, "negative timeout %q", v)
			return 0, false
		}
		timeout = d
	}
	if timeout > maxPollTimeout {
		timeout = maxPollTimeout
	}
	return timeout, true
}
