package workspace

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/blackboard"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/wal"
	"repro/internal/wbmgr"
)

// Workspace is one isolated tenant: its own blackboard, workbench
// manager, and WAL partition. The exported TxnMu serializes the
// tenant's mutating transactions — per workspace, not process-wide, so
// tenants never queue behind each other's commits.
type Workspace struct {
	name string
	dir  string // "" when the service runs in-memory
	reg  *obs.Registry
	bb   *blackboard.Blackboard
	mgr  *wbmgr.Manager
	// store is the WAL partition (nil when in-memory). It is opened with
	// the workspace and closed only when the workspace is deleted or the
	// manager closes; its own mutex serializes appends.
	store *wal.Store

	recovery      string // recovery summary from the boot-time open
	openHighWater uint64 // txn high-water mark at the boot-time open

	// TxnMu serializes this workspace's mutating API requests: the
	// manager allows one active transaction, so concurrent writers
	// queue here rather than bouncing off ErrTxnActive.
	TxnMu sync.Mutex

	quotaMu sync.Mutex
	quota   Quota

	// lastTxn is an in-memory workspace's high-water mark, advanced by
	// replication apply (a durable one reads its store's).
	lastTxn atomic.Uint64

	// Ext hangs arbitrary per-tenant state off the workspace; the
	// server keeps its sessions, match engines and event feed here.
	Ext any
}

// Name returns the workspace name.
func (w *Workspace) Name() string { return w.name }

// Dir returns the partition directory ("" when in-memory).
func (w *Workspace) Dir() string { return w.dir }

// Durable reports whether the workspace has a WAL partition.
func (w *Workspace) Durable() bool { return w.dir != "" }

// Metrics returns the workspace-labeled registry view.
func (w *Workspace) Metrics() *obs.Registry { return w.reg }

// Blackboard returns the tenant's blackboard.
func (w *Workspace) Blackboard() *blackboard.Blackboard { return w.bb }

// Manager returns the tenant's workbench manager.
func (w *Workspace) Manager() *wbmgr.Manager { return w.mgr }

// Recovery returns the boot-time recovery summary ("" when in-memory).
func (w *Workspace) Recovery() string { return w.recovery }

// OpenHighWater returns the txn high-water mark recovered at boot; the
// server seeds session-ID sequences from it so post-restart IDs never
// collide with pre-restart ones.
func (w *Workspace) OpenHighWater() uint64 { return w.openHighWater }

// Quota returns the current quota.
func (w *Workspace) Quota() Quota {
	w.quotaMu.Lock()
	defer w.quotaMu.Unlock()
	return w.quota
}

// SetQuota replaces the quota.
func (w *Workspace) SetQuota(q Quota) {
	w.quotaMu.Lock()
	w.quota = q
	w.quotaMu.Unlock()
}

// Store returns the WAL store (nil for in-memory workspaces). Once the
// workspace is deleted or the manager closed, the store is closed:
// appends and frame reads on it fail.
func (w *Workspace) Store() *wal.Store { return w.store }

// AppendTxn durably logs one committed transaction to the partition.
func (w *Workspace) AppendTxn(ctx context.Context, ops []rdf.ChangeOp) error {
	if w.store == nil {
		return nil
	}
	return w.store.AppendTxnContext(ctx, ops)
}

// AppendTxnAt logs a transaction under an explicit id (replication
// apply). An in-memory workspace just advances its high-water mark.
func (w *Workspace) AppendTxnAt(ctx context.Context, txn uint64, ops []rdf.ChangeOp) error {
	if w.store != nil {
		return w.store.AppendTxnAt(ctx, txn, ops)
	}
	if txn > w.lastTxn.Load() {
		w.lastTxn.Store(txn)
	}
	return nil
}

// HighWater returns the highest committed txn id.
func (w *Workspace) HighWater() uint64 {
	if w.store != nil {
		return w.store.LastTxn()
	}
	return w.lastTxn.Load()
}

// WALSize returns the partition's live log size in bytes (0 when
// in-memory). A snapshot rotates the live log into wal.prev, which this
// does not count.
func (w *Workspace) WALSize() int64 {
	if w.store != nil {
		return w.store.LogSize()
	}
	return 0
}

// SnapshotNow folds the partition's log into a fresh snapshot. The
// caller must hold TxnMu (no concurrent commits during the fold).
func (w *Workspace) SnapshotNow() error {
	if w.store == nil {
		return fmt.Errorf("workspace %q has no data dir", w.name)
	}
	return w.store.SnapshotNow()
}

// PreTxnQuota rejects a new transaction while the WAL partition is at
// or over its byte quota. (A snapshot fold shrinks the log and lifts
// the refusal.)
func (w *Workspace) PreTxnQuota() error {
	q := w.Quota()
	if q.MaxWALBytes <= 0 {
		return nil
	}
	if size := w.WALSize(); size >= q.MaxWALBytes {
		return &QuotaError{Workspace: w.name, Limit: "max_wal_bytes", Max: q.MaxWALBytes, Observed: size}
	}
	return nil
}

// PostTxnQuota checks the triple quota against the blackboard as it
// stands inside an open transaction; an error means the caller must
// abort.
func (w *Workspace) PostTxnQuota() error {
	q := w.Quota()
	if q.MaxTriples <= 0 {
		return nil
	}
	if n := w.bb.Graph().Len(); n > q.MaxTriples {
		return &QuotaError{Workspace: w.name, Limit: "max_triples", Max: int64(q.MaxTriples), Observed: int64(n)}
	}
	return nil
}
