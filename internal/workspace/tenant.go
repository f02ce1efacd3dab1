package workspace

import (
	"context"
	"fmt"
	"sync"
	"time"

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
	name    string
	dir     string // "" when the service runs in-memory
	reg     *obs.Registry
	bb      *blackboard.Blackboard
	mgr     *wbmgr.Manager
	walOpts wal.Options

	recovery      string // recovery summary from the boot-time open
	openHighWater uint64 // txn high-water mark at the boot-time open

	// TxnMu serializes this workspace's mutating API requests: the
	// manager allows one active transaction, so concurrent writers
	// queue here rather than bouncing off ErrTxnActive.
	TxnMu sync.Mutex

	quotaMu sync.Mutex
	quota   Quota

	// storeMu guards the store handle lifecycle (lazy reopen, idle
	// close) and is held across appends so a fold can never race a
	// write.
	storeMu   sync.Mutex
	store     *wal.Store
	lastTouch time.Time
	lastTxn   uint64 // high-water cache, authoritative while store == nil
	deleted   bool

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

// Touch marks the workspace as in use, deferring the idle sweep.
func (w *Workspace) Touch() {
	w.storeMu.Lock()
	w.lastTouch = time.Now()
	w.storeMu.Unlock()
}

// Store returns the open WAL store, lazily reopening one that the idle
// sweeper folded closed. Returns (nil, nil) for in-memory workspaces.
func (w *Workspace) Store() (*wal.Store, error) {
	w.storeMu.Lock()
	defer w.storeMu.Unlock()
	return w.storeLocked()
}

// StoreIfOpen returns the store handle only if currently open.
func (w *Workspace) StoreIfOpen() *wal.Store {
	w.storeMu.Lock()
	defer w.storeMu.Unlock()
	return w.store
}

// storeLocked reopens the partition if needed; storeMu must be held.
// The reopened store recovers its own graph copy, which is then
// discarded in favor of the still-live blackboard graph (equal content:
// the close folded every committed txn, and writes require an open
// store), so feeds and engines keep their object identity.
func (w *Workspace) storeLocked() (*wal.Store, error) {
	if w.deleted {
		return nil, fmt.Errorf("workspace %q deleted", w.name)
	}
	w.lastTouch = time.Now()
	if w.store != nil || w.dir == "" {
		return w.store, nil
	}
	store, err := wal.Open(w.dir, w.walOpts)
	if err != nil {
		return nil, fmt.Errorf("reopening workspace %q: %w", w.name, err)
	}
	store.SetGraph(w.bb.Graph())
	w.store = store
	w.lastTxn = store.LastTxn()
	return store, nil
}

// AppendTxn durably logs one committed transaction to the partition.
// It holds storeMu for the duration so an idle fold cannot race the
// append.
func (w *Workspace) AppendTxn(ctx context.Context, ops []rdf.ChangeOp) error {
	w.storeMu.Lock()
	defer w.storeMu.Unlock()
	store, err := w.storeLocked()
	if err != nil {
		return err
	}
	if store == nil {
		return nil
	}
	if err := store.AppendTxnContext(ctx, ops); err != nil {
		return err
	}
	w.lastTxn = store.LastTxn()
	return nil
}

// AppendTxnAt logs a transaction under an explicit id (replication
// apply). In-memory workspaces just advance the cached high-water mark.
func (w *Workspace) AppendTxnAt(ctx context.Context, txn uint64, ops []rdf.ChangeOp) error {
	w.storeMu.Lock()
	defer w.storeMu.Unlock()
	store, err := w.storeLocked()
	if err != nil {
		return err
	}
	if store == nil {
		if txn > w.lastTxn {
			w.lastTxn = txn
		}
		return nil
	}
	if err := store.AppendTxnAt(ctx, txn, ops); err != nil {
		return err
	}
	w.lastTxn = store.LastTxn()
	return nil
}

// HighWater returns the highest committed txn id (from the open store,
// or the cache left by the last fold).
func (w *Workspace) HighWater() uint64 {
	w.storeMu.Lock()
	defer w.storeMu.Unlock()
	if w.store != nil {
		return w.store.LastTxn()
	}
	return w.lastTxn
}

// WALSize returns the partition's live log size in bytes (0 when folded
// closed — a fold rotates the live log into wal.prev, which this does
// not count).
func (w *Workspace) WALSize() int64 {
	w.storeMu.Lock()
	defer w.storeMu.Unlock()
	if w.store != nil {
		return w.store.LogSize()
	}
	return 0
}

// SnapshotNow folds the partition's log into a fresh snapshot. The
// caller must hold TxnMu (no concurrent commits during the fold).
func (w *Workspace) SnapshotNow() error {
	w.storeMu.Lock()
	defer w.storeMu.Unlock()
	store, err := w.storeLocked()
	if err != nil {
		return err
	}
	if store == nil {
		return fmt.Errorf("workspace %q has no data dir", w.name)
	}
	return store.SnapshotNow()
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

// closeIfIdle folds and closes the store when untouched for ttl.
func (w *Workspace) closeIfIdle(now time.Time, ttl time.Duration) bool {
	w.storeMu.Lock()
	defer w.storeMu.Unlock()
	if w.store == nil || now.Sub(w.lastTouch) < ttl {
		return false
	}
	w.lastTxn = w.store.LastTxn()
	if err := w.store.Close(); err != nil {
		// The handle is unusable either way; drop it so the next touch
		// reopens from disk.
		w.store = nil
		return true
	}
	w.store = nil
	return true
}

// CloseStore folds and closes the partition (manager shutdown).
func (w *Workspace) CloseStore() error {
	w.storeMu.Lock()
	defer w.storeMu.Unlock()
	if w.store == nil {
		return nil
	}
	w.lastTxn = w.store.LastTxn()
	err := w.store.Close()
	w.store = nil
	return err
}

// StoreOpen reports whether the partition is currently open (tests).
func (w *Workspace) StoreOpen() bool {
	w.storeMu.Lock()
	defer w.storeMu.Unlock()
	return w.store != nil
}
