// Package workspace partitions one workbench service into isolated
// tenants. Each workspace owns a full engine bundle — blackboard,
// workbench manager, and (when durable) a private WAL partition under
// <data-dir>/ws/<name>/; the server hangs each tenant's match sessions
// and their match cache off it too. Only the metrics registry is
// process-wide, and it gains a `workspace` label per tenant. The
// manager recovers every partition on boot and adopts a pre-workspace
// data dir as the `default` tenant. A partition's WAL store stays open
// from the workspace's open to its deletion or the manager's close.
package workspace

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"

	"repro/internal/blackboard"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/wal"
	"repro/internal/wbmgr"
)

// DefaultName is the tenant behind every bare (un-prefixed) API route
// and every pre-workspace on-disk layout.
const DefaultName = "default"

// nameRe bounds workspace names to path- and label-safe tokens. The
// leading class keeps ".." (and hidden dirs) impossible.
var nameRe = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]{0,63}$`)

// ValidName reports whether name is an acceptable workspace name.
func ValidName(name string) bool { return nameRe.MatchString(name) }

// Quota bounds one workspace. Zero fields mean unlimited.
type Quota struct {
	// MaxTriples caps the workspace's blackboard size; a transaction
	// that would exceed it is rolled back.
	MaxTriples int `json:"max_triples,omitempty"`
	// MaxWALBytes refuses new transactions while the workspace's WAL
	// log segment is at or over this size (a snapshot fold resets it).
	MaxWALBytes int64 `json:"max_wal_bytes,omitempty"`
}

// QuotaError reports which named limit a request hit; the server maps
// it to 429.
type QuotaError struct {
	Workspace string
	Limit     string // "max_triples" or "max_wal_bytes"
	Max       int64
	Observed  int64
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("workspace %q over quota %s: %d exceeds limit %d",
		e.Workspace, e.Limit, e.Observed, e.Max)
}

// Options assembles a Manager.
type Options struct {
	// Root is the service data directory; workspace partitions live
	// under Root/ws/<name>/. Empty means every workspace is in-memory.
	Root string
	// Metrics is the process-wide registry. Every workspace gets a
	// WithLabels("workspace", name) view of it. nil = obs.Default().
	Metrics *obs.Registry
	// DefaultQuota applies to workspaces created without an explicit
	// quota (including recovered and default ones).
	DefaultQuota Quota
	// OnOpen is called (under the manager lock) for every workspace as
	// it is opened or created, before it is visible to Get. The server
	// uses it to attach per-tenant request state and subscriptions. An
	// error aborts the open.
	OnOpen func(ws *Workspace) error
}

// Manager owns the tenant table.
type Manager struct {
	opts Options
	reg  *obs.Registry

	mu     sync.Mutex
	wss    map[string]*Workspace
	closed bool
}

// NewManager scans Root/ws/* (adopting a legacy flat layout as the
// default partition first), opens every workspace found, and always
// ends with a live default workspace.
func NewManager(opts Options) (*Manager, error) {
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	m := &Manager{opts: opts, reg: reg, wss: map[string]*Workspace{}}
	m.mu.Lock()
	defer m.mu.Unlock()
	if opts.Root != "" {
		if err := adoptLegacy(opts.Root); err != nil {
			return nil, err
		}
		wsRoot := filepath.Join(opts.Root, "ws")
		if err := os.MkdirAll(wsRoot, 0o755); err != nil {
			return nil, err
		}
		entries, err := os.ReadDir(wsRoot)
		if err != nil {
			return nil, err
		}
		for _, ent := range entries {
			if !ent.IsDir() {
				continue
			}
			if _, err := m.openLocked(ent.Name(), opts.DefaultQuota); err != nil {
				m.closeLocked()
				return nil, fmt.Errorf("workspace %q: %w", ent.Name(), err)
			}
		}
	}
	if _, ok := m.wss[DefaultName]; !ok {
		if _, err := m.openLocked(DefaultName, opts.DefaultQuota); err != nil {
			m.closeLocked()
			return nil, err
		}
	}
	return m, nil
}

// adoptLegacy moves a pre-workspace flat data dir (snapshot.nt, wal.log,
// wal.header at the top level) into ws/default/ so old deployments come
// up as the default tenant with history intact.
func adoptLegacy(root string) error {
	defDir := filepath.Join(root, "ws", DefaultName)
	if _, err := os.Stat(defDir); err == nil {
		return nil // already partitioned
	}
	legacy := []string{wal.SnapshotFile, wal.LogFile, wal.HeaderFile}
	found := false
	for _, f := range legacy {
		if _, err := os.Stat(filepath.Join(root, f)); err == nil {
			found = true
			break
		}
	}
	if !found {
		return nil
	}
	if err := os.MkdirAll(defDir, 0o755); err != nil {
		return err
	}
	for _, f := range legacy {
		src := filepath.Join(root, f)
		if _, err := os.Stat(src); err != nil {
			continue
		}
		if err := os.Rename(src, filepath.Join(defDir, f)); err != nil {
			return fmt.Errorf("adopting legacy data dir: %w", err)
		}
	}
	return nil
}

// openLocked builds (and wires) one workspace; m.mu must be held.
func (m *Manager) openLocked(name string, q Quota) (*Workspace, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("invalid workspace name %q (want %s)", name, nameRe)
	}
	if _, ok := m.wss[name]; ok {
		return nil, fmt.Errorf("workspace %q already exists", name)
	}
	wsReg := m.reg.WithLabels("workspace", name)
	ws := &Workspace{name: name, reg: wsReg, quota: q}
	if m.opts.Root != "" {
		ws.dir = filepath.Join(m.opts.Root, "ws", name)
		if err := os.MkdirAll(ws.dir, 0o755); err != nil {
			return nil, err
		}
		store, err := wal.Open(ws.dir, wal.Options{Metrics: wsReg})
		if err != nil {
			return nil, err
		}
		ws.store = store
		ws.recovery = store.Stats().String()
		ws.openHighWater = store.LastTxn()
		ws.bb = blackboard.NewFromGraph(store.Graph())
	} else {
		ws.bb = blackboard.New()
	}
	ws.bb.SetMetrics(wsReg)
	ws.mgr = wbmgr.NewWith(ws.bb)
	ws.mgr.SetMetrics(wsReg)
	if ws.dir != "" {
		// Durability gate: every committed transaction reaches this
		// workspace's WAL partition (and fsync) before Commit returns.
		ws.mgr.SetCommitHook(func(ctx context.Context, _ string, ops []rdf.ChangeOp) error {
			return ws.AppendTxn(ctx, ops)
		})
	}
	if m.opts.OnOpen != nil {
		if err := m.opts.OnOpen(ws); err != nil {
			if ws.store != nil {
				ws.store.Close()
			}
			return nil, err
		}
	}
	m.wss[name] = ws
	return ws, nil
}

// Get returns the named workspace. It never creates one: unknown names
// are the caller's 404.
func (m *Manager) Get(name string) (*Workspace, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ws, ok := m.wss[name]
	return ws, ok
}

// Default returns the default workspace (always present).
func (m *Manager) Default() *Workspace {
	ws, _ := m.Get(DefaultName)
	return ws
}

// Create adds a new workspace. A zero quota inherits the manager's
// default quota.
func (m *Manager) Create(name string, q Quota) (*Workspace, error) {
	if q == (Quota{}) {
		q = m.opts.DefaultQuota
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("workspace manager closed")
	}
	return m.openLocked(name, q)
}

// Ensure returns the named workspace, creating it if absent — used by
// the replica supervisor mirroring the primary's tenant table, never by
// request routing.
func (m *Manager) Ensure(name string, q Quota) (*Workspace, error) {
	if ws, ok := m.Get(name); ok {
		return ws, nil
	}
	ws, err := m.Create(name, q)
	if err != nil {
		if ws, ok := m.Get(name); ok { // lost a create race
			return ws, nil
		}
		return nil, err
	}
	return ws, nil
}

// Delete removes a workspace, closes its store, and removes its
// partition from disk. The default workspace is load-bearing (it backs
// every bare /v1 route) and cannot be deleted.
func (m *Manager) Delete(name string) error {
	if name == DefaultName {
		return fmt.Errorf("workspace %q cannot be deleted", DefaultName)
	}
	m.mu.Lock()
	ws, ok := m.wss[name]
	if ok {
		delete(m.wss, name)
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("workspace %q not found", name)
	}
	if ws.store != nil {
		ws.store.Close()
	}
	if ws.dir != "" {
		return os.RemoveAll(ws.dir)
	}
	return nil
}

// List returns every workspace sorted by name.
func (m *Manager) List() []*Workspace {
	m.mu.Lock()
	out := make([]*Workspace, 0, len(m.wss))
	for _, ws := range m.wss {
		out = append(out, ws)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Names returns every workspace name, sorted.
func (m *Manager) Names() []string {
	wss := m.List()
	out := make([]string, len(wss))
	for i, ws := range wss {
		out[i] = ws.name
	}
	return out
}

// Close folds and closes every workspace's store.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	return m.closeLocked()
}

func (m *Manager) closeLocked() error {
	var first error
	for _, ws := range m.wss {
		if ws.store == nil {
			continue
		}
		if err := ws.store.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
