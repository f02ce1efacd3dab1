package server

// Workspace lifecycle routes: create, list (with per-tenant stats),
// inspect, and delete. These are node-level — they act on the tenant
// table itself, not inside any one tenant — so they mount via
// routePlain. Deletion is deliberately awkward: it destroys a WAL
// partition, so the request must carry ?confirm=<name> and the default
// workspace is never deletable.

import (
	"net/http"
	"strings"

	"repro/internal/workspace"
)

// workspaceInfo assembles one tenant's stats row.
func (s *Server) workspaceInfo(t *tenant) WorkspaceInfo {
	bb := t.bb()
	t.mu.Lock()
	sessions := len(t.sessions)
	t.mu.Unlock()
	q := t.ws.Quota()
	return WorkspaceInfo{
		Name:        t.ws.Name(),
		Triples:     bb.Graph().Len(),
		Schemas:     len(bb.Schemas()),
		Mappings:    len(bb.Mappings()),
		Sessions:    sessions,
		WALBytes:    t.ws.WALSize(),
		LastTxn:     t.ws.HighWater(),
		FeedSeq:     t.mgr().EventHead(),
		MaxTriples:  q.MaxTriples,
		MaxWALBytes: q.MaxWALBytes,
	}
}

func (s *Server) handleWorkspaceCreate(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	var req CreateWorkspaceRequest
	if err := readJSON(r, &req); err != nil {
		fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	name := strings.TrimSpace(req.Name)
	ws, err := s.wsm.Create(name, workspace.Quota{
		MaxTriples:  req.MaxTriples,
		MaxWALBytes: req.MaxWALBytes,
	})
	if err != nil {
		code := http.StatusBadRequest
		if strings.Contains(err.Error(), "already exists") {
			code = http.StatusConflict
		}
		fail(w, code, "%v", err)
		return
	}
	t, _ := ws.Ext.(*tenant)
	writeJSON(w, http.StatusCreated, s.workspaceInfo(t))
}

func (s *Server) handleWorkspaceList(w http.ResponseWriter, r *http.Request) {
	out := []WorkspaceInfo{}
	for _, t := range s.tenants() {
		out = append(out, s.workspaceInfo(t))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleWorkspaceGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("ws")
	t, ok := s.tenantOf(name)
	if !ok {
		fail(w, http.StatusNotFound, "workspace %q not found", name)
		return
	}
	writeJSON(w, http.StatusOK, s.workspaceInfo(t))
}

func (s *Server) handleWorkspaceDelete(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	name := r.PathValue("ws")
	t, ok := s.tenantOf(name)
	if !ok {
		fail(w, http.StatusNotFound, "workspace %q not found", name)
		return
	}
	if confirm := r.URL.Query().Get("confirm"); confirm != name {
		fail(w, http.StatusBadRequest,
			"deleting workspace %q destroys its data; repeat the request with ?confirm=%s", name, name)
		return
	}
	// Stop the partition's tail loop before the store goes away.
	s.stopTenantTail(t)
	if err := s.wsm.Delete(name); err != nil {
		fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, DeleteWorkspaceResponse{Name: name, Deleted: true})
}
