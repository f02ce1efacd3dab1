package server

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Debug surface: /debug/traces serves the bounded in-memory trace store
// (recent traces, a slow-request view, single-trace lookup, JSONL
// export) and, when Config.EnablePprof is set, /debug/pprof/ mounts the
// stdlib profiler. These routes are deliberately outside the traced
// route() middleware — inspecting traces must not mint new ones.

// defaultTraceListLimit bounds /debug/traces responses when no n
// parameter is given.
const defaultTraceListLimit = 20

// mountDebug wires the trace endpoints (and optionally pprof) onto mux.
func (s *Server) mountDebug(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceGet)
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// Traces exposes the server's trace store (tests, embedding).
func (s *Server) Traces() *obs.TraceStore { return s.traces }

// traceInfo converts one assembled trace to its wire form, spans sorted
// by start offset so parents list before their children.
func traceInfo(t obs.Trace) TraceInfo {
	out := TraceInfo{
		Trace:        t.ID.String(),
		Root:         t.Root,
		Start:        t.Start,
		DurationUS:   t.Duration.Microseconds(),
		DroppedSpans: t.DroppedSpans,
		Spans:        make([]SpanInfo, 0, len(t.Spans)),
	}
	for _, sp := range t.Spans {
		si := SpanInfo{
			ID:         sp.ID.String(),
			Name:       sp.Name,
			StartUS:    sp.Start.Sub(t.Start).Microseconds(),
			DurationUS: sp.Duration.Microseconds(),
			Attrs:      sp.Attrs,
			Err:        sp.Err,
		}
		if sp.Parent != 0 {
			si.Parent = sp.Parent.String()
		}
		out.Spans = append(out.Spans, si)
	}
	sort.SliceStable(out.Spans, func(i, j int) bool { return out.Spans[i].StartUS < out.Spans[j].StartUS })
	return out
}

// handleTraces lists recent traces, newest first. Query parameters:
// n bounds the count (default 20), min=<duration> filters to completed
// traces at least that slow (the slow-request log), format=jsonl
// streams the whole store instead: one TraceInfo per line, oldest
// first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/jsonl")
		traces := s.traces.Recent(0)
		enc := json.NewEncoder(w)
		for i := len(traces) - 1; i >= 0; i-- {
			if enc.Encode(traceInfo(traces[i])) != nil {
				return // the client went away
			}
		}
		return
	}
	n := defaultTraceListLimit
	if v := q.Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			fail(w, http.StatusBadRequest, "bad n %q", v)
			return
		}
		n = parsed
	}
	var traces []obs.Trace
	if v := q.Get("min"); v != "" {
		min, err := time.ParseDuration(v)
		if err != nil {
			fail(w, http.StatusBadRequest, "bad min %q", v)
			return
		}
		traces = s.traces.Slow(min, n)
	} else {
		traces = s.traces.Recent(n)
	}
	out := make([]TraceInfo, 0, len(traces))
	for _, t := range traces {
		out = append(out, traceInfo(t))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTraceGet serves one trace by its 16-hex-digit id.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id, ok := obs.ParseTraceID(r.PathValue("id"))
	if !ok {
		fail(w, http.StatusBadRequest, "bad trace id %q", r.PathValue("id"))
		return
	}
	t, ok := s.traces.Get(id)
	if !ok {
		fail(w, http.StatusNotFound, "trace %s not found (evicted or never seen)", id)
		return
	}
	writeJSON(w, http.StatusOK, traceInfo(t))
}
