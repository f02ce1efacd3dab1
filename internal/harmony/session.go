package harmony

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/blackboard"
	"repro/internal/chaos"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/wbmgr"
)

// Match sessions (DESIGN.md §12). A Session owns the engine behind one
// blackboard mapping and is the only path from an engine to the
// blackboard: the server's match, rematch and apply routes, the schema
// set Applier, core.IntegrationSession and local `workbench match` all
// run and publish through it, and all through its one entry point,
// Rematch. The analyst's decisions live on the blackboard; the session
// mirrors them onto the engine as pins before every run and never
// writes over them when it publishes.

// SiteSessionSchemas is the chaos failpoint between a session reading
// its mapping's schemas and running its engine — the window in which a
// concurrent schema load must still leave the next rematch re-reading.
const SiteSessionSchemas chaos.Site = "server.match.schemas"

func init() {
	chaos.RegisterSite(SiteSessionSchemas, "after a match session reads its schemas, before the engine runs")
}

// Session is the long-lived match engine of one mapping. Its methods
// are safe for concurrent use; runs are serialized.
type Session struct {
	opts Options

	mu  sync.Mutex // held across a whole run
	eng *Engine
	// read names the schemas the engine holds and the blackboard
	// versions they were read at.
	read schemaVersions
}

// schemaVersions names a mapping's two schemas at their blackboard
// versions.
type schemaVersions struct {
	src, tgt       string
	srcVer, tgtVer int
}

func versionsOf(bb *blackboard.Blackboard, mp *blackboard.Mapping) schemaVersions {
	return schemaVersions{
		src: mp.SourceSchema, tgt: mp.TargetSchema,
		srcVer: bb.SchemaVersion(mp.SourceSchema), tgtVer: bb.SchemaVersion(mp.TargetSchema),
	}
}

// NewSession returns a session whose engines are built with opts.
func NewSession(opts Options) *Session { return &Session{opts: opts} }

// Result is one session run's outcome, detached from the engine so the
// caller can publish it after the session moves on.
type Result struct {
	// Mode is RematchCold for a run on a new engine, else the engine's
	// self-chosen rematch mode.
	Mode string
	// Links are the correspondences at or above the run's threshold, in
	// matrix order.
	Links []match.Correspondence
}

// Rematch is the session's one entry point: it pins the mapping's
// decisions and re-runs the live engine on its cheapest valid path. It
// re-reads a schema only when its name or blackboard version moved since
// it was read, keeping the engine's object for the side that did not
// move, and otherwise lets the engine patch in place (the decision-only
// "pins" path when nothing else changed). dirty is an advisory hint
// (see Engine.Rematch). Without a live engine it builds one and runs it
// cold. The mode is also recorded as the rematch_mode attribute of the
// span in ctx.
func (s *Session) Rematch(ctx context.Context, bb *blackboard.Blackboard, mp *blackboard.Mapping, dirty Dirty, threshold float64) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mode := RematchCold
	if now := versionsOf(bb, mp); s.eng == nil || now != s.read {
		// The versions are taken before the schemas are read: a load
		// committing in between leaves them behind the engine's graphs,
		// so the next rematch reads again rather than trusting them.
		var src, tgt *model.Schema
		var err error
		if s.eng != nil && now.src == s.read.src && now.srcVer == s.read.srcVer {
			src = s.eng.ctx.Source
		} else if src, err = bb.GetSchema(mp.SourceSchema); err != nil {
			return nil, err
		}
		if s.eng != nil && now.tgt == s.read.tgt && now.tgtVer == s.read.tgtVer {
			tgt = s.eng.ctx.Target
		} else if tgt, err = bb.GetSchema(mp.TargetSchema); err != nil {
			return nil, err
		}
		if err := chaos.Inject(SiteSessionSchemas); err != nil {
			return nil, err
		}
		if s.eng == nil {
			// The new engine's linguistic context (its feature rows) is
			// the cold run's set-up; the trace books it as "context", like
			// a rematch's refresh. A trace-only span: the run's stage
			// timings start with the run.
			sp, _ := obs.StartSpan(ctx, "context")
			s.eng = NewEngine(src, tgt, s.opts)
			sp.End()
			syncPins(s.eng, mp)
			s.eng.run(ctx)
		} else {
			// Pins on elements only the new schemas carry fail against
			// the engine's old ones; they are placed after the swap.
			failed := syncPins(s.eng, mp)
			s.eng.rematch(ctx, src, tgt, dirty)
			for _, c := range failed {
				_ = pin(s.eng, c) // absent from both versions: dropped
			}
			mode = s.eng.LastRematchMode()
		}
		s.read = now
	} else {
		syncPins(s.eng, mp)
		s.eng.rematch(ctx, s.eng.ctx.Source, s.eng.ctx.Target, dirty)
		mode = s.eng.LastRematchMode()
	}
	if sp := obs.SpanFromContext(ctx); sp != nil {
		sp.SetAttr("rematch_mode", mode)
	}
	return &Result{Mode: mode, Links: s.eng.Matrix().Above(threshold)}, nil
}

// Engine returns the session's live engine (nil before its first run).
// The engine keeps changing with later runs; callers that read it
// concurrently with them must synchronize themselves.
func (s *Session) Engine() *Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng
}

// syncPins mirrors the mapping's decisions onto the engine — the one pin
// rule: every user-defined cell pins, accepted when its confidence is
// positive and rejected otherwise — and unpins decisions the mapping no
// longer carries. It returns the decisions the engine's schemas could
// not place.
func syncPins(e *Engine, mp *blackboard.Mapping) []blackboard.Cell {
	decided := mp.UserCells()
	keep := make(map[pairKey]bool, len(decided))
	for _, c := range decided {
		keep[pairKey{c.SourceID, c.TargetID}] = true
	}
	for k := range e.decisions {
		if !keep[k] {
			e.Unpin(k.src, k.tgt)
		}
	}
	var failed []blackboard.Cell
	for _, c := range decided {
		if pin(e, c) != nil {
			failed = append(failed, c)
		}
	}
	return failed
}

// pin places one decision on the engine.
func pin(e *Engine, c blackboard.Cell) error {
	return e.decide(c.SourceID, c.TargetID, c.Confidence > 0)
}

// Publish writes r's links into the mapping inside txn, as machine
// cells set by "harmony", and returns the cells it wrote, read inside
// txn. It never writes over a decision (a user-defined cell, pinned at
// run time or decided since), and it skips machine cells whose
// confidence is bit-identical, so an incremental rematch writes — and
// logs — only what changed. Each written cell emits a mapping-cell
// event. It reads each link's cell through Mapping.GetCell: from the
// mapping's cell table when a view left it exact, else from the graph.
// The wbmgr.txn span in txn's context records which.
func (r *Result) Publish(txn *wbmgr.Txn, mp *blackboard.Mapping) ([]blackboard.Cell, error) {
	from := "graph"
	if mp.TableExact() {
		from = "table"
	}
	var written []blackboard.Cell
	for _, l := range r.Links {
		src, tgt := l.Source.ID, l.Target.ID
		c, ok := mp.GetCell(src, tgt)
		if ok && (c.UserDefined || c.SetBy == "harmony" && c.Confidence == l.Confidence) {
			continue
		}
		if err := mp.SetCell(src, tgt, l.Confidence, false, "harmony"); err != nil {
			return nil, err
		}
		txn.Emit(wbmgr.EventMappingCell, fmt.Sprintf("%s|%s|%s", mp.ID, src, tgt))
		c, _ = mp.GetCell(src, tgt)
		written = append(written, c)
	}
	if sp := obs.SpanFromContext(txn.Context()); sp != nil && sp.Recording() {
		sp.SetAttr("publish_read_from", from)
		sp.SetAttr("publish_links", strconv.Itoa(len(r.Links)))
		sp.SetAttr("publish_written", strconv.Itoa(len(written)))
	}
	return written, nil
}

// Sessions is a table of match sessions keyed by mapping ID, all
// building engines with the same options.
type Sessions struct {
	opts Options
	mu   sync.Mutex
	m    map[string]*Session
}

// NewSessions returns an empty table whose sessions use opts.
func NewSessions(opts Options) *Sessions {
	return &Sessions{opts: opts, m: map[string]*Session{}}
}

// For returns the mapping's session, creating it (not its engine) on
// first use.
func (t *Sessions) For(mappingID string) *Session {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.m[mappingID]
	if !ok {
		s = NewSession(t.opts)
		t.m[mappingID] = s
	}
	return s
}
