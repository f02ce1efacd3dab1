package harmony

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
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

	// base is what the session's committed publishes left (nil before
	// one, or after one the event log cannot account for). baseMu, not
	// mu, guards it and its map: a publish runs after its run returned,
	// while the next run may hold mu.
	baseMu sync.Mutex
	base   *baseline
}

// baseline is what committed publishes left in their mapping: the
// confidence bits of each link they published, by pair, as of the
// event-log head just after the last one's own events, less the pairs
// events named since. Until an event names one of those cells, each
// still holds its link's score or a decision — and a decision written
// with no event always moves its link (pinned to exactly ±1, or
// dropped below the threshold) — so a later publish whose link carries
// the same bits would leave the cell as it is.
type baseline struct {
	// mgr owns the blackboard the cells live on and the event log head
	// indexes.
	mgr     *wbmgr.Manager
	mapping string
	head    uint64
	conf    map[pairKey]uint64
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

	// sess keeps the publish baseline (nil: every publish reads every
	// link and leaves no baseline).
	sess *Session
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
	return &Result{Mode: mode, Links: s.eng.Matrix().Above(threshold), sess: s}, nil
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
// event.
//
// It reads a link's cell only when the session's publish baseline
// cannot vouch for it: a new link, moved bits, or a mapping-cell event
// naming the pair since the baseline's head. Without a usable baseline
// it reads every link. Once txn commits, the links update the
// baseline; a transaction that rolls back leaves it as it was. The
// transaction must write the mapping's cells only through this one
// Publish, and a mapping's writers must be serialized (the server's
// workspace TxnMu), so a commit's events are in the log before the
// next transaction reads it. The wbmgr.txn span in txn's context records
// what the publish read.
func (r *Result) Publish(txn *wbmgr.Txn, mp *blackboard.Mapping) ([]blackboard.Cell, error) {
	s, mgr := r.sess, txn.Manager()
	var sc scan
	if s != nil {
		// Held across the scan: a commit patches the baseline in place.
		s.baseMu.Lock()
		defer s.baseMu.Unlock()
		sc = s.scanLocked(mgr, mp.ID)
	}
	var vouched map[pairKey]uint64
	if sc.base != nil {
		vouched = sc.base.conf
	}
	var read []int // indexes of the links whose cells were read
	var written []blackboard.Cell
	for i, l := range r.Links {
		k := pairKey{l.Source.ID, l.Target.ID}
		if b, ok := vouched[k]; ok && b == math.Float64bits(l.Confidence) && !sc.named[k] {
			continue
		}
		read = append(read, i)
		c, ok := mp.GetCell(k.src, k.tgt)
		if ok && (c.UserDefined || c.SetBy == "harmony" && c.Confidence == l.Confidence) {
			continue
		}
		if err := mp.SetCell(k.src, k.tgt, l.Confidence, false, "harmony"); err != nil {
			return nil, err
		}
		txn.Emit(wbmgr.EventMappingCell, fmt.Sprintf("%s|%s|%s", mp.ID, k.src, k.tgt))
		c, _ = mp.GetCell(k.src, k.tgt)
		written = append(written, c)
	}
	if s != nil {
		txn.OnCommit(func(evs []wbmgr.Event) { s.advance(mgr, mp.ID, sc, evs, r.Links, read) })
	}
	if sp := obs.SpanFromContext(txn.Context()); sp != nil && sp.Recording() {
		kind := "diff"
		if sc.base == nil {
			kind = "full"
		}
		sp.SetAttr("publish_scan", kind)
		sp.SetAttr("publish_links", strconv.Itoa(len(r.Links)))
		sp.SetAttr("publish_read", strconv.Itoa(len(read)))
		sp.SetAttr("publish_written", strconv.Itoa(len(written)))
	}
	return written, nil
}

// scan is what a publish took from the session's baseline: the
// baseline (nil when unusable: every link is read) and its head as
// read, the pairs mapping-cell events named since, and the event-log
// head.
type scan struct {
	base           *baseline
	baseHead, head uint64
	named          map[pairKey]bool
}

// scanLocked reads the session's baseline for a publish of the mapping
// on mgr's blackboard. The baseline is unusable before a committed
// publish, on another manager or mapping, across an event-log gap, and
// after an event that may change cells without naming them: a
// mapping-matrix event for the mapping from another writer (its
// creation or deletion) or a kind unknown here, such as a replicated
// transaction or a bootstrap. Call it inside the publish transaction,
// holding baseMu.
func (s *Session) scanLocked(mgr *wbmgr.Manager, mapping string) scan {
	base := s.base
	if base == nil || base.mgr != mgr || base.mapping != mapping {
		return scan{head: mgr.EventHead()}
	}
	evs, head, gap, _ := mgr.EventsSince(base.head)
	if gap {
		return scan{head: head}
	}
	sc := scan{base: base, baseHead: base.head, head: head}
	prefix := mapping + "|"
	for _, e := range evs {
		switch e.Kind {
		case wbmgr.EventSchemaGraph, wbmgr.EventMappingVector:
			// Schema triples and transformations: no cell moves.
		case wbmgr.EventMappingMatrix:
			if e.Subject == mapping {
				return scan{head: head}
			}
		case wbmgr.EventMappingCell:
			rest, ok := strings.CutPrefix(e.Subject, prefix)
			if !ok {
				continue
			}
			if sc.named == nil {
				sc.named = map[pairKey]bool{}
			}
			// "src|tgt": an ID holding "|" makes the split ambiguous, so
			// every split is named.
			for i := 0; i < len(rest); i++ {
				if rest[i] == '|' {
					sc.named[pairKey{rest[:i], rest[i+1:]}] = true
				}
			}
		default:
			return scan{head: head}
		}
	}
	return sc
}

// advance folds a committed publish into the session's baseline: the
// pairs named since the baseline's head leave it and the links the
// publish read (links[i] for i in read) enter it with their bits; the
// links it vouched for already hold theirs. A link the publish dropped
// keeps its entry, since its cell keeps the score until an event names
// it. A publish that read every link makes a new baseline. evs are the
// events its transaction committed; they must fill the log right after
// the head sc read: another event among them — published outside any
// transaction, or by a transaction racing this commit — may have moved
// a cell unseen. That, or another publish patching the baseline since
// this one read it, leaves the session with no baseline.
func (s *Session) advance(mgr *wbmgr.Manager, mapping string, sc scan, evs []wbmgr.Event, links []match.Correspondence, read []int) {
	s.baseMu.Lock()
	defer s.baseMu.Unlock()
	n := uint64(len(evs))
	base := sc.base
	switch {
	case n > 0 && evs[n-1].Seq != sc.head+n:
		s.base = nil
		return
	case base == nil:
		base = &baseline{mgr: mgr, mapping: mapping, conf: make(map[pairKey]uint64, len(read))}
		s.base = base
	case s.base != base || base.head != sc.baseHead:
		s.base = nil
		return
	}
	for k := range sc.named {
		delete(base.conf, k)
	}
	for _, i := range read {
		l := links[i]
		base.conf[pairKey{l.Source.ID, l.Target.ID}] = math.Float64bits(l.Confidence)
	}
	base.head = sc.head + n
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
