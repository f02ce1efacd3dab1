package schemaset

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/blackboard"
	"repro/internal/chaos"
	"repro/internal/harmony"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/wbmgr"
)

// SiteApplyCommit is the chaos failpoint inside apply's schema-put
// transaction, hit after every PutSchema and just before the commit. An
// injected fault there aborts the transaction, so the rdf undo log must
// roll every schema put back — the differential suite asserts the graph
// is rdf.Equal to its pre-apply state, proving the plan is
// all-or-nothing.
const SiteApplyCommit chaos.Site = "apply.commit"

func init() {
	chaos.RegisterSite(SiteApplyCommit, "schemaset apply: before committing the schema-put transaction")
}

// Metric names emitted by plan/apply (also incremented by the server's
// apply route, on its workspace-labeled registry).
const (
	// MetricPlans counts computed change plans (plan, dry-run, and the
	// plan phase of every apply).
	MetricPlans = "apply_plans_total"
	// MetricTxns counts apply outcomes, labeled outcome="committed",
	// "rolled-back" or "no-op".
	MetricTxns = "apply_txns_total"
)

// Applier executes change plans against one blackboard: schema puts as
// a single wbmgr transaction, then an incremental re-match of every
// affected mapping using the plan's diff as the dirty-set hint. The
// Applier keeps each mapping's match engine alive between applies (a
// match session, like the server's), so the second and later applies
// re-match incrementally instead of running cold.
type Applier struct {
	BB  *blackboard.Blackboard
	Mgr *wbmgr.Manager
	// Tool is the provenance name transactions carry (default
	// "schemaset").
	Tool string
	// Threshold gates which correspondences publish as cells (default
	// 0.25, the server's).
	Threshold float64
	// Engine configures new match engines. Zero value: flooding on,
	// default voters, process-default metrics.
	Engine harmony.Options
	// Metrics receives the apply counters; nil means obs.Default().
	Metrics *obs.Registry

	engines map[string]*harmony.Engine
}

// Rematch records one mapping's re-match during an apply.
type Rematch struct {
	Mapping string
	// Mode is how the engine resolved: "cold" on a mapping's first
	// match in this Applier, else the engine's self-classified rematch
	// mode ("pins"/"incremental"/"corpus"/"full").
	Mode string
	// Published counts cells actually written: links at or above the
	// threshold that are new or whose confidence changed.
	Published int
	// Duration is the wall-clock cost of this re-match: pin sync, the
	// engine run, and the publish transaction — everything the version
	// bump spends on the mapping beyond the schema-put transaction.
	Duration time.Duration
}

// Result reports what an apply did.
type Result struct {
	// Txns counts committed transactions: one for the schema puts plus
	// one per re-matched mapping's publish. Zero for a no-op plan.
	Txns int
	// Applied names the schemas created or updated, sorted.
	Applied []string
	// Rematches lists the affected mappings' re-match outcomes, in
	// mapping-ID order.
	Rematches []Rematch
}

func (a *Applier) reg() *obs.Registry {
	if a.Metrics != nil {
		return a.Metrics
	}
	return obs.Default()
}

func (a *Applier) tool() string {
	if a.Tool != "" {
		return a.Tool
	}
	return "schemaset"
}

func (a *Applier) threshold() float64 {
	if a.Threshold != 0 {
		return a.Threshold
	}
	return 0.25
}

// Plan computes a set's change plan (and counts it). See NewPlan.
func (a *Applier) Plan(set *Set, schemas []*model.Schema, lock *Lockfile) (*Plan, error) {
	reg := a.reg()
	reg.Describe(MetricPlans, "Schema-set change plans computed.")
	reg.Counter(MetricPlans).Inc()
	return NewPlan(a.BB, set, schemas, lock)
}

// EngineFor returns the mapping's live match session, or nil. Exposed so
// tests and benchmarks can compare apply's matrix against a cold run.
func (a *Applier) EngineFor(mappingID string) *harmony.Engine {
	return a.engines[mappingID]
}

// Apply executes a plan: every create/update is one PutSchema inside a
// single wbmgr transaction (all-or-nothing — a fault at the
// apply.commit chaos site rolls every put back), then each mapping
// touching an applied schema is re-matched with the plan's diff as the
// dirty hint and its links re-published. A no-op plan runs zero
// transactions. On error the blackboard is exactly as it was, except
// that publishes already committed before a later mapping's failure
// stay (each publish is its own transaction, like the server's).
func (a *Applier) Apply(p *Plan) (*Result, error) {
	reg := a.reg()
	reg.Describe(MetricTxns, "Schema-set apply transactions, labeled by outcome.")
	res := &Result{}
	if p.NoOp() {
		reg.Counter(MetricTxns, "outcome", "no-op").Inc()
		return res, nil
	}

	changed := map[string]bool{}
	txn, err := a.Mgr.Begin(a.tool())
	if err != nil {
		reg.Counter(MetricTxns, "outcome", "rolled-back").Inc()
		return nil, err
	}
	err = func() error {
		for i := range p.Schemas {
			sp := &p.Schemas[i]
			if sp.Action == ActionNoop {
				continue
			}
			if _, perr := a.BB.PutSchema(sp.Schema); perr != nil {
				return perr
			}
			txn.Emit(wbmgr.EventSchemaGraph, sp.Name)
			changed[sp.Name] = true
		}
		return chaos.Inject(SiteApplyCommit)
	}()
	if err != nil {
		txn.Abort()
		reg.Counter(MetricTxns, "outcome", "rolled-back").Inc()
		return nil, fmt.Errorf("schemaset: apply %s %s: %w", p.Set, p.Version, err)
	}
	if err := txn.Commit(); err != nil {
		reg.Counter(MetricTxns, "outcome", "rolled-back").Inc()
		return nil, fmt.Errorf("schemaset: apply %s %s: %w", p.Set, p.Version, err)
	}
	res.Txns++
	reg.Counter(MetricTxns, "outcome", "committed").Inc()
	for name := range changed {
		res.Applied = append(res.Applied, name)
	}
	sort.Strings(res.Applied)

	// Re-match affected mappings. The engine runs are read-only and can
	// be slow, so they happen outside any transaction; each publish is
	// its own short transaction, mirroring the server.
	ids := a.BB.Mappings()
	sort.Strings(ids)
	for _, id := range ids {
		mp, merr := a.BB.GetMapping(id)
		if merr != nil {
			return res, merr
		}
		if !changed[mp.SourceSchema] && !changed[mp.TargetSchema] {
			continue
		}
		rm, rerr := a.rematch(p, id, mp)
		if rerr != nil {
			return res, rerr
		}
		res.Txns++
		res.Rematches = append(res.Rematches, rm)
	}
	return res, nil
}

func (a *Applier) rematch(p *Plan, id string, mp *blackboard.Mapping) (Rematch, error) {
	start := time.Now()
	src, err := a.BB.GetSchema(mp.SourceSchema)
	if err != nil {
		return Rematch{}, err
	}
	tgt, err := a.BB.GetSchema(mp.TargetSchema)
	if err != nil {
		return Rematch{}, err
	}
	dirty := harmony.Dirty{Source: p.DirtyFor(mp.SourceSchema), Target: p.DirtyFor(mp.TargetSchema)}
	eng := a.engines[id]
	var mode string
	if eng == nil {
		opts := a.Engine
		if opts.Voters == nil && !opts.Flooding {
			opts.Flooding = true
		}
		eng = harmony.NewEngine(src, tgt, opts)
		syncPins(eng, mp)
		eng.Run()
		mode = harmony.RematchCold
		if a.engines == nil {
			a.engines = map[string]*harmony.Engine{}
		}
		a.engines[id] = eng
	} else {
		failed := syncPins(eng, mp)
		eng.RematchWith(src, tgt, dirty)
		retryPins(eng, failed)
		mode = eng.LastRematchMode()
	}

	links := eng.Matrix().Above(a.threshold())
	pinned := eng.Decisions()
	txn, err := a.Mgr.Begin(a.tool())
	if err != nil {
		return Rematch{}, err
	}
	published := 0
	err = func() error {
		for _, l := range links {
			if _, ok := pinned[[2]string{l.Source.ID, l.Target.ID}]; ok {
				continue
			}
			// An incremental rematch leaves most scores untouched; skipping
			// the bit-identical cells keeps publish proportional to the
			// change, not the matrix.
			if c, ok := mp.GetCell(l.Source.ID, l.Target.ID); ok &&
				!c.UserDefined && c.SetBy == "harmony" && c.Confidence == l.Confidence {
				continue
			}
			if cerr := mp.SetCell(l.Source.ID, l.Target.ID, l.Confidence, false, "harmony"); cerr != nil {
				return cerr
			}
			txn.Emit(wbmgr.EventMappingCell, fmt.Sprintf("%s|%s|%s", id, l.Source.ID, l.Target.ID))
			published++
		}
		txn.Emit(wbmgr.EventMappingMatrix, id)
		return nil
	}()
	if err != nil {
		txn.Abort()
		return Rematch{}, err
	}
	if err := txn.Commit(); err != nil {
		return Rematch{}, err
	}
	return Rematch{Mapping: id, Mode: mode, Published: published, Duration: time.Since(start)}, nil
}

// syncPins replays the mapping's user-defined cells onto the engine as
// pins and removes engine pins the mapping no longer carries — the
// analyst's decisions live on the blackboard, the engine only mirrors
// them. Pins whose elements the engine's current schemas don't know are
// returned for a retry after a rematch swaps the schemas in.
func syncPins(eng *harmony.Engine, mp *blackboard.Mapping) [][3]string {
	desired := map[[2]string]bool{}
	for _, c := range mp.UserCells() {
		desired[[2]string{c.SourceID, c.TargetID}] = c.Confidence > 0
	}
	for pair := range eng.Decisions() {
		if _, ok := desired[pair]; !ok {
			eng.Unpin(pair[0], pair[1])
		}
	}
	var failed [][3]string
	for pair, accepted := range desired {
		verdict := "reject"
		var err error
		if accepted {
			verdict = "accept"
			err = eng.Accept(pair[0], pair[1])
		} else {
			err = eng.Reject(pair[0], pair[1])
		}
		if err != nil {
			failed = append(failed, [3]string{pair[0], pair[1], verdict})
		}
	}
	return failed
}

// retryPins re-applies pins that failed before a rematch replaced the
// engine's schemas; ones that still fail reference elements absent from
// both versions and are dropped.
func retryPins(eng *harmony.Engine, failed [][3]string) {
	for _, f := range failed {
		if f[2] == "accept" {
			_ = eng.Accept(f[0], f[1])
		} else {
			_ = eng.Reject(f[0], f[1])
		}
	}
}
