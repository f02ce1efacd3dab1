package schemaset

import (
	"context"
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
// affected mapping using the plan's diff as the dirty-set hint. Each
// mapping re-matches through its harmony match session, which stays
// alive between applies, so the second and later applies re-match
// incrementally instead of running cold.
type Applier struct {
	BB *blackboard.Blackboard
	// Mgr runs Apply's transactions; ApplyWith's caller brings its own.
	Mgr *wbmgr.Manager
	// Engine configures new match engines. Zero value: flooding on,
	// default voters, process-default metrics.
	Engine harmony.Options
	// Metrics receives the apply counters; nil means obs.Default().
	Metrics *obs.Registry
	// Sessions holds the mappings' match sessions; nil means a private
	// table, built from Engine on first use. The server passes the
	// workspace's table, so apply and the rematch route share engines.
	Sessions *harmony.Sessions
}

// Rematch records one mapping's re-match during an apply.
type Rematch struct {
	Mapping string
	// Mode is how the session resolved: "cold" on the mapping's first
	// match, else the engine's self-classified rematch mode
	// ("pins"/"incremental"/"corpus"/"full").
	Mode string
	// Published counts the re-match's links at or above the threshold,
	// whether or not the publish had to rewrite their cells.
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

func (a *Applier) sessions() *harmony.Sessions {
	if a.Sessions == nil {
		opts := a.Engine
		if opts.Voters == nil && !opts.Flooding {
			opts.Flooding = true
		}
		a.Sessions = harmony.NewSessions(opts)
	}
	return a.Sessions
}

// Plan computes a set's change plan (and counts it). See NewPlan.
func (a *Applier) Plan(set *Set, schemas []*model.Schema, lock *Lockfile) (*Plan, error) {
	reg := a.reg()
	reg.Describe(MetricPlans, "Schema-set change plans computed.")
	reg.Counter(MetricPlans).Inc()
	return NewPlan(a.BB, set, schemas, lock)
}

// EngineFor returns the mapping's live match engine, or nil. Exposed so
// tests and benchmarks can compare apply's matrix against a cold run.
func (a *Applier) EngineFor(mappingID string) *harmony.Engine {
	return a.sessions().For(mappingID).Engine()
}

// Apply executes a plan in the Applier's own Mgr transactions, run as
// the "schemaset" tool, publishing at the server's default threshold
// 0.25. See ApplyWith.
func (a *Applier) Apply(p *Plan) (*Result, error) {
	return a.ApplyWith(context.Background(), p, 0.25, func(fn func(*wbmgr.Txn) error) error {
		return a.Mgr.Do(context.Background(), "schemaset", fn)
	})
}

// ApplyWith executes a plan: every create/update is one PutSchema inside
// a single transaction (all-or-nothing — a fault at the apply.commit
// chaos site rolls every put back), then each mapping touching an
// applied schema is re-matched with the plan's diff as the dirty hint
// and its links at or above threshold re-published, one transaction per
// mapping. inTxn runs each transaction: it begins one, runs fn in it,
// and commits, or aborts on fn's error — the server's takes the
// workspace lock and checks quotas. ctx carries the caller's trace into
// the engine runs. A no-op plan runs zero transactions. On error the
// blackboard is exactly as it was, except that publishes committed
// before a later mapping's failure stay.
func (a *Applier) ApplyWith(ctx context.Context, p *Plan, threshold float64, inTxn func(fn func(*wbmgr.Txn) error) error) (*Result, error) {
	reg := a.reg()
	reg.Describe(MetricTxns, "Schema-set apply transactions, labeled by outcome.")
	res := &Result{}
	if p.NoOp() {
		reg.Counter(MetricTxns, "outcome", "no-op").Inc()
		return res, nil
	}

	changed := map[string]bool{}
	err := inTxn(func(txn *wbmgr.Txn) error {
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
	})
	if err != nil {
		reg.Counter(MetricTxns, "outcome", "rolled-back").Inc()
		return nil, fmt.Errorf("schemaset: apply %s %s: %w", p.Set, p.Version, err)
	}
	res.Txns++
	reg.Counter(MetricTxns, "outcome", "committed").Inc()
	for name := range changed {
		res.Applied = append(res.Applied, name)
	}
	sort.Strings(res.Applied)

	// The engine runs are read-only and can be slow, so they happen
	// outside any transaction; each publish is its own short one.
	for _, id := range a.BB.Mappings() {
		mp, err := a.BB.GetMapping(id)
		if err != nil {
			return res, err
		}
		if !changed[mp.SourceSchema] && !changed[mp.TargetSchema] {
			continue
		}
		start := time.Now()
		dirty := harmony.Dirty{Source: p.DirtyFor(mp.SourceSchema), Target: p.DirtyFor(mp.TargetSchema)}
		run, err := a.sessions().For(id).Rematch(ctx, a.BB, mp, dirty, threshold)
		if err != nil {
			return res, err
		}
		err = inTxn(func(txn *wbmgr.Txn) error {
			_, perr := run.Publish(txn, mp)
			txn.Emit(wbmgr.EventMappingMatrix, id)
			return perr
		})
		if err != nil {
			return res, err
		}
		res.Txns++
		res.Rematches = append(res.Rematches, Rematch{
			Mapping: id, Mode: run.Mode, Published: len(run.Links), Duration: time.Since(start),
		})
	}
	return res, nil
}
