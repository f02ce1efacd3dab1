// Package sim is a deterministic randomized workload simulator for the
// workbench under fault injection. It drives N concurrent simulated
// tools through seeded sequences of load/match/map/query/txn operations
// with chaos failpoints armed at every site, then checks five
// system-wide invariants:
//
//  1. transaction atomicity — an aborted or fault-failed transaction
//     leaves the blackboard graph bit-identical to its pre-transaction
//     triple set;
//  2. revision monotonicity — the blackboard revision counter never
//     decreases, even across rollbacks;
//  3. event-log/graph consistency — exactly the events of committed
//     transactions appear in the manager's event log, and no event from
//     an aborted transaction does;
//  4. structural integrity — no orphan cell/row/column triples survive
//     (blackboard.CheckIntegrity);
//  5. no lost subscriber tokens — every live subscription still receives
//     events after the storm, and no unsubscribed token does.
//
// A failed run reports the seed and armed site list so the exact fault
// schedule can be replayed: `workbench sim -chaos-seed S -chaos-sites L`.
// The simulator is designed to run under -race: reads, queries and
// subscription churn proceed concurrently with the writing transaction.
package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/blackboard"
	"repro/internal/chaos"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/wbmgr"
)

// DefaultSpec arms every registered site with error faults and layers
// panic faults on the paths that exercise recovery. Later entries
// override earlier ones per site.
const DefaultSpec = "all=error:0.3," +
	"blackboard.setcell=panic:0.15," +
	"wbmgr.commit=panic:0.1," +
	"wbmgr.publish=panic:0.3"

// Config parameterizes one simulation run.
type Config struct {
	// Seed drives every random stream (workload and fault triggers).
	Seed int64
	// Tools is the number of concurrent simulated tools (default 4).
	Tools int
	// Ops is the operation count per tool (default 40).
	Ops int
	// Spec is the chaos site spec (ParseSpec syntax; default DefaultSpec).
	Spec string
	// Registry collects metrics for the run (default: a fresh registry,
	// so a chaotic run never pollutes the process-global one).
	Registry *obs.Registry
}

// Report is the outcome of one simulation run.
type Report struct {
	Seed  int64
	Spec  string
	Sites []chaos.Site

	Ops           int // operations attempted across all tools
	Commits       int // transactions committed
	Aborts        int // transactions aborted voluntarily or on op error
	CommitFaults  int // commits failed by an injected fault (rolled back)
	BeginFailures int // Begin calls refused (injected or contention)
	Panics        int // injected panics recovered by tools
	Faults        int // total faults injected (chaos_faults_total)

	Violations []string
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// String renders the report; on failure it includes the replay recipe.
func (r *Report) String() string {
	var b strings.Builder
	status := "PASS"
	if r.Failed() {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "chaos-sim %s seed=%d sites=%s\n", status, r.Seed, joinSites(r.Sites))
	fmt.Fprintf(&b, "  ops=%d commits=%d aborts=%d commit-faults=%d begin-failures=%d panics=%d faults=%d\n",
		r.Ops, r.Commits, r.Aborts, r.CommitFaults, r.BeginFailures, r.Panics, r.Faults)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  violation: %s\n", v)
	}
	if r.Failed() {
		fmt.Fprintf(&b, "  replay: workbench sim -chaos-seed %d -chaos-sites %q\n", r.Seed, r.Spec)
	}
	return b.String()
}

func joinSites(sites []chaos.Site) string {
	parts := make([]string, len(sites))
	for i, s := range sites {
		parts[i] = string(s)
	}
	return strings.Join(parts, ",")
}

// runMu serializes simulation runs: the chaos framework's armed sites
// are process-global state.
var runMu sync.Mutex

// subRecord tracks one subscription token for the lost-token invariant.
type subRecord struct {
	token int
	kind  wbmgr.EventKind
	live  bool
	seen  *atomic.Int64
}

// worker is one simulated tool.
type worker struct {
	idx  int
	name string
	rng  *rand.Rand
	m    *wbmgr.Manager
	bb   *blackboard.Blackboard

	txnMu *sync.Mutex // serializes writer lifecycles so atomicity checks are exact

	seq     int
	lastRev int

	committed []string // event keys of committed transactions
	aborted   []string // event keys of rolled-back transactions
	pending   []string // event keys emitted by the op in flight

	subs []*subRecord

	commits, aborts, commitFaults, beginFailures, panics, ops int

	violations []string
}

// Run executes one simulation and returns its report. Runs are
// serialized process-wide (chaos sites are global); the workload itself
// is concurrent.
func Run(cfg Config) *Report {
	runMu.Lock()
	defer runMu.Unlock()

	if cfg.Tools <= 0 {
		cfg.Tools = 4
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 40
	}
	if cfg.Spec == "" {
		cfg.Spec = DefaultSpec
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}

	chaos.Reset()
	defer chaos.Reset()
	chaos.SetMetrics(reg)
	defer chaos.SetMetrics(nil)

	m := wbmgr.New()
	m.SetMetrics(reg)
	m.Blackboard().SetMetrics(reg)
	m.SetEventLogCapacity(cfg.Tools*cfg.Ops*6 + 64)

	// Seed the board with shared base schemata before any site is armed,
	// so every worker has guaranteed mapping endpoints.
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < baseSchemas; i++ {
		txn, err := m.Begin("seed")
		if err != nil {
			panic(fmt.Sprintf("sim: seeding begin: %v", err))
		}
		if _, err := m.Blackboard().PutSchema(synthSchema(baseName(i), seedRng)); err != nil {
			panic(fmt.Sprintf("sim: seeding put: %v", err))
		}
		if err := txn.Commit(); err != nil {
			panic(fmt.Sprintf("sim: seeding commit: %v", err))
		}
	}

	rules, err := chaos.ParseSpec(cfg.Spec)
	if err != nil {
		return &Report{Seed: cfg.Seed, Spec: cfg.Spec,
			Violations: []string{fmt.Sprintf("bad chaos spec: %v", err)}}
	}
	armedSites := chaos.Apply(cfg.Seed, rules)

	rep := &Report{Seed: cfg.Seed, Spec: cfg.Spec, Sites: armedSites}

	var txnMu sync.Mutex
	workers := make([]*worker, cfg.Tools)
	var wg sync.WaitGroup
	for i := range workers {
		workers[i] = &worker{
			idx:   i,
			name:  fmt.Sprintf("tool%d", i),
			rng:   rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(i) + 1)),
			m:     m,
			bb:    m.Blackboard(),
			txnMu: &txnMu,
		}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for k := 0; k < cfg.Ops; k++ {
				w.step()
			}
		}(workers[i])
	}
	wg.Wait()

	// The storm is over: disarm before probing and checking so the
	// checks themselves cannot be fault-injected.
	chaos.Reset()

	for _, w := range workers {
		rep.Ops += w.ops
		rep.Commits += w.commits
		rep.Aborts += w.aborts
		rep.CommitFaults += w.commitFaults
		rep.BeginFailures += w.beginFailures
		rep.Panics += w.panics
		rep.Violations = append(rep.Violations, w.violations...)
	}
	if fam, ok := reg.Find(chaos.MetricFaults); ok {
		for _, s := range fam.Series {
			rep.Faults += int(s.Value)
		}
	}

	checkEventLog(m, workers, rep)
	checkSubscribers(m, workers, rep)
	for _, err := range m.Blackboard().CheckIntegrity() {
		rep.Violations = append(rep.Violations, fmt.Sprintf("integrity: %v", err))
	}
	return rep
}

const baseSchemas = 3

func baseName(i int) string { return fmt.Sprintf("base%d", i) }

// synthSchema builds a small synthetic schema: one entity with a few
// attributes.
func synthSchema(name string, rng *rand.Rand) *model.Schema {
	s := model.NewSchema(name, "synthetic")
	ent := s.AddElement(nil, "entity", model.KindEntity, model.ContainsTable)
	n := 2 + rng.Intn(3)
	for i := 0; i < n; i++ {
		s.AddElement(ent, fmt.Sprintf("attr%d", i), model.KindAttribute, model.ContainsAttribute)
	}
	return s
}

// step runs one randomly chosen operation and samples the revision
// counter for the monotonicity invariant.
func (w *worker) step() {
	w.ops++
	w.seq++
	switch p := w.rng.Intn(100); {
	case p < 55:
		w.txnOp()
	case p < 65:
		w.bareBegin()
	case p < 85:
		w.readOp()
	default:
		w.subOp()
	}
	w.observeRevision()
}

// observeRevision checks invariant 2 from this worker's viewpoint: the
// revision counter it reads never goes backwards.
func (w *worker) observeRevision() {
	rev := w.bb.Revision()
	if rev < w.lastRev {
		w.violations = append(w.violations,
			fmt.Sprintf("revision went backwards: %d after %d (tool %s)", rev, w.lastRev, w.name))
	}
	w.lastRev = rev
}

// bareBegin exercises Begin contention without holding the writer lock:
// a successful bare transaction is aborted immediately, untouched.
func (w *worker) bareBegin() {
	defer func() {
		if r := recover(); r != nil {
			if _, injected := r.(*chaos.Fault); !injected {
				panic(r)
			}
			w.panics++
		}
	}()
	txn, err := w.m.Begin(w.name)
	if err != nil {
		w.beginFailures++
		return
	}
	_ = txn.Abort()
	w.aborts++
}

// txnOp runs one transactional mutation under the writer lock. The lock
// spans Begin through the atomicity check so that no other writer can
// mutate between rollback and comparison; readers and subscribers stay
// unlocked and concurrent.
func (w *worker) txnOp() {
	w.txnMu.Lock()
	defer w.txnMu.Unlock()
	w.pending = w.pending[:0]

	var txn *wbmgr.Txn
	var snap *rdf.Graph
	defer func() {
		if r := recover(); r != nil {
			if _, injected := r.(*chaos.Fault); !injected {
				panic(r) // a real bug — surface it loudly
			}
			w.panics++
			if txn == nil {
				return // Begin itself panicked; nothing to clean up
			}
			// An injected panic escaped the op body or Commit. Abort is
			// fault-tolerant; if the commit fault already rolled back,
			// it reports "finished" and the state is already restored.
			_ = txn.Abort()
			w.abortedTxn(snap)
		}
	}()

	t, err := w.m.Begin(w.name)
	if err != nil {
		w.beginFailures++
		return
	}
	txn = t
	// Only this goroutine can mutate until the txn closes, so this clone
	// is exactly the pre-transaction triple set.
	snap = w.bb.Graph().Clone()

	err = w.mutate(txn)
	if err == nil && w.rng.Intn(100) < 75 {
		if cerr := txn.Commit(); cerr != nil {
			w.commitFaults++
			w.abortedTxn(snap)
			return
		}
		w.commits++
		w.committed = append(w.committed, w.pending...)
		return
	}
	_ = txn.Abort()
	w.abortedTxn(snap)
}

// abortedTxn records the rolled-back transaction's events and checks
// invariant 1: the graph must be bit-identical to the pre-txn snapshot.
func (w *worker) abortedTxn(snap *rdf.Graph) {
	w.aborts++
	w.aborted = append(w.aborted, w.pending...)
	g := w.bb.Graph()
	if rdf.Equal(snap, g) {
		return
	}
	added, removed := g.Diff(snap)
	w.violations = append(w.violations, fmt.Sprintf(
		"atomicity: rolled-back txn left residue (tool %s op %d): +%d/-%d triples, e.g. %s",
		w.name, w.seq, len(added), len(removed), residueSample(added, removed)))
}

func residueSample(added, removed []rdf.Triple) string {
	var parts []string
	for i, t := range added {
		if i == 2 {
			break
		}
		parts = append(parts, "+"+t.String())
	}
	for i, t := range removed {
		if i == 2 {
			break
		}
		parts = append(parts, "-"+t.String())
	}
	return strings.Join(parts, " ")
}

// emit queues an event on the transaction and remembers its key. The
// subject carries a unique op tag so the event-log invariant can match
// log entries to committed transactions exactly.
func (w *worker) emit(txn *wbmgr.Txn, kind wbmgr.EventKind, subject string) {
	tagged := fmt.Sprintf("%s#op%d.%d.%d", subject, w.idx, w.seq, len(w.pending))
	txn.Emit(kind, tagged)
	w.pending = append(w.pending, eventKey(wbmgr.Event{Kind: kind, Tool: w.name, Subject: tagged}))
}

func eventKey(e wbmgr.Event) string {
	return string(e.Kind) + "|" + e.Tool + "|" + e.Subject
}

// mutate performs one randomly chosen multi-triple write inside txn.
// Errors (most of them injected) make the caller abort.
func (w *worker) mutate(txn *wbmgr.Txn) error {
	bb := w.bb
	switch p := w.rng.Intn(100); {
	case p < 30: // re-put a shared schema (exercises archival/versioning)
		name := baseName(w.rng.Intn(baseSchemas))
		if _, err := bb.PutSchema(synthSchema(name, w.rng)); err != nil {
			return err
		}
		w.emit(txn, wbmgr.EventSchemaGraph, name)
		return nil
	case p < 45: // create a mapping between base schemata
		id := fmt.Sprintf("m%d-%d", w.idx, w.seq)
		src := baseName(w.rng.Intn(baseSchemas))
		tgt := baseName(w.rng.Intn(baseSchemas))
		if _, err := bb.NewMapping(id, src, tgt); err != nil {
			return err
		}
		w.emit(txn, wbmgr.EventMappingMatrix, id)
		return nil
	case p < 75: // score some cells in an existing mapping
		mp, err := w.pickMapping()
		if err != nil {
			return err
		}
		n := 1 + w.rng.Intn(3)
		for i := 0; i < n; i++ {
			src := fmt.Sprintf("entity/attr%d", w.rng.Intn(4))
			tgt := fmt.Sprintf("entity/attr%d", w.rng.Intn(4))
			conf := w.rng.Float64()*2 - 1
			if err := mp.SetCell(src, tgt, conf, w.rng.Intn(4) == 0, w.name); err != nil {
				return err
			}
			w.emit(txn, wbmgr.EventMappingCell, fmt.Sprintf("%s|%s|%s", mp.ID, src, tgt))
		}
		return nil
	case p < 88: // annotate rows/columns
		mp, err := w.pickMapping()
		if err != nil {
			return err
		}
		id := fmt.Sprintf("entity/attr%d", w.rng.Intn(4))
		mp.SetRowVariable(id, "$"+id)
		mp.SetColumnCode(id, "out = $"+id, w.name)
		w.emit(txn, wbmgr.EventMappingVector, mp.ID+"|"+id)
		return nil
	default: // delete a mapping
		ids := bb.Mappings()
		if len(ids) == 0 {
			return nil
		}
		id := ids[w.rng.Intn(len(ids))]
		if err := bb.DeleteMapping(id); err != nil {
			return err
		}
		w.emit(txn, wbmgr.EventMappingMatrix, id)
		return nil
	}
}

// pickMapping opens a random existing mapping, or creates a private one
// when the library is empty.
func (w *worker) pickMapping() (*blackboard.Mapping, error) {
	ids := w.bb.Mappings()
	if len(ids) == 0 {
		return w.bb.NewMapping(fmt.Sprintf("m%d-%d", w.idx, w.seq),
			baseName(0), baseName(1))
	}
	return w.bb.GetMapping(ids[w.rng.Intn(len(ids))])
}

// readOp exercises the concurrent read paths: schema reconstruction,
// mapping scans, and ad hoc queries, all without the writer lock.
func (w *worker) readOp() {
	bb := w.bb
	switch w.rng.Intn(4) {
	case 0:
		_, _ = bb.GetSchema(baseName(w.rng.Intn(baseSchemas)))
	case 1:
		for _, id := range bb.Mappings() {
			if mp, err := bb.GetMapping(id); err == nil {
				_ = mp.Cells()
				break
			}
		}
	case 2:
		_, _ = w.m.Query("?s <"+rdf.RDFType.Value()+"> ?t", "s", "t")
	default:
		_ = bb.Schemas()
	}
}

// subOp churns subscriptions: subscribe with a counting handler, or drop
// a random live token. The records feed the lost-token invariant.
func (w *worker) subOp() {
	kinds := []wbmgr.EventKind{
		wbmgr.EventSchemaGraph, wbmgr.EventMappingCell,
		wbmgr.EventMappingVector, wbmgr.EventMappingMatrix,
	}
	var live []*subRecord
	for _, r := range w.subs {
		if r.live {
			live = append(live, r)
		}
	}
	if len(live) > 0 && w.rng.Intn(2) == 0 {
		r := live[w.rng.Intn(len(live))]
		w.m.Unsubscribe(r.token)
		r.live = false
		return
	}
	seen := &atomic.Int64{}
	kind := kinds[w.rng.Intn(len(kinds))]
	token := w.m.Subscribe(kind, w.name, func(wbmgr.Event) { seen.Add(1) })
	w.subs = append(w.subs, &subRecord{token: token, kind: kind, live: true, seen: seen})
}

// checkEventLog verifies invariant 3: the manager's log holds exactly
// the events of committed transactions (each once) and none from
// aborted ones. Skipped if the ring buffer dropped entries.
func checkEventLog(m *wbmgr.Manager, workers []*worker, rep *Report) {
	logged := map[string]int{}
	for _, e := range m.EventLog() {
		if e.Tool == "prober" || e.Tool == "seed" {
			continue
		}
		logged[eventKey(e)]++
	}
	for _, w := range workers {
		for _, key := range w.committed {
			switch n := logged[key]; n {
			case 1:
				delete(logged, key)
			case 0:
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("event-log: committed event missing from log: %s", key))
			default:
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("event-log: committed event logged %d times: %s", n, key))
				delete(logged, key)
			}
		}
		for _, key := range w.aborted {
			if logged[key] > 0 {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("event-log: aborted txn's event reached the log: %s", key))
			}
		}
	}
	for key := range logged {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("event-log: logged event from no committed txn: %s", key))
	}
}

// checkSubscribers verifies invariant 5: with chaos disarmed, a probe
// transaction emitting one event of every kind must reach every live
// token exactly once and no unsubscribed token at all.
func checkSubscribers(m *wbmgr.Manager, workers []*worker, rep *Report) {
	before := map[*subRecord]int64{}
	for _, w := range workers {
		for _, r := range w.subs {
			before[r] = r.seen.Load()
		}
	}
	txn, err := m.Begin("prober")
	if err != nil {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("subscriber probe: begin failed: %v", err))
		return
	}
	for _, kind := range []wbmgr.EventKind{
		wbmgr.EventSchemaGraph, wbmgr.EventMappingCell,
		wbmgr.EventMappingVector, wbmgr.EventMappingMatrix,
	} {
		txn.Emit(kind, "probe|"+string(kind))
	}
	if err := txn.Commit(); err != nil {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("subscriber probe: commit failed: %v", err))
		return
	}
	for _, w := range workers {
		for _, r := range w.subs {
			delta := r.seen.Load() - before[r]
			switch {
			case r.live && delta != 1:
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"subscriber: live token %d (%s, %s) saw %d probe events, want 1",
					r.token, w.name, r.kind, delta))
			case !r.live && delta != 0:
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"subscriber: dead token %d (%s, %s) saw %d probe events, want 0",
					r.token, w.name, r.kind, delta))
			}
		}
	}
}
