// Package loadgen is the workbench's sustained-load telemetry harness:
// N concurrent clients drive seeded load/match/rematch/decide mixes
// against a live workbench service and the harness reports per-route
// latency percentiles (p50/p95/p99), throughput, and the success ratio.
// It reuses the chaos simulator's workload model — the same seeded
// per-worker PRNGs and base0..baseN synthetic schemata
// (sim.SynthSchemaSQL) — but speaks the HTTP API through
// internal/client, so every request carries a trace header and the
// server's /debug/traces shows exactly what a slow percentile was
// doing. ROADMAP item 5's "sustained concurrent load" numbers
// (BENCH_6.json) come from here.
package loadgen

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos/sim"
	"repro/internal/client"
	"repro/internal/server"
)

// Config parameterizes one load run.
type Config struct {
	// Addr is the service address ("host:port" or full URL).
	Addr string
	// ReadAddr, when set, switches the run to replica-read mode: the
	// seeding phase still writes through Addr (the primary), the harness
	// waits for the replica at ReadAddr to replicate the seeded state,
	// and the timed phase is a read-only mix (cells, mappings, schemas,
	// events) served entirely by the replica. The report's Benchmark is
	// "loadgen-replica-read".
	ReadAddr string
	// Workers is the number of concurrent clients (default 4).
	Workers int
	// Duration is how long the mixed phase runs (default 5s).
	Duration time.Duration
	// Seed drives every worker's operation stream (default 1).
	Seed int64
	// Threshold forwards to match/rematch (default server.DefaultThreshold).
	Threshold float64
	// Workspaces > 1 switches the run to multi-tenant mode: the harness
	// first drives a decide-heavy write mix with every worker in the
	// default workspace, then creates Workspaces fresh tenants, spreads
	// the same workers across them, and repeats the identical mix. The
	// report's Benchmark is "loadgen-multitenant" and its
	// throughput_ratio column is the N-workspace/1-workspace aggregate
	// txns-per-sec ratio — the headline number for per-workspace
	// transaction serialization (one TxnMu and WAL fsync path per
	// tenant instead of one per process).
	Workspaces int
}

// RouteStats aggregates one route's latency distribution.
type RouteStats struct {
	Route string  `json:"route"`
	Count int     `json:"count"`
	P50ms float64 `json:"p50_ms"`
	P95ms float64 `json:"p95_ms"`
	P99ms float64 `json:"p99_ms"`
}

// Report is the outcome of one load run. OKRatio is the only
// machine-independent column — benchdiff gates it; the latency and
// throughput numbers are context for the host that produced them.
type Report struct {
	Benchmark string  `json:"benchmark"` // "loadgen-sustained", "loadgen-replica-read" or "loadgen-multitenant"
	Workers   int     `json:"workers"`
	DurationS float64 `json:"duration_s"`
	Seed      int64   `json:"seed"`

	Requests   int          `json:"requests"`
	Errors     int          `json:"errors"`
	OKRatio    float64      `json:"ok_ratio"`
	TxnsPerSec float64      `json:"txns_per_sec"`
	Routes     []RouteStats `json:"routes"`

	// Multi-tenant mode only: the aggregate write throughput with every
	// worker in one workspace, the same workers spread over Workspaces
	// tenants, and their ratio (dimensionless, so benchdiff can report
	// it across hosts).
	Workspaces      int     `json:"workspaces,omitempty"`
	TxnsPerSec1WS   float64 `json:"txns_per_sec_1ws,omitempty"`
	TxnsPerSecNWS   float64 `json:"txns_per_sec_nws,omitempty"`
	ThroughputRatio float64 `json:"throughput_ratio,omitempty"`
}

// String renders the human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadgen workers=%d duration=%.1fs seed=%d\n", r.Workers, r.DurationS, r.Seed)
	fmt.Fprintf(&b, "  requests=%d errors=%d ok=%.4f txns/sec=%.1f\n",
		r.Requests, r.Errors, r.OKRatio, r.TxnsPerSec)
	if r.Workspaces > 1 {
		fmt.Fprintf(&b, "  1 workspace: %.1f txns/sec; %d workspaces: %.1f txns/sec (×%.2f)\n",
			r.TxnsPerSec1WS, r.Workspaces, r.TxnsPerSecNWS, r.ThroughputRatio)
	}
	for _, rt := range r.Routes {
		fmt.Fprintf(&b, "  %-16s n=%-6d p50=%8.2fms p95=%8.2fms p99=%8.2fms\n",
			rt.Route, rt.Count, rt.P50ms, rt.P95ms, rt.P99ms)
	}
	return b.String()
}

// WriteJSON renders the BENCH_6.json form.
func (r *Report) WriteJSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// sample is one timed request.
type sample struct {
	route string
	d     time.Duration
	ok    bool
}

// worker is one concurrent simulated analyst.
type worker struct {
	idx     int
	rng     *rand.Rand
	cl      *client.Client
	mapping string
	thresh  float64

	// rd is the replica-side client in replica-read mode (nil otherwise);
	// the timed read mix goes through it instead of cl.
	rd *client.Client
	// evCursor is the worker's replica event-feed cursor (replica-read mode).
	evCursor uint64

	// decideHeavy switches step() to the multi-tenant contrast mix:
	// almost all decides, so per-request cost is dominated by the
	// serialized commit path the benchmark is measuring.
	decideHeavy bool

	// cells is the pool decide ops draw from: one cell per pair any
	// response carried, its latest copy; at indexes it by pair.
	cells   []server.CellInfo
	at      map[[2]string]int
	samples []sample
}

// merge folds cells into the decide pool by pair. A match or rematch
// response carries only the cells its publish wrote, so replacing the
// pool with it would leave decides nothing to draw from after a rematch
// that wrote nothing.
func (w *worker) merge(cells []server.CellInfo) {
	if w.at == nil {
		w.at = map[[2]string]int{}
	}
	for _, c := range cells {
		k := [2]string{c.Source, c.Target}
		if i, ok := w.at[k]; ok {
			w.cells[i] = c
			continue
		}
		w.at[k] = len(w.cells)
		w.cells = append(w.cells, c)
	}
}

// Run executes one load run against the service at cfg.Addr. The run is
// two phases: a seeding phase (load base schemata, create one mapping
// per worker, cold match) whose requests are not sampled, then the
// timed mixed phase.
func Run(cfg Config) (*Report, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = server.DefaultThreshold
	}
	if cfg.Workspaces > 1 {
		return runMultitenant(cfg)
	}

	// Seeding phase: shared base schemata, then one mapping per worker
	// over a seeded random pair (the sim's workload shape).
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	seedCl := client.New(cfg.Addr)
	if _, err := seedCl.OpenSession("loadgen-seed"); err != nil {
		return nil, fmt.Errorf("loadgen: open seed session: %w", err)
	}
	for i := 0; i < sim.BaseSchemas; i++ {
		name := sim.BaseSchemaName(i)
		if _, err := seedCl.LoadSchema(name, "sql", sim.SynthSchemaSQL(seedRng)); err != nil {
			return nil, fmt.Errorf("loadgen: seed schema %s: %w", name, err)
		}
	}
	workers := make([]*worker, cfg.Workers)
	for i := range workers {
		w := &worker{
			idx: i,
			// The sim's per-worker seeding discipline: independent streams,
			// reproducible per (seed, worker).
			rng:    rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(i) + 1)),
			cl:     client.New(cfg.Addr),
			thresh: cfg.Threshold,
		}
		if _, err := w.cl.OpenSession(fmt.Sprintf("loadgen-%d", i)); err != nil {
			return nil, fmt.Errorf("loadgen: open session %d: %w", i, err)
		}
		w.mapping = fmt.Sprintf("lg%d", i)
		src := sim.BaseSchemaName(w.rng.Intn(sim.BaseSchemas))
		tgt := sim.BaseSchemaName(w.rng.Intn(sim.BaseSchemas))
		if _, err := w.cl.NewMapping(w.mapping, src, tgt); err != nil {
			// A previous run against the same server already owns this
			// mapping id; reuse it so back-to-back runs work.
			if !strings.Contains(err.Error(), "already exists") {
				return nil, fmt.Errorf("loadgen: create mapping %s: %w", w.mapping, err)
			}
		}
		resp, err := w.cl.Match(w.mapping, w.thresh)
		if err != nil {
			return nil, fmt.Errorf("loadgen: cold match %s: %w", w.mapping, err)
		}
		w.merge(resp.Cells)
		workers[i] = w
	}

	// Replica-read mode: wait for the replica to replicate the seeded
	// state, then point every worker's read mix at it.
	if cfg.ReadAddr != "" {
		if err := waitCaughtUp(cfg.Addr, cfg.ReadAddr, 30*time.Second); err != nil {
			return nil, err
		}
		for _, w := range workers {
			w.rd = client.New(cfg.ReadAddr)
		}
	}

	// Mixed phase: every worker loops its op mix until the deadline.
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if w.rd != nil {
					w.readStep()
				} else {
					w.step()
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	return assemble(cfg, workers, elapsed), nil
}

// wsClient returns a client addressing one workspace (the default
// workspace keeps the bare client, which exercises the back-compat
// routing path).
func wsClient(addr, ws string) *client.Client {
	c := client.New(addr)
	if ws != "" && ws != "default" {
		c = c.ForWorkspace(ws)
	}
	return c
}

// seedAndRun seeds base schemata into each named workspace, spreads
// cfg.Workers workers round-robin across them (one mapping and one
// cold match per worker), and drives the decide-heavy timed mix until
// the deadline. Returns the workers with their samples plus the timed
// phase's wall time.
func seedAndRun(cfg Config, wsNames []string) ([]*worker, time.Duration, error) {
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	for _, ws := range wsNames {
		cl := wsClient(cfg.Addr, ws)
		if _, err := cl.OpenSession("loadgen-seed"); err != nil {
			return nil, 0, fmt.Errorf("loadgen: open seed session (%s): %w", ws, err)
		}
		for i := 0; i < sim.BaseSchemas; i++ {
			name := sim.BaseSchemaName(i)
			if _, err := cl.LoadSchema(name, "sql", sim.SynthSchemaSQL(seedRng)); err != nil {
				return nil, 0, fmt.Errorf("loadgen: seed schema %s (%s): %w", name, ws, err)
			}
		}
	}
	workers := make([]*worker, cfg.Workers)
	for i := range workers {
		ws := wsNames[i%len(wsNames)]
		w := &worker{
			idx:         i,
			rng:         rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(i) + 1)),
			cl:          wsClient(cfg.Addr, ws),
			thresh:      cfg.Threshold,
			decideHeavy: true,
		}
		if _, err := w.cl.OpenSession(fmt.Sprintf("loadgen-%d", i)); err != nil {
			return nil, 0, fmt.Errorf("loadgen: open session %d (%s): %w", i, ws, err)
		}
		w.mapping = fmt.Sprintf("lg%d", i)
		// Self-map one schema: identical source and target guarantee a
		// dense pool of above-threshold cells, so decideOp never degrades
		// to its empty-pool rematch fallback — the timed phase measures
		// the serialized commit path, not matrix recomputes.
		src := sim.BaseSchemaName(i % sim.BaseSchemas)
		if _, err := w.cl.NewMapping(w.mapping, src, src); err != nil {
			if !strings.Contains(err.Error(), "already exists") {
				return nil, 0, fmt.Errorf("loadgen: create mapping %s (%s): %w", w.mapping, ws, err)
			}
		}
		resp, err := w.cl.Match(w.mapping, w.thresh)
		if err != nil {
			return nil, 0, fmt.Errorf("loadgen: cold match %s (%s): %w", w.mapping, ws, err)
		}
		w.merge(resp.Cells)
		if len(w.cells) == 0 {
			return nil, 0, fmt.Errorf("loadgen: self-match %s wrote no cells; decide mix would be empty", w.mapping)
		}
		workers[i] = w
	}
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				w.step()
			}
		}(w)
	}
	wg.Wait()
	return workers, time.Since(start), nil
}

// okPerSec is a phase's aggregate successful-request throughput.
func okPerSec(workers []*worker, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	ok := 0
	for _, w := range workers {
		for _, s := range w.samples {
			if s.ok {
				ok++
			}
		}
	}
	return float64(ok) / elapsed.Seconds()
}

// runMultitenant measures write-throughput scaling across workspaces:
// phase 1 runs the decide-heavy mix with every worker in the default
// workspace (all commits serialized on one per-workspace lock and one
// WAL partition), phase 2 creates cfg.Workspaces tenants, spreads the
// same workers across them, and repeats the identical mix.
func runMultitenant(cfg Config) (*Report, error) {
	if cfg.ReadAddr != "" {
		return nil, fmt.Errorf("loadgen: -replica and -workspaces are mutually exclusive")
	}
	w1, e1, err := seedAndRun(cfg, []string{"default"})
	if err != nil {
		return nil, err
	}
	admin := client.New(cfg.Addr)
	names := make([]string, cfg.Workspaces)
	for i := range names {
		names[i] = fmt.Sprintf("lg-ws-%d", i)
		if _, err := admin.CreateWorkspace(names[i], 0, 0); err != nil &&
			!strings.Contains(err.Error(), "already exists") {
			return nil, fmt.Errorf("loadgen: create workspace %s: %w", names[i], err)
		}
	}
	wN, eN, err := seedAndRun(cfg, names)
	if err != nil {
		return nil, err
	}
	all := append(append([]*worker{}, w1...), wN...)
	rep := assemble(cfg, all, e1+eN)
	rep.Benchmark = "loadgen-multitenant"
	rep.Workspaces = cfg.Workspaces
	rep.TxnsPerSec1WS = okPerSec(w1, e1)
	rep.TxnsPerSecNWS = okPerSec(wN, eN)
	if rep.TxnsPerSec1WS > 0 {
		rep.ThroughputRatio = rep.TxnsPerSecNWS / rep.TxnsPerSec1WS
	}
	return rep, nil
}

// waitCaughtUp polls the replica's replication status until its cursor
// reaches the primary's last txn (bounded by the deadline). It fails
// fast when the node at readAddr is not actually a replica of addr's
// primary — a misconfigured benchmark should not silently measure a
// stale or unrelated node.
func waitCaughtUp(addr, readAddr string, limit time.Duration) error {
	pri := client.New(addr)
	rep := client.New(readAddr)
	ps, err := pri.ReplStatus()
	if err != nil {
		return fmt.Errorf("loadgen: primary repl status: %w", err)
	}
	deadline := time.Now().Add(limit)
	for {
		rs, err := rep.ReplStatus()
		if err != nil {
			return fmt.Errorf("loadgen: replica repl status: %w", err)
		}
		if rs.Role != "replica" {
			return fmt.Errorf("loadgen: %s is role %q, not a replica", readAddr, rs.Role)
		}
		if rs.LastTxn >= ps.LastTxn {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: replica %s stuck at txn %d (primary at %d) after %s",
				readAddr, rs.LastTxn, ps.LastTxn, limit)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// step runs one randomly chosen operation, sampling its latency.
// Mix: decides dominate (the paper's refinement loop is decision-heavy),
// rematches follow each wave of edits, occasional full matches and
// schema re-loads keep the cold paths and invalidation honest.
func (w *worker) step() {
	if w.decideHeavy {
		// Multi-tenant contrast mix: pure decides — small transactions
		// whose cost is the serialized commit + WAL fsync path, exactly
		// what the 1-vs-N workspace contrast measures. No rematches: a
		// rematch recomputes the matrix, CPU work that would hide the
		// commit path the contrast is after.
		w.decideOp()
		return
	}
	switch p := w.rng.Intn(100); {
	case p < 40:
		w.decideOp()
	case p < 70:
		w.rematchOp()
	case p < 85:
		w.matchOp()
	default:
		w.loadOp()
	}
}

// readStep runs one randomly chosen read-only operation against the
// replica. Mix: cell fetches dominate (the matrix is what analysts
// watch), list routes keep the catalog paths warm, and a zero-timeout
// events poll exercises the replica's feed cursor machinery.
func (w *worker) readStep() {
	switch p := w.rng.Intn(100); {
	case p < 50:
		w.record("cells.get", func() error {
			_, err := w.rd.Cells(w.mapping)
			return err
		})
	case p < 70:
		w.record("mappings.list", func() error {
			_, err := w.rd.Mappings()
			return err
		})
	case p < 85:
		w.record("schemas.list", func() error {
			_, err := w.rd.Schemas()
			return err
		})
	default:
		w.record("events.poll", func() error {
			_, next, _, err := w.rd.Events(w.evCursor, 0)
			if err == nil {
				w.evCursor = next
			}
			return err
		})
	}
}

// record times fn under the given route label.
func (w *worker) record(route string, fn func() error) {
	t0 := time.Now()
	err := fn()
	w.samples = append(w.samples, sample{route: route, d: time.Since(t0), ok: err == nil})
}

// loadOp re-loads one base schema with freshly synthesized DDL,
// exercising versioning and match-session invalidation.
func (w *worker) loadOp() {
	name := sim.BaseSchemaName(w.rng.Intn(sim.BaseSchemas))
	ddl := sim.SynthSchemaSQL(w.rng)
	w.record("schemas.load", func() error {
		_, err := w.cl.LoadSchema(name, "sql", ddl)
		return err
	})
}

func (w *worker) matchOp() {
	w.record("match.run", func() error {
		resp, err := w.cl.Match(w.mapping, w.thresh)
		w.merge(resp.Cells)
		return err
	})
}

func (w *worker) rematchOp() {
	w.record("match.rematch", func() error {
		resp, err := w.cl.Rematch(w.mapping, w.thresh, nil, nil)
		w.merge(resp.Cells)
		return err
	})
}

// decideOp accepts or rejects a random cell from the worker's pool
// (a rematch instead while the pool is empty).
func (w *worker) decideOp() {
	if len(w.cells) == 0 {
		w.rematchOp()
		return
	}
	i := w.rng.Intn(len(w.cells))
	c := w.cells[i]
	verdict := "accept"
	if w.rng.Intn(2) == 0 {
		verdict = "reject"
	}
	w.record("cells.decide", func() error {
		_, err := w.cl.Decide(w.mapping, c.Source, c.Target, verdict)
		if err != nil {
			// Most likely a schema re-load dropped an element of the pair:
			// it leaves the pool until a response carries it again.
			w.drop(i)
		}
		return err
	})
}

// drop removes the pool's i-th cell.
func (w *worker) drop(i int) {
	last := len(w.cells) - 1
	delete(w.at, [2]string{w.cells[i].Source, w.cells[i].Target})
	if i != last {
		w.cells[i] = w.cells[last]
		w.at[[2]string{w.cells[i].Source, w.cells[i].Target}] = i
	}
	w.cells = w.cells[:last]
}

// assemble folds every worker's samples into the report.
func assemble(cfg Config, workers []*worker, elapsed time.Duration) *Report {
	byRoute := map[string][]time.Duration{}
	bench := "loadgen-sustained"
	if cfg.ReadAddr != "" {
		bench = "loadgen-replica-read"
	}
	rep := &Report{
		Benchmark: bench,
		Workers:   cfg.Workers,
		DurationS: elapsed.Seconds(),
		Seed:      cfg.Seed,
	}
	for _, w := range workers {
		for _, s := range w.samples {
			rep.Requests++
			if !s.ok {
				rep.Errors++
			}
			byRoute[s.route] = append(byRoute[s.route], s.d)
		}
	}
	if rep.Requests > 0 {
		rep.OKRatio = float64(rep.Requests-rep.Errors) / float64(rep.Requests)
	}
	if elapsed > 0 {
		rep.TxnsPerSec = float64(rep.Requests-rep.Errors) / elapsed.Seconds()
	}
	routes := make([]string, 0, len(byRoute))
	for r := range byRoute {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, r := range routes {
		ds := byRoute[r]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		rep.Routes = append(rep.Routes, RouteStats{
			Route: r,
			Count: len(ds),
			P50ms: ms(percentile(ds, 50)),
			P95ms: ms(percentile(ds, 95)),
			P99ms: ms(percentile(ds, 99)),
		})
	}
	return rep
}

// percentile returns the nearest-rank percentile of a sorted slice.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100 // ceil(p/100 * n), nearest-rank
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
