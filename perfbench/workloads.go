package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/erwin"
	"repro/internal/eval"
	"repro/internal/harmony"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/schemaset"
	"repro/internal/server"
)

// threshold is the publish threshold every match, rematch and apply
// uses (the server default).
const threshold = server.DefaultThreshold

// workload is one traffic mix. Its inputs — schemas, version texts, op
// streams — are fixed from the seed in prepare, before the timed phase,
// so no op depends on a server response.
type workload interface {
	// clients is the number of closed-loop clients.
	clients() int
	// prepare generates the inputs and seeds the server; setup_s times
	// it together with the server start.
	prepare(b *bench, cs []*benchClient) error
	// op runs client c's i-th op; errExhausted ends the client's stream.
	op(bc *benchClient, c, i int) error
	// primary names the request kind trace.overhead_pct compares.
	primary() string
	// refOps is the op count heap_mb and the snapshot share of
	// disk_bytes_per_op are read at: about half of what a 10 s run
	// completes on the reference machine (README.md), so a program
	// twice as slow still reaches it.
	refOps() int
	// named lists the workload's request latencies by their report name.
	named() []namedLatency
	// f1 is the match quality of the workload's published cells.
	f1() float64
	// check verifies the outputs once the timed phase has ended and
	// summarises what it verified.
	check(b *bench, cs []*benchClient) (string, error)
}

// namedLatency is one latency figure of the text report.
type namedLatency struct {
	name, kind string
	q          float64
}

// sizes holds the workload input sizes.
type sizes struct {
	review      int // elements per review schema
	evolve      int // elements of the evolving source
	onboardMin  int // onboard models span onboardMin..onboardMin+onboardSpan elements
	onboardSpan int
}

// fullSizes are the benchmark's input sizes; the smoke test runs smaller
// ones.
var fullSizes = sizes{review: 1000, evolve: 300, onboardMin: 100, onboardSpan: 300}

// newWorkload builds the named workload for one run.
func newWorkload(name string, seed int64, sz sizes, seconds float64) (workload, error) {
	switch name {
	case "review":
		return &review{seed: seed, elements: sz.review, maxOps: opCap(seconds, 600)}, nil
	case "evolve":
		return &evolve{seed: seed, elements: sz.evolve, maxOps: opCap(seconds, 10)}, nil
	case "onboard":
		return &onboard{seed: seed, minSize: sz.onboardMin, span: sz.onboardSpan, maxOps: opCap(seconds, 12)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want review, evolve or onboard)", name)
}

// opCap sizes a pre-generated op stream for a run of the given length:
// perSecond is several times the rate measured on the reference machine
// (README.md), so a faster program still finds ops to run.
func opCap(seconds float64, perSecond int) int {
	return int(math.Ceil(seconds*float64(perSecond))) + 20
}

// cellBits indexes cells by (source, target) with their exact
// confidence bits.
func cellBits(cells []server.CellInfo) map[[2]string]uint64 {
	out := make(map[[2]string]uint64, len(cells))
	for _, c := range cells {
		out[[2]string{c.Source, c.Target}] = math.Float64bits(c.Confidence)
	}
	return out
}

// coldLinks runs an in-process cold Harmony match with the server's
// engine options and returns the links it would publish.
func coldLinks(src, tgt *model.Schema) map[[2]string]uint64 {
	eng := harmony.NewEngine(src, tgt, harmony.Options{Flooding: true, Metrics: obs.NewRegistry()})
	eng.Run()
	out := map[[2]string]uint64{}
	for _, l := range eng.Matrix().Above(threshold) {
		out[[2]string{l.Source.ID, l.Target.ID}] = math.Float64bits(l.Confidence)
	}
	return out
}

// sameLinks compares published cells with expected links bit for bit.
func sameLinks(what string, got []server.CellInfo, want map[[2]string]uint64) error {
	g := cellBits(got)
	for pair, bits := range want {
		gb, ok := g[pair]
		if !ok {
			return fmt.Errorf("%s: link %s → %s (%v) not published", what, pair[0], pair[1], math.Float64frombits(bits))
		}
		if gb != bits {
			return fmt.Errorf("%s: link %s → %s published %v, in-process %v", what, pair[0], pair[1],
				math.Float64frombits(gb), math.Float64frombits(bits))
		}
	}
	if len(g) != len(want) {
		return fmt.Errorf("%s: published %d cells, in-process run has %d links", what, len(g), len(want))
	}
	return nil
}

func cellPairs(cells []server.CellInfo) [][2]string {
	out := make([][2]string, len(cells))
	for i, c := range cells {
		out[i] = [2]string{c.Source, c.Target}
	}
	return out
}

// ---- review ----

// review is the paper's refinement loop: two analysts, each owning one
// mapping over the same registry pair, decide, view and rematch.
type review struct {
	seed     int64
	elements int
	maxOps   int

	pair     schemaPair
	mappings []string
	streams  [][]reviewOp
	// decided is, per client, the last verdict sent for each pair (+1
	// accept, -1 reject); violations are output mismatches seen in ops.
	decided    []map[[2]string]float64
	violations [][]string
	quality    float64
}

type reviewOp struct {
	kind     byte // 'd'ecide, 'v'iew, 'r'ematch
	src, tgt string
	accept   bool
}

func (w *review) clients() int { return 2 }

func (w *review) primary() string { return "decide" }

func (w *review) refOps() int { return 600 }

func (w *review) named() []namedLatency {
	return []namedLatency{
		{"decide_p50_ms", "decide", 0.5}, {"decide_p99_ms", "decide", 0.99},
		{"view_p50_ms", "view", 0.5},
		{"rematch_p50_ms", "rematch", 0.5}, {"rematch_p95_ms", "rematch", 0.95},
	}
}

func (w *review) f1() float64 { return w.quality }

// reviewPairSeed fixes the review pair's content. A review op's cost
// follows the mapping's published cell count (views and rematches scan
// it), which varies by a sixth between generated pairs; with the pair
// fixed, the seed varies the analysts' op streams and runs compare the
// loop, not the pair.
const reviewPairSeed = 1

func (w *review) prepare(b *bench, cs []*benchClient) error {
	var err error
	if w.pair, err = genPair(reviewPairSeed, sizeOf(w.elements), "rv_src", "rv_tgt"); err != nil {
		return err
	}
	c0 := cs[0]
	if _, err := c0.LoadSchema(w.pair.src.Name, "er", w.pair.srcText); err != nil {
		return err
	}
	if _, err := c0.LoadSchema(w.pair.tgt.Name, "er", w.pair.tgtText); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.seed))
	pool := w.decidePool(rng)
	for c, bc := range cs {
		id := fmt.Sprintf("review-%d", c)
		if _, err := bc.NewMapping(id, w.pair.src.Name, w.pair.tgt.Name); err != nil {
			return err
		}
		resp, err := bc.Match(id, threshold)
		if err != nil {
			return err
		}
		if c == 0 {
			w.quality = score(cellPairs(resp.Cells), w.pair.truth).F1
		}
		w.mappings = append(w.mappings, id)
		w.decided = append(w.decided, map[[2]string]float64{})
		w.violations = append(w.violations, nil)
		// Mix: every block of ten ops is 7 decides, 2 views and 1
		// rematch in seeded order. Views and rematches cost most of a
		// run, so their share is fixed rather than drawn, and runs of any
		// length compare. One decide in ten flips the pair's verdict, so
		// a pair's last verdict is not fixed.
		block := []byte("dddddddvvr")
		ops := make([]reviewOp, w.maxOps)
		for i := range ops {
			if i%len(block) == 0 {
				rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
			}
			ops[i] = reviewOp{kind: block[i%len(block)]}
			if ops[i].kind == 'd' {
				ops[i] = pool[rng.Intn(len(pool))]
				if rng.Float64() < 0.1 {
					ops[i].accept = !ops[i].accept
				}
			}
		}
		w.streams = append(w.streams, ops)
	}
	return nil
}

// decidePool lists the pairs analysts decide: every ground-truth pair
// (accepted) and as many seeded non-matching pairs (rejected).
func (w *review) decidePool(rng *rand.Rand) []reviewOp {
	srcIDs := make([]string, 0, len(w.pair.truth))
	for s := range w.pair.truth {
		srcIDs = append(srcIDs, s)
	}
	sort.Strings(srcIDs)
	pool := make([]reviewOp, 0, 2*len(srcIDs))
	for _, s := range srcIDs {
		pool = append(pool, reviewOp{kind: 'd', src: s, tgt: w.pair.truth[s], accept: true})
	}
	srcEls, tgtEls := w.pair.src.Elements(), w.pair.tgt.Elements()
	for range srcIDs {
		for {
			s, t := srcEls[rng.Intn(len(srcEls))].ID, tgtEls[rng.Intn(len(tgtEls))].ID
			if w.pair.truth[s] != t {
				pool = append(pool, reviewOp{kind: 'd', src: s, tgt: t})
				break
			}
		}
	}
	return pool
}

func (w *review) op(bc *benchClient, c, i int) error {
	if i >= len(w.streams[c]) {
		return errExhausted
	}
	o, id := w.streams[c][i], w.mappings[c]
	switch o.kind {
	case 'd':
		verdict, conf := "reject", -1.0
		if o.accept {
			verdict, conf = "accept", 1.0
		}
		var cell server.CellInfo
		err := bc.call("decide", func() (err error) {
			cell, err = bc.Decide(id, o.src, o.tgt, verdict)
			return err
		})
		if err != nil {
			return err
		}
		w.decided[c][[2]string{o.src, o.tgt}] = conf
		if !cell.UserDefined || cell.Confidence != conf {
			w.violate(c, "decide %s → %s %s read back %+v", o.src, o.tgt, verdict, cell)
		}
	case 'v':
		var cells []server.CellInfo
		err := bc.call("view", func() (err error) {
			cells, err = bc.Cells(id)
			return err
		})
		if err != nil {
			return err
		}
		if bc.trace != nil {
			t0 := time.Now()
			if _, err := json.Marshal(cells); err != nil {
				return err
			}
			bc.trace.sample("json.encode_cells_ms", msOf(time.Since(t0)))
		}
	case 'r':
		var resp server.RematchResponse
		err := bc.call("rematch", func() (err error) {
			resp, err = bc.Rematch(id, threshold, nil, nil)
			return err
		})
		if err != nil {
			return err
		}
		for _, cell := range resp.Cells {
			if conf, ok := w.decided[c][[2]string{cell.Source, cell.Target}]; ok && (!cell.UserDefined || cell.Confidence != conf) {
				w.violate(c, "rematch (%s) overwrote decided %s → %s: %+v", resp.Mode, cell.Source, cell.Target, cell)
			}
		}
		if bc.trace != nil {
			bc.trace.addPerOp("harmony.rematch_mode."+resp.Mode, 1)
			bc.trace.addPerOp("harmony.published_cells_per_op", float64(resp.Published))
		}
	}
	return nil
}

func (w *review) violate(c int, format string, args ...any) {
	w.violations[c] = append(w.violations[c], fmt.Sprintf(format, args...))
}

// check: every decided pair reads back user-defined with the last
// verdict sent, and no rematch overwrote one.
func (w *review) check(b *bench, cs []*benchClient) (string, error) {
	var bad []string
	decided := 0
	for c, bc := range cs {
		bad = append(bad, w.violations[c]...)
		cells, err := bc.Cells(w.mappings[c])
		if err != nil {
			return "", err
		}
		byPair := make(map[[2]string]server.CellInfo, len(cells))
		for _, cell := range cells {
			byPair[[2]string{cell.Source, cell.Target}] = cell
		}
		for pair, conf := range w.decided[c] {
			decided++
			if cell, ok := byPair[pair]; !ok || !cell.UserDefined || cell.Confidence != conf {
				bad = append(bad, fmt.Sprintf("%s: decided %s → %s (%+v) reads back %+v", w.mappings[c], pair[0], pair[1], conf, cell))
			}
		}
	}
	if len(bad) > 0 {
		return "", fmt.Errorf("review: %d mismatches, first: %s", len(bad), bad[0])
	}
	return fmt.Sprintf("review: %d decided pairs read back user-defined with their last verdict; no rematch overwrote one", decided), nil
}

// ---- evolve ----

// evolve is a CI pipeline bumping a schema set: one ~300-element source
// and three perturbed targets, three mappings; every op applies a new
// source version carrying 1–3 seeded edits.
type evolve struct {
	seed     int64
	elements int
	maxOps   int

	targets  []schemaPair // src field is the initial source
	versions []string     // source text of v1, v2, ...
	applied  int          // index into versions of the last applied version
	quality  float64
	bad      []string
}

func (w *evolve) clients() int { return 1 }

func (w *evolve) primary() string { return "apply" }

func (w *evolve) refOps() int { return 10 }

func (w *evolve) named() []namedLatency {
	return []namedLatency{{"apply_p50_ms", "apply", 0.5}, {"apply_p90_ms", "apply", 0.9}}
}

func (w *evolve) f1() float64 { return w.quality }

func (w *evolve) prepare(b *bench, cs []*benchClient) error {
	src := genModel(w.seed, sizeOf(w.elements))
	for k := 0; k < 3; k++ {
		tgt, gt := perturb(src, w.seed+1+int64(k))
		p := schemaPair{truth: map[string]string{}}
		var err error
		if p.srcText, p.src, err = renderParse(src, "ev_src"); err != nil {
			return err
		}
		if p.tgtText, p.tgt, err = renderParse(tgt, fmt.Sprintf("ev_t%d", k)); err != nil {
			return err
		}
		for s, t := range gt.Pairs {
			p.truth[rebase(s, src.Name, p.src.Name)] = rebase(t, tgt.Name, p.tgt.Name)
		}
		w.targets = append(w.targets, p)
	}
	// Version texts: bump i applies 1 + i%3 edits to the previous
	// version, their kinds cycling through rename, add, drop and redoc, so
	// every run carries the same mix of edits whatever its seed (which
	// only picks the elements). A round of edits that cancels out is
	// followed by another, so no bump is a no-op.
	rng := rand.New(rand.NewSource(w.seed))
	kind := 0
	text := w.targets[0].srcText
	cur, err := erwin.Load("ev_src", strings.NewReader(text))
	if err != nil {
		return err
	}
	w.versions = []string{text}
	for len(w.versions) <= w.maxOps {
		for n := len(w.versions)%3 + 1; n > 0; n-- {
			editSchema(cur, rng, kind%editKinds)
			kind++
		}
		next, parsed, err := renderParse(cur, cur.Name)
		if err != nil {
			return err
		}
		if next == text {
			continue
		}
		w.versions = append(w.versions, next)
		cur, text = parsed, next
	}

	bc := cs[0]
	resp, err := bc.Apply(w.request(0))
	if err != nil {
		return err
	}
	if resp.NoOp || resp.Txns != 1 {
		return fmt.Errorf("evolve: initial apply: %d txns, noop %v", resp.Txns, resp.NoOp)
	}
	var prfs []eval.PRF
	for k, p := range w.targets {
		id := fmt.Sprintf("ev-%d", k)
		if _, err := bc.NewMapping(id, p.src.Name, p.tgt.Name); err != nil {
			return err
		}
		m, err := bc.Match(id, threshold)
		if err != nil {
			return err
		}
		prfs = append(prfs, score(cellPairs(m.Cells), p.truth))
	}
	w.quality = microF1(prfs)
	return nil
}

// request is the apply of version v (0-based): the source at that
// version plus the unchanged targets.
func (w *evolve) request(v int) server.ApplyRequest {
	req := server.ApplyRequest{Set: "evolve", Version: fmt.Sprintf("v%d", v+1)}
	req.Schemas = append(req.Schemas, server.ApplySchema{Name: "ev_src", Format: "er", Text: w.versions[v]})
	for _, p := range w.targets {
		req.Schemas = append(req.Schemas, server.ApplySchema{Name: p.tgt.Name, Format: "er", Text: p.tgtText})
	}
	return req
}

func (w *evolve) op(bc *benchClient, c, i int) error {
	v := i + 1
	if v >= len(w.versions) {
		return errExhausted
	}
	req := w.request(v)
	if bc.trace != nil {
		if err := w.traceLayers(bc, req); err != nil {
			return err
		}
	}
	var resp server.ApplyResponse
	if err := bc.call("apply", func() (err error) {
		resp, err = bc.Apply(req)
		return err
	}); err != nil {
		return err
	}
	w.applied = v
	if resp.NoOp || resp.Txns != 1+len(w.targets) || len(resp.Rematches) != len(w.targets) {
		w.bad = append(w.bad, fmt.Sprintf("%s: noop %v, %d txns, %d rematches", req.Version, resp.NoOp, resp.Txns, len(resp.Rematches)))
	}
	if bc.trace != nil {
		for _, rm := range resp.Rematches {
			bc.trace.addPerOp("harmony.rematch_mode."+rm.Mode, 1)
			bc.trace.addPerOp("harmony.published_cells_per_op", float64(rm.Published))
		}
	}
	return nil
}

// traceLayers times, between ops, the parse of the op's schema texts and
// the change plan against the live blackboard — the two layers an apply
// runs before its transaction.
func (w *evolve) traceLayers(bc *benchClient, req server.ApplyRequest) error {
	t0 := time.Now()
	schemas := make([]*model.Schema, 0, len(req.Schemas))
	for _, s := range req.Schemas {
		sch, err := erwin.Load(s.Name, strings.NewReader(s.Text))
		if err != nil {
			return err
		}
		schemas = append(schemas, sch)
	}
	bc.trace.addPerOp("erwin.load_ms", msOf(time.Since(t0)))
	t0 = time.Now()
	bb := bc.b.srv.Workspaces().Default().Blackboard()
	if _, err := schemaset.NewPlan(bb, &schemaset.Set{Name: req.Set, Version: req.Version}, schemas, nil); err != nil {
		return err
	}
	bc.trace.addPerOp("schemaset.plan_ms", msOf(time.Since(t0)))
	return nil
}

// check: every bump changed the source and committed 1 + #mappings
// transactions, and each final matrix is bit-identical to an in-process
// cold run over the final schema texts. Cells below the threshold or on
// dropped elements linger from earlier versions (publish never deletes);
// they are counted, not compared.
func (w *evolve) check(b *bench, cs []*benchClient) (string, error) {
	if len(w.bad) > 0 {
		return "", fmt.Errorf("evolve: %d bad bumps, first: %s", len(w.bad), w.bad[0])
	}
	src, err := erwin.Load("ev_src", strings.NewReader(w.versions[w.applied]))
	if err != nil {
		return "", err
	}
	stale := 0
	for k, p := range w.targets {
		id := fmt.Sprintf("ev-%d", k)
		want := coldLinks(src, p.tgt)
		cells, err := cs[0].Cells(id)
		if err != nil {
			return "", err
		}
		var live []server.CellInfo
		for _, c := range cells {
			if _, ok := want[[2]string{c.Source, c.Target}]; ok {
				live = append(live, c)
			} else {
				stale++
			}
		}
		if err := sameLinks("evolve "+id, live, want); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("evolve: %d bumps, each 1+%d txns; final matrices bit-identical to a cold run (%d stale cells from earlier versions)",
		w.applied, len(w.targets), stale), nil
}

// ---- onboard ----

// onboard registers new sources: each op loads a fresh registry model
// and its perturbation, creates a mapping and cold-matches it.
type onboard struct {
	seed          int64
	minSize, span int
	maxOps        int

	ops     []onboardOp
	results [][]server.CellInfo // published cells, per completed op
	quality float64
}

// onboardOp is one new source and its perturbation, kept as text: the
// parsed schemas of every pre-generated op would crowd the heap the run
// measures.
type onboardOp struct {
	srcName, tgtName, srcText, tgtText string
	truth                              map[string]string
}

// onboardScored is how many leading ops match_f1 pools, so it does not
// depend on how many ops a run completes.
const onboardScored = 10

func (w *onboard) clients() int { return 1 }

func (w *onboard) primary() string { return "match" }

func (w *onboard) refOps() int { return 20 }

func (w *onboard) named() []namedLatency {
	return []namedLatency{{"match_p50_ms", "match", 0.5}, {"match_p90_ms", "match", 0.9}}
}

func (w *onboard) f1() float64 { return w.quality }

func (w *onboard) prepare(b *bench, cs []*benchClient) error {
	u := rand.New(rand.NewSource(w.seed)).Float64()
	for i := 0; i < w.maxOps; i++ {
		n := w.minSize + int(float64(w.span)*lowDiscrepancy(i, u))
		p, err := genPair(w.seed*7919+int64(i), sizeOf(n), fmt.Sprintf("ob_s%d", i), fmt.Sprintf("ob_t%d", i))
		if err != nil {
			return err
		}
		w.ops = append(w.ops, onboardOp{p.src.Name, p.tgt.Name, p.srcText, p.tgtText, p.truth})
	}
	return nil
}

func (w *onboard) op(bc *benchClient, c, i int) error {
	if i >= len(w.ops) {
		return errExhausted
	}
	p := w.ops[i]
	if bc.trace != nil {
		t0 := time.Now()
		for _, s := range [][2]string{{p.srcName, p.srcText}, {p.tgtName, p.tgtText}} {
			if _, err := erwin.Load(s[0], strings.NewReader(s[1])); err != nil {
				return err
			}
		}
		bc.trace.addPerOp("erwin.load_ms", msOf(time.Since(t0)))
	}
	for _, s := range [][2]string{{p.srcName, p.srcText}, {p.tgtName, p.tgtText}} {
		if err := bc.call("load", func() error {
			_, err := bc.LoadSchema(s[0], "er", s[1])
			return err
		}); err != nil {
			return err
		}
	}
	id := fmt.Sprintf("ob-%d", i)
	if err := bc.call("create", func() error {
		_, err := bc.NewMapping(id, p.srcName, p.tgtName)
		return err
	}); err != nil {
		return err
	}
	var resp server.MatchResponse
	if err := bc.call("match", func() (err error) {
		resp, err = bc.Match(id, threshold)
		return err
	}); err != nil {
		return err
	}
	if i != len(w.results) {
		return fmt.Errorf("onboard: op %d completed out of order", i)
	}
	w.results = append(w.results, resp.Cells)
	if i < onboardScored {
		var prfs []eval.PRF
		for k, cells := range w.results {
			prfs = append(prfs, score(cellPairs(cells), w.ops[k].truth))
		}
		w.quality = microF1(prfs)
	}
	if bc.trace != nil {
		bc.trace.addPerOp("harmony.published_cells_per_op", float64(resp.Published))
	}
	return nil
}

// onboardCheckEvery spaces the ops the check re-runs: every third op,
// from an offset the seed picks, so the check covers a fixed share of
// whatever a run completed and costs about a third of the timed phase.
const onboardCheckEvery = 3

// check: the published cells of every onboardCheckEvery-th op are
// bit-identical to an in-process Engine.Run().Matrix().Above(threshold)
// over the same parsed schemas.
func (w *onboard) check(b *bench, cs []*benchClient) (string, error) {
	checked := 0
	first := int((w.seed%onboardCheckEvery + onboardCheckEvery) % onboardCheckEvery)
	if first >= len(w.results) {
		first = 0
	}
	for i := first; i < len(w.results); i += onboardCheckEvery {
		op := w.ops[i]
		src, err := erwin.Load(op.srcName, strings.NewReader(op.srcText))
		if err != nil {
			return "", err
		}
		tgt, err := erwin.Load(op.tgtName, strings.NewReader(op.tgtText))
		if err != nil {
			return "", err
		}
		if err := sameLinks(fmt.Sprintf("onboard op %d", i), w.results[i], coldLinks(src, tgt)); err != nil {
			return "", err
		}
		checked++
	}
	return fmt.Sprintf("onboard: %d of %d ops (one in %d) re-matched in-process, published cells bit-identical",
		checked, len(w.results), onboardCheckEvery), nil
}
