// Package harmony implements the Harmony schema matcher (paper §4): the
// match engine that bundles linguistic preprocessing, a panel of match
// voters, the magnitude/performance-weighted vote merger and the
// similarity-flooding variant — plus the headless equivalents of the GUI:
// link/node filters (§4.2), accept/reject decisions, learning from
// feedback, sub-tree completion and progress tracking (§4.3).
package harmony

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/match"
	"repro/internal/matchcache"
	"repro/internal/model"
	"repro/internal/obs"
)

// pairKey identifies one (source, target) element pair by ID.
type pairKey struct{ src, tgt string }

// Decision is a user judgment on a pair: accepted pins the confidence at
// +1, rejected at -1 (paper §4.2: "links that were drawn by the
// integration engineer, or were explicitly marked as correct, have a
// confidence score of +1").
type Decision struct {
	Accepted bool
}

// pinScore is the confidence a decision pins.
func pinScore(accepted bool) float64 {
	if accepted {
		return 1
	}
	return -1
}

// Options configures an Engine.
type Options struct {
	// Voters is the match panel; nil means match.DefaultVoters().
	Voters []match.Voter
	// Flooding enables the structural adjustment stage with the default
	// schedule (match.FloodOptions's zero value).
	Flooding bool
	// ContextOptions customize linguistic preprocessing.
	ContextOptions []match.ContextOption
	// Metrics receives engine instrumentation (stage histograms, run
	// counter); nil means the process-wide obs.Default() registry.
	Metrics *obs.Registry
	// Blocking configures candidate generation (DESIGN.md §14). When
	// enabled, a blocking index prunes the source×target cross product to
	// a per-source top-K candidate pattern before any voter runs, and
	// every pipeline matrix stores only that pattern's cells. Off (the
	// zero value), every matrix stores every pair.
	Blocking match.BlockingOptions
	// Parallelism bounds the worker pool the pipeline fans out to: the
	// voter panel runs one goroutine per voter, each voter's pair sweep
	// and the flooding rounds shard matrix rows across the pool.
	// 0 = GOMAXPROCS, 1 = fully sequential (the historical behavior),
	// n = n workers. The merged matrix is bit-identical at any setting —
	// every cell is computed by exactly one goroutine on the same code
	// path — and StageTiming order stays the panel order. Custom voters
	// must tolerate concurrent Vote calls (read-only Context access) when
	// Parallelism != 1.
	Parallelism int
	// Cache, when non-nil, is the index through which the engines given
	// it share their matrices (DESIGN.md §12). After every run the
	// engine holds its snapshot's per-voter score matrices, merged and
	// flooded intermediates and blocking pattern there, keyed by schema
	// content hashes and a fingerprint of every option that shapes
	// matrix content, the thesaurus's synsets included, and releases
	// what it held before. A run with nothing to reuse reads each stage
	// from the index before computing it. Shared matrices are immutable;
	// the engine never mutates them. Learned corpus/merger state is not
	// part of the key, so an engine that has learned neither reads nor
	// holds entries.
	Cache *matchcache.Cache
}

// Engine is one Harmony matching session over a (source, target) pair.
type Engine struct {
	ctx         *match.Context
	voters      []match.Voter
	merger      *match.Merger
	flooding    bool
	blocking    match.BlockingOptions
	metrics     *obs.Registry
	parallelism int

	// ctxOpts replays the caller's context options when Rematch builds a
	// fresh linguistic context (cold, or the full-run fallback).
	ctxOpts []match.ContextOption
	cache   *matchcache.Cache
	// holder names the engine in the cache index. It is an allocation of
	// its own, so an index that outlives the engine (fresh engines over
	// one long-lived index) keeps only the entries it held reachable,
	// never the engine.
	holder *int
	// learnGen counts Learn calls; learned corpus/merger state is not
	// content-addressable, so learnGen > 0 keeps the engine out of the
	// cache index and makes Rematch fall back to a full run.
	learnGen int
	// snap is the recorded state of the last completed pipeline run —
	// what Rematch patches against and Learn reads the votes of.
	snap *runSnapshot
	// lastRematchMode records how the most recent Rematch resolved.
	lastRematchMode string

	// merged is the current confidence matrix including pinned decisions,
	// the last run's one clone of snap.prepin.
	merged *match.Matrix
	// decisions holds user accept/reject pins.
	decisions map[pairKey]Decision
	// complete marks source elements whose matching is finished (§4.3).
	complete map[string]bool
}

// NewEngine preprocesses the schema pair and returns a ready engine.
func NewEngine(source, target *model.Schema, opts Options) *Engine {
	voters := opts.Voters
	if voters == nil {
		voters = match.DefaultVoters()
	}
	metrics := opts.Metrics
	if metrics == nil {
		metrics = obs.Default()
	}
	metrics.Describe(MetricStageDuration, "Harmony pipeline stage wall-clock time, labeled by stage.")
	metrics.Describe(MetricRuns, "Completed Harmony pipeline runs.")
	metrics.Describe(MetricParallelism, "Resolved worker count of the most recent Harmony pipeline run.")
	metrics.Describe(MetricRematchTotal, "Rematch calls by resolved mode (cold/pins/incremental/corpus/full).")
	metrics.Describe(MetricRematchStageDuration, "Rematch pipeline stage wall-clock time, labeled by stage.")
	metrics.Describe(MetricRematchDirty, "Dirty element count of the most recent Rematch (post-diff, pre-closure).")
	// Options.Parallelism governs the whole pipeline, so it is applied
	// after the user's ContextOptions.
	ctxOpts := append(append([]match.ContextOption(nil), opts.ContextOptions...),
		match.WithParallelism(opts.Parallelism))
	return &Engine{
		ctx:         match.NewContext(source, target, ctxOpts...),
		voters:      voters,
		merger:      match.NewMerger(),
		flooding:    opts.Flooding,
		blocking:    opts.Blocking,
		metrics:     metrics,
		parallelism: opts.Parallelism,
		ctxOpts:     ctxOpts,
		cache:       opts.Cache,
		holder:      new(int),
		decisions:   map[pairKey]Decision{},
		complete:    map[string]bool{},
	}
}

// Metric names emitted by the engine (see DESIGN.md "Observability").
const (
	// MetricStageDuration is a histogram labeled stage="voter:<name>",
	// "merge", "flooding" or "pin-decisions" — the Figure 1 stages.
	MetricStageDuration = "harmony_stage_duration_seconds"
	// MetricRuns counts completed pipeline runs.
	MetricRuns = "harmony_runs_total"
	// MetricParallelism is a gauge holding the resolved worker count of
	// the most recent Run (1 = sequential).
	MetricParallelism = "harmony_parallelism"
)

// Context exposes the linguistic context (for learning experiments).
func (e *Engine) Context() *match.Context { return e.ctx }

// Merger exposes the vote merger (for learned-weight inspection).
func (e *Engine) Merger() *match.Merger { return e.merger }

// StageTiming records how long one pipeline stage took — the Figure 1
// reproduction reports these.
type StageTiming struct {
	Stage    string
	Duration time.Duration
}

// Workers resolves Options.Parallelism to the concrete worker count the
// pipeline fans out to (1 = sequential).
func (e *Engine) Workers() int { return match.ResolveWorkers(e.parallelism) }

// Run executes the full match pipeline (Figure 1): every voter votes, the
// merger combines, flooding adjusts, and user decisions are applied as
// pinned ±1 scores. It returns per-stage timings.
//
// Every stage is one obs span, opened through a per-run collector, and
// the returned []StageTiming and the harmony_stage_duration_seconds
// histograms are both derived from the collected spans — so the
// -timings output and the metrics are two views of the same
// measurement and can never disagree. With Parallelism != 1 the voters
// run concurrently, so the sum of stage durations (CPU time) exceeds
// the run's wall-clock time; span order is normalized back to panel
// order so timings stay deterministic.
func (e *Engine) Run() []StageTiming {
	return e.run(context.Background())
}

// run is Run with request-trace propagation: when ctx carries a span (a
// server request), every stage span joins that trace as its child, and
// cache lookups record their hit/miss inline. It is the pipeline with
// nothing to reuse, observed as a run.
func (e *Engine) run(ctx context.Context) []StageTiming {
	col := obs.NewCollector(ctx)
	snap := e.signatures(e.ctx.Source, e.ctx.Target)
	snap.corpusSig = e.ctx.CorpusSignature()
	e.pipeline(ctx, col, snap, nil, nil, nil)
	return e.timings(col.Spans(), MetricStageDuration)
}

// pipeline is the one match pipeline behind every run and rematch: over
// the engine's current context it runs blocking, the voter panel, merge
// and flooding, pins the decisions, and records snap — which the caller
// filled with the current signatures — as the run the next rematch
// reuses.
//
// prev is the run to reuse. With prev nil there is nothing to reuse:
// each stage looks its key up in the cache index and otherwise runs its
// full kernel. Otherwise each stage patches prev's matrix, recomputing
// the rows and columns of the (structurally closed) dirty sets; a moved
// corpus signature re-votes the corpus-sensitive voters in full, and a
// moved corpus or merger signature re-merges and re-floods in full. A
// patch recomputes its cells with the full kernel's code, so every path
// is bit-identical to prev nil. Once snap is recorded, the engine holds
// its matrices in the index in place of the previous snapshot's. The
// returned mode names how much of prev was reused: RematchIncremental,
// RematchCorpus, or RematchFull for prev nil.
func (e *Engine) pipeline(ctx context.Context, col *obs.Collector, snap, prev *runSnapshot, dirtySrc, dirtyTgt map[string]bool) string {
	e.metrics.Gauge(MetricParallelism).Set(float64(e.Workers()))
	mode := RematchFull
	var prevVotes map[string]*match.Matrix
	var prevMerged *match.Matrix
	var prevFlood *match.FloodState
	if prev != nil {
		// Any changed document moves every IDF weight, so a moved corpus
		// signature leaves no corpus-sensitive vote, and no merged or
		// flooded cell, to patch.
		corpusMoved := snap.corpusSig != prev.corpusSig
		prevVotes = make(map[string]*match.Matrix, len(prev.votes))
		for i, v := range e.voters {
			if cs, ok := v.(match.CorpusSensitive); !corpusMoved || !ok || !cs.CorpusSensitive() {
				prevVotes[v.Name()] = prev.votes[i].Matrix
			}
		}
		mode = RematchCorpus
		if !corpusMoved && snap.mergerSig == prev.mergerSig {
			prevMerged, prevFlood = prev.premerge, prev.flood
			mode = RematchIncremental
		}
	}

	// Content-addressed sharing: schema hashes + options fingerprint name
	// each intermediate exactly, so a hit is bit-identical by
	// construction. Learned corpus/merger state is not part of the key,
	// hence the learnGen guard.
	useCache := e.cache != nil && e.learnGen == 0
	lookup := useCache && prev == nil
	var fp string
	if useCache {
		fp = e.cacheFingerprint()
	}

	// Blocking: build (or fetch from the index) the candidate pattern
	// before any voter runs; every matrix the pipeline allocates from
	// here on stores only its cells. A disabled blocking stage emits no
	// span, keeping unblocked -timings output identical to the
	// pre-blocking engine. After an edit the pattern may have moved (a
	// renamed element meets different index postings); the patch kernels
	// tolerate that cell by cell.
	pat := e.installCandidates(col, snap.srcHash, snap.tgtHash, fp, useCache)

	votes := e.votePanel(col, func(ctx context.Context, v match.Voter) *match.Matrix {
		if lookup {
			if got, ok := e.cache.Get(ctx, voterCacheKey(snap.srcHash, snap.tgtHash, fp, v.Name())); ok {
				return got.(*match.Matrix)
			}
		}
		if old := prevVotes[v.Name()]; old != nil {
			return v.(match.IncrementalVoter).VotePatch(e.ctx, old, dirtySrc, dirtyTgt)
		}
		return v.Vote(e.ctx)
	})
	snap.votes = votes

	// Merge + flooding, as one shared unit (the flood state rides along
	// so a later rematch can warm-start from the recorded rounds).
	mergedKey := mergedCacheKey(snap.srcHash, snap.tgtHash, fp, snap.mergerSig)
	var hit any
	if lookup {
		hit, _ = e.cache.Get(ctx, mergedKey)
	}
	if me, ok := hit.(mergedEntry); ok {
		snap.mergedEntry = me
		// Keep the span sequence identical on the cache-hit path so
		// -timings always lists the same stages.
		sp, _ := col.Start("merge")
		sp.End()
		if e.flooding {
			sp, _ = col.Start("flooding")
			sp.End()
		}
	} else {
		sp, _ := col.Start("merge")
		snap.premerge = e.merger.MergePatch(votes, prevMerged, dirtySrc, dirtyTgt)
		sp.End()
		snap.prepin = snap.premerge
		if e.flooding {
			sp, _ = col.Start("flooding")
			fo := match.FloodOptions{Parallelism: e.parallelism}
			out, st, ok := match.HarmonyFloodPatch(prevFlood, snap.premerge, e.ctx.Source, e.ctx.Target, dirtySrc, dirtyTgt, fo)
			if !ok {
				out, st = match.HarmonyFloodState(snap.premerge, e.ctx.Source, e.ctx.Target, fo)
			}
			snap.prepin, snap.flood = out, st
			sp.End()
		}
	}

	// Pin the user decisions: "once a link has been accepted or rejected,
	// the engine will not try to modify that link" (§4.3). Pins land on
	// the run's one clone of prepin (which the index may share); later
	// decisions reach the clone through decide and Unpin.
	sp, _ := col.Start("pin-decisions")
	merged := snap.prepin.Clone()
	for k, d := range e.decisions {
		merged.Set(k.src, k.tgt, pinScore(d.Accepted))
	}
	sp.End()
	e.merged, e.snap = merged, snap
	e.metrics.Counter(MetricRuns).Inc()
	if e.cache != nil {
		var held map[string]any
		if useCache {
			held = map[string]any{mergedKey: snap.mergedEntry}
			for _, v := range votes {
				held[voterCacheKey(snap.srcHash, snap.tgtHash, fp, v.Voter)] = v.Matrix
			}
			if pat != nil {
				held[patternCacheKey(snap.srcHash, snap.tgtHash, fp)] = pat
			}
		}
		e.cache.Hold(e.holder, held)
	}
	return mode
}

// votePanel runs score for every panel voter inside its voter:<name>
// span, one goroutine per voter bounded by the worker pool. score gets
// the span's context, so cache lookups nest under it. Results are
// collected positionally, so the merger's input is byte-identical to
// the sequential run.
func (e *Engine) votePanel(col *obs.Collector, score func(context.Context, match.Voter) *match.Matrix) []match.Vote {
	votes := make([]match.Vote, len(e.voters))
	vote := func(i int, v match.Voter) {
		sp, ctx := col.Start("voter:" + v.Name())
		defer sp.End()
		votes[i] = match.Vote{Voter: v.Name(), Matrix: score(ctx, v)}
	}
	workers := e.Workers()
	if workers <= 1 || len(e.voters) <= 1 {
		for i, v := range e.voters {
			vote(i, v)
		}
		return votes
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, v := range e.voters {
		wg.Add(1)
		go func(i int, v match.Voter) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			vote(i, v)
		}(i, v)
	}
	wg.Wait()
	return votes
}

// installCandidates builds (or fetches from the cache index) the
// blocking pattern over the engine's current context, installs it, so
// ctx.NewMatrix() allocates over it, and returns it. No-op returning nil
// when blocking is off. The pattern is a deterministic function of the
// schema pair and the options fingerprint, so it shares the
// content-addressed keying of the matrices computed over it.
func (e *Engine) installCandidates(col *obs.Collector, srcHash, tgtHash, fp string, useCache bool) *match.Pattern {
	if !e.blocking.Enabled {
		return nil
	}
	sp, ctx := col.Start("blocking")
	defer sp.End()
	var pat *match.Pattern
	if useCache {
		if got, ok := e.cache.Get(ctx, patternCacheKey(srcHash, tgtHash, fp)); ok {
			pat = got.(*match.Pattern)
		}
	}
	if pat == nil {
		pat = match.BuildCandidates(e.ctx, e.blocking)
	}
	e.ctx.SetCandidates(pat)
	return pat
}

// timings observes one run's collected stage spans into metric's
// histograms and returns them as StageTimings in pipeline order: the
// rematch-only stages, blocking, the panel in panel order, then
// merge, flooding and pin-decisions. Concurrent voters finish in
// scheduler order, so the order is normalized here and timings stay
// identical between sequential and parallel runs.
func (e *Engine) timings(spans []obs.SpanRecord, metric string) []StageTiming {
	rank := make(map[string]int, len(e.voters)+6)
	rank["signatures"] = -3
	rank["context"] = -2
	rank["blocking"] = -1
	for i, v := range e.voters {
		rank["voter:"+v.Name()] = i
	}
	rank["merge"] = len(e.voters)
	rank["flooding"] = len(e.voters) + 1
	rank["pin-decisions"] = len(e.voters) + 2
	sort.SliceStable(spans, func(a, b int) bool { return rank[spans[a].Name] < rank[spans[b].Name] })
	timings := make([]StageTiming, len(spans))
	for i, rec := range spans {
		e.metrics.Histogram(metric, obs.LatencyBuckets, "stage", rec.Name).ObserveDuration(rec.Duration)
		timings[i] = StageTiming{rec.Name, rec.Duration}
	}
	return timings
}

// Matrix returns the current confidence matrix, running the pipeline
// first if it has never run.
func (e *Engine) Matrix() *match.Matrix {
	if e.merged == nil {
		e.Run()
	}
	return e.merged
}

// Accept pins a pair at +1.
func (e *Engine) Accept(srcID, tgtID string) error {
	return e.decide(srcID, tgtID, true)
}

// Reject pins a pair at -1.
func (e *Engine) Reject(srcID, tgtID string) error {
	return e.decide(srcID, tgtID, false)
}

// decide records a user pin. IDs are validated against the schemas
// directly — validating through Matrix() would run the whole pipeline as
// a side effect on a fresh engine. The pin lands on the merged matrix
// immediately when one exists; otherwise the pin-decisions stage of the
// next Run applies it.
func (e *Engine) decide(srcID, tgtID string, accepted bool) error {
	if el := e.ctx.Source.Element(srcID); el == nil || el == e.ctx.Source.Root() {
		return fmt.Errorf("harmony: unknown source element %q", srcID)
	}
	if el := e.ctx.Target.Element(tgtID); el == nil || el == e.ctx.Target.Root() {
		return fmt.Errorf("harmony: unknown target element %q", tgtID)
	}
	e.decisions[pairKey{srcID, tgtID}] = Decision{Accepted: accepted}
	if e.merged != nil {
		e.merged.Set(srcID, tgtID, pinScore(accepted))
	}
	return nil
}

// Unpin removes a user decision and restores the pair's machine score
// in the merged matrix at once, from the last run's pre-pin matrix (a
// pair outside a blocking pattern goes back to no stored cell).
func (e *Engine) Unpin(srcID, tgtID string) {
	delete(e.decisions, pairKey{srcID, tgtID})
	if e.merged != nil {
		e.merged.Set(srcID, tgtID, e.snap.prepin.Get(srcID, tgtID))
	}
}

// IsUserDefined reports whether the pair carries a user decision — the
// is-user-defined annotation of §5.1.2.
func (e *Engine) IsUserDefined(srcID, tgtID string) bool {
	_, ok := e.decisions[pairKey{srcID, tgtID}]
	return ok
}

// Decisions returns a copy of all user decisions keyed by (src, tgt) IDs.
func (e *Engine) Decisions() map[[2]string]Decision {
	out := make(map[[2]string]Decision, len(e.decisions))
	for k, d := range e.decisions {
		out[[2]string{k.src, k.tgt}] = d
	}
	return out
}

// Learn updates the engine from accumulated decisions (§4.3): the merger
// re-weights voters by agreement with the user, and the documentation
// corpus re-weights words that proved predictive. Call Run afterwards to
// re-score with the learned parameters.
func (e *Engine) Learn() {
	if e.snap == nil || len(e.snap.votes) == 0 || len(e.decisions) == 0 {
		return
	}
	// One fixed order for both loops: LearnWeights sums each voter's
	// credits, and a shared word's factors are multiplied, in decision
	// order, and a float sum or product taken in another order can
	// differ in the last bit.
	keys := make([]pairKey, 0, len(e.decisions))
	for k := range e.decisions {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].src != keys[b].src {
			return keys[a].src < keys[b].src
		}
		return keys[a].tgt < keys[b].tgt
	})
	fb := make([]match.Feedback, len(keys))
	for x, k := range keys {
		fb[x] = match.Feedback{SourceID: k.src, TargetID: k.tgt, Accepted: e.decisions[k].Accepted}
	}
	e.merger.LearnWeights(e.snap.votes, fb, 0.15)
	// Learned state is invisible to the content-addressed cache keys, so
	// from here on this engine neither reads nor holds index entries and
	// Rematch falls back to full runs (see Options.Cache). What it holds
	// now was computed before learning and still matches its keys; its
	// next run releases it.
	e.learnGen++

	// Word-weight learning: words shared by accepted pairs' documentation
	// were predictive (upweight); words shared by rejected pairs misled
	// (downweight).
	srcEls, tgtEls := e.ctx.Elements()
	srcRow := make(map[string]int, len(srcEls))
	for i, el := range srcEls {
		srcRow[el.ID] = i
	}
	tgtRow := make(map[string]int, len(tgtEls))
	for j, el := range tgtEls {
		tgtRow[el.ID] = j
	}
	for _, k := range keys {
		i, okS := srcRow[k.src]
		j, okT := tgtRow[k.tgt]
		if !okS || !okT {
			continue
		}
		factor := 1.15
		if !e.decisions[k].Accepted {
			factor = 0.9
		}
		for _, w := range e.ctx.SharedDocTerms(i, j) {
			e.ctx.Corpus.AdjustWordWeight(w, factor)
		}
	}
	// Learn runs strictly between runs, so the vectors are re-derived
	// here, eagerly, before any voter reads them.
	e.ctx.RederiveVectors()
}
