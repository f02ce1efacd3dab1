package harmony

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"

	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/obs"
)

// Incremental re-match (DESIGN.md §12). Rematch recomputes only what a
// schema edit or decision actually invalidated: voters re-score dirty
// rows/columns, the merger re-merges the same cross-shaped region, and
// flooding warm-starts from the previous run's recorded rounds. The
// contract is bit-identity: Rematch's matrix equals what a cold Run
// over the current schemas (with the same decisions and options) would
// produce, float64 for float64. That holds because recomputed cells run
// the exact full-path kernels and copied cells are proven unaffected —
// the engine derives the dirty set itself from element signatures, so
// correctness never depends on callers reporting edits accurately;
// caller hints only ever enlarge the set.

// Rematch metric names.
const (
	// MetricRematchTotal counts Rematch calls, labeled by the mode the
	// call resolved to: "cold" (no previous run), "pins" (decision-only
	// fast path), "incremental" (row/column patching), "corpus" (a
	// documentation change moved every IDF weight: the documentation
	// voter re-votes fully, other voters still patch) or "full" (learned
	// state or a voter without VotePatch forced a complete re-run).
	MetricRematchTotal = "harmony_rematch_total"
	// MetricRematchStageDuration mirrors MetricStageDuration for the
	// rematch pipeline, plus the rematch-only "signatures" and "context"
	// stages.
	MetricRematchStageDuration = "harmony_rematch_stage_duration_seconds"
	// MetricRematchDirty gauges how many elements the last Rematch
	// treated as dirty (after signature diffing, before structural
	// closure).
	MetricRematchDirty = "harmony_rematch_dirty_elements"
)

// Rematch modes, as reported in timings, metrics and the server API.
const (
	RematchCold        = "cold"
	RematchPins        = "pins"
	RematchIncremental = "incremental"
	RematchCorpus      = "corpus"
	RematchFull        = "full"
)

// Dirty names the elements a caller believes changed since the last
// run. Hints are advisory: the engine unions them with its own
// signature diff, so an empty Dirty is always safe (just potentially
// slower than a precise one — absent hints the diff still finds every
// change).
type Dirty struct {
	Source []string
	Target []string
}

// runSnapshot is everything the last completed pipeline run left behind
// for incremental reuse. All matrices are immutable once recorded.
type runSnapshot struct {
	srcSig, tgtSig       map[string]uint64
	srcParent, tgtParent map[string]string
	srcHash, tgtHash     string
	corpusSig            uint64
	mergerSig            uint64
	learnGen             int

	votes []match.Vote
	mergedEntry
}

// mergedEntry is a run's merge+flood unit, which an engine holds in the
// cache index as one value.
type mergedEntry struct {
	premerge *match.Matrix     // merge output, pre-flood
	flood    *match.FloodState // nil when flooding is off
	prepin   *match.Matrix     // pipeline output before decision pinning
}

// LastRematchMode reports how the most recent Rematch resolved ("" before
// any Rematch).
func (e *Engine) LastRematchMode() string { return e.lastRematchMode }

// Rematch re-runs the pipeline over the engine's current schemas,
// reusing the previous run wherever the signature diff proves it valid.
// dirty may name elements the caller knows were touched (blackboard
// events, rdf.ChangesSince); the engine unions the hints with its own
// diff. The resulting matrix is bit-identical to a cold Run.
func (e *Engine) Rematch(dirty Dirty) []StageTiming {
	return e.rematch(context.Background(), e.ctx.Source, e.ctx.Target, dirty)
}

// rematch is Rematch over source and target, which may be the engine's
// schemas or new objects for them (a session re-reads a schema whose
// version moved): everything is aligned by element ID. It propagates the
// request trace (see run) and picks the mode and what the pipeline may
// reuse; the pipeline itself is the one every run takes.
func (e *Engine) rematch(ctx context.Context, source, target *model.Schema, dirty Dirty) []StageTiming {
	replaced := source != e.ctx.Source || target != e.ctx.Target
	mode := RematchFull
	defer func() {
		e.lastRematchMode = mode
		e.metrics.Counter(MetricRematchTotal, "mode", mode).Inc()
	}()

	// A never-run engine has no signatures to vouch for any row, so it
	// builds its context afresh.
	if e.snap == nil {
		mode = RematchCold
		e.ctx = match.NewContext(source, target, e.ctxOpts...)
		return e.run(ctx)
	}

	col := obs.NewCollector(ctx)
	sp, _ := col.Start("signatures")
	snap := e.signatures(source, target)
	dirtySrc := diffSignatures(e.snap.srcSig, snap.srcSig)
	dirtyTgt := diffSignatures(e.snap.tgtSig, snap.tgtSig)
	for _, id := range dirty.Source {
		dirtySrc[id] = true
	}
	for _, id := range dirty.Target {
		dirtyTgt[id] = true
	}
	sp.End()
	e.metrics.Gauge(MetricRematchDirty).Set(float64(len(dirtySrc) + len(dirtyTgt)))

	if e.learnGen != e.snap.learnGen || !allIncremental(e.voters) {
		// Learned state (whose effects signatures cannot see) or a voter
		// without VotePatch leaves nothing safely reusable: the pipeline
		// runs with no previous run. A plain run on the existing context
		// keeps the learned corpus, matching the documented Learn-then-Run
		// workflow. With schema edits on top, the context is built afresh,
		// which resets word-weight learning — merger weights persist
		// either way.
		if replaced || len(dirtySrc) > 0 || len(dirtyTgt) > 0 {
			e.ctx = match.NewContext(source, target, e.ctxOpts...)
		}
		// The diff above is observed as a rematch stage; the timings
		// returned are the run's own.
		e.timings(col.Spans(), MetricRematchStageDuration)
		return e.run(ctx)
	}

	if len(dirtySrc) == 0 && len(dirtyTgt) == 0 && !replaced && snap.mergerSig == e.snap.mergerSig {
		// Only decisions changed, and decide and Unpin already wrote them
		// into the merged matrix: the last run stands as it is.
		mode = RematchPins
		return e.timings(col.Spans(), MetricRematchStageDuration)
	}

	// The signature diff vouches for every element it did not mark, so
	// the context keeps their rows, aligned by element ID, and
	// preprocesses only the dirty and added ones; a moved document
	// re-weighs the vectors without re-tokenizing anything.
	sp, _ = col.Start("context")
	e.ctx.Refresh(source, target, dirtySrc, dirtyTgt)
	snap.corpusSig = e.ctx.CorpusSignature()
	sp.End()

	// Close the dirty sets under the voter panel's structural
	// dependency: parents of changed elements (StructureVoter reads
	// children), including parents of removed elements via the previous
	// run's parent map.
	mode = e.pipeline(ctx, col, snap, e.snap,
		closeDirty(source, dirtySrc, e.snap.srcParent), closeDirty(target, dirtyTgt, e.snap.tgtParent))
	return e.timings(col.Spans(), MetricRematchStageDuration)
}

// signatures starts the snapshot of a run over source and target with
// what the linguistic context does not yield: per-element signatures,
// parent maps and content hashes of both schemas, the merger signature
// and the learn generation. The corpus signature and the matrices are
// the context's and the pipeline's to add.
func (e *Engine) signatures(source, target *model.Schema) *runSnapshot {
	snap := &runSnapshot{mergerSig: mergerSignature(e.merger), learnGen: e.learnGen}
	snap.srcSig, snap.srcParent, snap.srcHash = schemaSignature(source)
	snap.tgtSig, snap.tgtParent, snap.tgtHash = schemaSignature(target)
	return snap
}

// allIncremental reports whether every panel voter supports VotePatch.
func allIncremental(voters []match.Voter) bool {
	for _, v := range voters {
		if _, ok := v.(match.IncrementalVoter); !ok {
			return false
		}
	}
	return true
}

// closeDirty adds the structural parents of every dirty element —
// current parents from the schema, previous parents (for removed
// elements) from the last run's parent map.
func closeDirty(sch *model.Schema, dirty map[string]bool, prevParent map[string]string) map[string]bool {
	out := match.ExpandDirty(sch, dirty)
	for id := range dirty {
		if sch.Element(id) == nil {
			if p := prevParent[id]; p != "" {
				out[p] = true
			}
		}
	}
	return out
}

// diffSignatures returns the IDs added, changed or removed between two
// signature maps.
func diffSignatures(old, new map[string]uint64) map[string]bool {
	dirty := map[string]bool{}
	for id, sig := range new {
		if osig, ok := old[id]; !ok || osig != sig {
			dirty[id] = true
		}
	}
	for id := range old {
		if _, ok := new[id]; !ok {
			dirty[id] = true
		}
	}
	return dirty
}

// schemaSignature walks a schema in deterministic pre-order and returns
// per-element content signatures, a parent map, and a whole-schema
// content hash (the cache revision key). A signature covers every field
// any built-in voter reads about the element itself — name, kind, data
// type, documentation, structural edge, key/required flags and the full
// content of its referenced coding scheme — so two runs see the same
// signature iff every per-element voter input is unchanged. (What it
// deliberately does not cover: children, handled by dirty-set closure,
// and corpus-global IDF, handled by the context's CorpusSignature.)
func schemaSignature(sch *model.Schema) (map[string]uint64, map[string]string, string) {
	elems := sch.Elements()
	sigs := make(map[string]uint64, len(elems))
	parents := make(map[string]string, len(elems))
	whole := fnv.New64a()
	for _, e := range elems {
		h := fnv.New64a()
		hw := func(parts ...string) {
			for _, p := range parts {
				h.Write([]byte(p))
				h.Write([]byte{0})
			}
		}
		hw(e.Name, string(e.Kind), e.DataType, e.Doc, e.DomainRef, string(e.EdgeFromParent),
			strconv.FormatBool(e.Key), strconv.FormatBool(e.Required))
		if d := sch.DomainOf(e); d != nil {
			hw(d.Name, d.Doc)
			for _, v := range d.Values {
				hw(v.Code, v.Doc)
			}
		}
		sig := h.Sum64()
		sigs[e.ID] = sig
		if p := e.Parent(); p != nil && p.Kind != model.KindSchema {
			parents[e.ID] = p.ID
		}
		whole.Write([]byte(e.ID))
		whole.Write([]byte{0})
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(sig >> (8 * i))
		}
		whole.Write(buf[:])
	}
	return sigs, parents, fmt.Sprintf("%016x", whole.Sum64())
}

// SchemaHash returns the whole-schema content hash used as the match
// cache revision key: a 16-hex-digit fnv-1a digest over every field any
// built-in voter reads (element names, kinds, types, docs, structural
// edges, flags, and referenced coding schemes) in deterministic
// pre-order. Two schemas hash equal iff a matcher would see identical
// input for every element. Schema sets use it as the lockfile content
// hash so "did anything change" agrees exactly with what Rematch would
// recompute.
func SchemaHash(s *model.Schema) string {
	_, _, whole := schemaSignature(s)
	return whole
}

// mergerSignature hashes the merger configuration (performance weights
// and the magnitude toggle) so external SetWeight calls invalidate
// merged intermediates.
func mergerSignature(g *match.Merger) uint64 {
	h := fnv.New64a()
	if g.MagnitudeWeighting {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	weights := g.Weights()
	names := make([]string, 0, len(weights))
	for n := range weights {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
		fmt.Fprintf(h, "%x", weights[n])
	}
	return h.Sum64()
}

// cacheFingerprint identifies every engine option that shapes matrix
// content: panel composition, flooding (on or off; the schedule is
// fixed), stemming, blocking and the thesaurus's content. Parallelism is
// excluded — results are bit-identical at any worker count, so
// sequential and parallel engines share entries.
func (e *Engine) cacheFingerprint() string {
	h := fnv.New64a()
	for _, v := range e.voters {
		h.Write([]byte(v.Name()))
		h.Write([]byte{0})
	}
	fmt.Fprintf(h, "flood=%t;stem=%t;", e.flooding, e.ctx.Stem)
	if e.blocking.Enabled {
		fmt.Fprintf(h, "blk=%d,%d,%x,%t;", e.blocking.PerSourceK,
			e.blocking.QGramSize, e.blocking.MaxPostingFrac, e.blocking.NoParentClosure)
	}
	if th := e.ctx.Thesaurus; th != nil {
		fmt.Fprintf(h, "th=%x;", th.Digest())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func voterCacheKey(srcHash, tgtHash, fp, voter string) string {
	return "v|" + srcHash + "|" + tgtHash + "|" + fp + "|" + voter
}

func mergedCacheKey(srcHash, tgtHash, fp string, mergerSig uint64) string {
	return "m|" + srcHash + "|" + tgtHash + "|" + fp + "|" + strconv.FormatUint(mergerSig, 16)
}

func patternCacheKey(srcHash, tgtHash, fp string) string {
	return "p|" + srcHash + "|" + tgtHash + "|" + fp
}
