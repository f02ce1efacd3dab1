package match

import (
	"sync"

	"repro/internal/lingo"
	"repro/internal/model"
)

// Context carries the preprocessed linguistic state shared by all voters
// for one (source, target) schema pair. Building it once per engine run
// corresponds to Figure 1's "linguistic preprocessing" stage.
//
// A Context is safe for concurrent readers: all per-element caches
// (name tokens, thesaurus expansions, TF-IDF vectors) are fully built by
// NewContext — they are bounded by element count, not pair count — so the
// voter panel can share one Context across goroutines. The only mutating
// entry points are InvalidateVectors and the Corpus/Thesaurus fields
// themselves; InvalidateVectors re-opens the vector cache's lazy path,
// which is guarded by a lock, while replacing Corpus or Thesaurus after
// construction is not concurrency-safe and has no effect on the
// precomputed expansions.
type Context struct {
	Source *model.Schema
	Target *model.Schema
	// Thesaurus backs the thesaurus voter; nil disables expansion. Set it
	// via WithThesaurus — expansions are precomputed in NewContext.
	Thesaurus *lingo.Thesaurus
	// Corpus accumulates documentation for TF-IDF. Exposed so the engine
	// can adjust word weights from user feedback (§4.3); call
	// InvalidateVectors after adjusting.
	Corpus *lingo.Corpus
	// Parallelism is the worker count the row-sharded pair sweeps
	// (forEachPair) fan out to: 0 = GOMAXPROCS, 1 = sequential, n = n.
	// Results are bit-identical at any setting.
	Parallelism int
	// candidates is the blocking pattern the voter sweeps restrict
	// themselves to; nil means unblocked (score every pair). Set via
	// SetCandidates after running BuildCandidates. The pattern indexes
	// the schemata's current Elements() order, so the owner must rebuild
	// it (or clear it) after any structural edit.
	candidates *Pattern

	nameTokens map[*model.Element][]string
	// nameTokensRaw holds unstemmed name tokens; the thesaurus voter
	// looks these up since synonym tables hold surface forms.
	nameTokensRaw map[*model.Element][]string
	// expandedTokens caches thesaurus expansions per element — computing
	// them per pair would cost O(|S|·|T|) expansions. Fully built by
	// NewContext, read-only afterwards.
	expandedTokens map[*model.Element][]string
	docTokens      map[*model.Element][]string
	// vecMu guards docVectors/docVecSorted: the vectors are precomputed
	// by NewContext, but InvalidateVectors re-opens the lazy rebuild
	// path, which concurrent voters then race through.
	vecMu      sync.RWMutex
	docVectors map[*model.Element]lingo.Vector
	// docVecSorted holds the term-sorted, norm-precomputed form the
	// documentation voter's O(|S|·|T|) cosine sweep runs on.
	docVecSorted map[*model.Element]lingo.SortedVector
	// Stem controls whether preprocessing stems tokens (ablation hook).
	Stem bool
}

// ContextOption customizes context construction.
type ContextOption func(*Context)

// WithThesaurus sets the thesaurus used for name expansion.
func WithThesaurus(t *lingo.Thesaurus) ContextOption {
	return func(c *Context) { c.Thesaurus = t }
}

// WithoutStemming disables stemming (the DESIGN.md stemming ablation).
func WithoutStemming() ContextOption {
	return func(c *Context) { c.Stem = false }
}

// WithParallelism sets the worker count for row-sharded pair sweeps
// (0 = GOMAXPROCS, 1 = sequential).
func WithParallelism(n int) ContextOption {
	return func(c *Context) { c.Parallelism = n }
}

// NewContext preprocesses both schemata: element names and documentation
// are tokenized, stop-word filtered and stemmed, the documentation corpus
// is built, and the per-element thesaurus expansions and TF-IDF vectors
// are precomputed so later reads are lock-free.
func NewContext(source, target *model.Schema, opts ...ContextOption) *Context {
	c := &Context{
		Source:         source,
		Target:         target,
		Thesaurus:      lingo.DefaultThesaurus(),
		Corpus:         lingo.NewCorpus(),
		nameTokens:     map[*model.Element][]string{},
		nameTokensRaw:  map[*model.Element][]string{},
		expandedTokens: map[*model.Element][]string{},
		docTokens:      map[*model.Element][]string{},
		docVectors:     map[*model.Element]lingo.Vector{},
		docVecSorted:   map[*model.Element]lingo.SortedVector{},
		Stem:           true,
	}
	for _, o := range opts {
		o(c)
	}
	pre := lingo.Preprocess
	if !c.Stem {
		pre = lingo.PreprocessNoStem
	}
	for _, s := range []*model.Schema{source, target} {
		for _, e := range s.Elements() {
			c.nameTokens[e] = pre(e.Name)
			c.nameTokensRaw[e] = lingo.PreprocessNoStem(e.Name)
			doc := e.Doc
			// Fold enumerated domain documentation into the attribute's
			// document — the paper's §2 point that domain values carry
			// matchable documentation.
			if d := s.DomainOf(e); d != nil {
				doc += " " + d.Doc
				for _, v := range d.Values {
					doc += " " + v.Doc
				}
			}
			toks := pre(doc)
			c.docTokens[e] = toks
			if len(toks) > 0 {
				c.Corpus.AddDocument(toks)
			}
		}
	}
	// Second pass, after the corpus is complete (IDF needs both schemata's
	// documents): precompute expansions and vectors eagerly. Both are
	// O(elements), and doing it here makes the read paths race-free.
	for _, s := range []*model.Schema{source, target} {
		for _, e := range s.Elements() {
			toks := c.nameTokensRaw[e]
			if c.Thesaurus != nil {
				toks = c.Thesaurus.Expand(toks)
			}
			c.expandedTokens[e] = toks
			v := c.Corpus.Vector(c.docTokens[e])
			c.docVectors[e] = v
			c.docVecSorted[e] = v.Sorted()
		}
	}
	return c
}

// Refresh re-derives the per-element caches after in-place edits to the
// context's schemas, keeping the corpus and every untouched element's
// state. dirtySrc/dirtyTgt name the elements (by ID) whose content may
// have changed; elements added since construction are found on its own.
// Refresh succeeds only when the documentation corpus is provably
// unchanged — every added, edited or removed element must contribute
// the same document tokens as before (typically: edits that didn't
// touch documentation). When that doesn't hold it returns false without
// mutating anything and the caller must rebuild with NewContext; IDF is
// global, so a changed document invalidates every vector. After a
// successful Refresh the cached state is bit-identical to a freshly
// built context's.
func (c *Context) Refresh(dirtySrc, dirtyTgt map[string]bool) bool {
	pre := lingo.Preprocess
	if !c.Stem {
		pre = lingo.PreprocessNoStem
	}
	type update struct {
		e   *model.Element
		doc []string
	}
	var updates []update
	for _, sd := range []struct {
		s     *model.Schema
		dirty map[string]bool
	}{{c.Source, dirtySrc}, {c.Target, dirtyTgt}} {
		for _, e := range sd.s.Elements() {
			if _, known := c.nameTokens[e]; known && !sd.dirty[e.ID] {
				continue
			}
			doc := e.Doc
			if d := sd.s.DomainOf(e); d != nil {
				doc += " " + d.Doc
				for _, v := range d.Values {
					doc += " " + v.Doc
				}
			}
			toks := pre(doc)
			if !tokensEqual(toks, c.docTokens[e]) {
				return false
			}
			updates = append(updates, update{e, toks})
		}
	}
	// Elements whose pointers left the schemas may only leave if they
	// never contributed a document.
	var stale []*model.Element
	for e := range c.nameTokens {
		if c.Source.Element(e.ID) == e || c.Target.Element(e.ID) == e {
			continue
		}
		if len(c.docTokens[e]) > 0 {
			return false
		}
		stale = append(stale, e)
	}
	// Commit. No corpus change is possible past this point, so the kept
	// Corpus — and every clean element's cached vector — stays exact.
	for _, u := range updates {
		e := u.e
		c.nameTokens[e] = pre(e.Name)
		c.nameTokensRaw[e] = lingo.PreprocessNoStem(e.Name)
		toks := c.nameTokensRaw[e]
		if c.Thesaurus != nil {
			toks = c.Thesaurus.Expand(toks)
		}
		c.expandedTokens[e] = toks
		c.docTokens[e] = u.doc
		v := c.Corpus.Vector(u.doc)
		c.vecMu.Lock()
		c.docVectors[e] = v
		c.docVecSorted[e] = v.Sorted()
		c.vecMu.Unlock()
	}
	for _, e := range stale {
		delete(c.nameTokens, e)
		delete(c.nameTokensRaw, e)
		delete(c.expandedTokens, e)
		delete(c.docTokens, e)
		c.vecMu.Lock()
		delete(c.docVectors, e)
		delete(c.docVecSorted, e)
		c.vecMu.Unlock()
	}
	return true
}

// tokensEqual reports whether two token slices are identical.
func tokensEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SetCandidates installs (or, with nil, clears) the blocking pattern
// that NewMatrix hands to every voter. Not safe to call concurrently
// with a running voter panel.
func (c *Context) SetCandidates(p *Pattern) { c.candidates = p }

// Candidates returns the installed blocking pattern (nil = unblocked).
func (c *Context) Candidates() *Pattern { return c.candidates }

// NewMatrix allocates the zero matrix a voter should fill: over the
// blocking pattern when one is installed, over every pair otherwise.
func (c *Context) NewMatrix() *Matrix {
	if c.candidates != nil {
		return NewSparseMatrix(c.Source.Elements(), c.Target.Elements(), c.candidates)
	}
	return MatrixOver(c.Source, c.Target)
}

// Workers resolves the context's Parallelism to a concrete worker count.
func (c *Context) Workers() int {
	if c == nil {
		return 1
	}
	return ResolveWorkers(c.Parallelism)
}

// NameTokens returns the preprocessed name tokens of an element.
func (c *Context) NameTokens(e *model.Element) []string { return c.nameTokens[e] }

// NameTokensRaw returns the unstemmed name tokens of an element.
func (c *Context) NameTokensRaw(e *model.Element) []string { return c.nameTokensRaw[e] }

// ExpandedNameTokens returns the element's unstemmed name tokens expanded
// through the thesaurus. The expansion is precomputed by NewContext, so
// this is a plain map read, safe under any number of goroutines.
func (c *Context) ExpandedNameTokens(e *model.Element) []string {
	return c.expandedTokens[e]
}

// DocTokens returns the preprocessed documentation tokens of an element.
func (c *Context) DocTokens(e *model.Element) []string { return c.docTokens[e] }

// DocVector returns the TF-IDF vector of an element's documentation.
// Vectors are precomputed by NewContext; after InvalidateVectors they are
// rebuilt lazily under a lock, so concurrent voters stay race-free while
// learning takes effect.
func (c *Context) DocVector(e *model.Element) lingo.Vector {
	c.vecMu.RLock()
	v, ok := c.docVectors[e]
	c.vecMu.RUnlock()
	if ok {
		return v
	}
	v, _ = c.rebuildVector(e)
	return v
}

// DocVectorSorted returns the element's TF-IDF vector in the term-sorted,
// norm-precomputed form lingo.CosineSorted consumes — the documentation
// voter's hot-path representation. Same caching discipline as DocVector.
func (c *Context) DocVectorSorted(e *model.Element) lingo.SortedVector {
	c.vecMu.RLock()
	sv, ok := c.docVecSorted[e]
	c.vecMu.RUnlock()
	if ok {
		return sv
	}
	_, sv = c.rebuildVector(e)
	return sv
}

// rebuildVector recomputes and caches both vector forms for one element
// under the write lock (the post-InvalidateVectors lazy path).
func (c *Context) rebuildVector(e *model.Element) (lingo.Vector, lingo.SortedVector) {
	c.vecMu.Lock()
	defer c.vecMu.Unlock()
	if v, ok := c.docVectors[e]; ok {
		return v, c.docVecSorted[e]
	}
	v := c.Corpus.Vector(c.docTokens[e])
	sv := v.Sorted()
	c.docVectors[e] = v
	c.docVecSorted[e] = sv
	return v, sv
}

// InvalidateVectors clears cached TF-IDF vectors; call after adjusting
// word weights so learning takes effect on the next engine run. Safe to
// call concurrently with DocVector readers (but not with writers to
// Corpus itself).
func (c *Context) InvalidateVectors() {
	c.vecMu.Lock()
	c.docVectors = make(map[*model.Element]lingo.Vector, len(c.docTokens))
	c.docVecSorted = make(map[*model.Element]lingo.SortedVector, len(c.docTokens))
	c.vecMu.Unlock()
}
