package match

import (
	"hash/fnv"
	"math"
	"slices"
	"sort"

	"repro/internal/lingo"
	"repro/internal/model"
)

// Context carries the preprocessed linguistic state shared by all voters
// for one (source, target) schema pair. Building it once per engine run
// corresponds to Figure 1's "linguistic preprocessing" stage: every
// element is reduced, once, to a feature row, and a voter scores pair
// (i, j) from source row i and target row j.
//
// Rows are stored in the schemata's pre-order as of construction (or the
// last Refresh), which is the element order of every matrix NewMatrix
// allocates, so a matrix's i and j are row indices. Name tokens, domain
// codes and documentation terms are interned per context into int32 IDs,
// assigned in sorted string order at construction: the kernels merge
// sorted ID lists instead of hashing strings, and a cosine over term IDs
// adds its products in the order a cosine over the strings would.
//
// A Context does not change while a voter panel runs, so any number of
// goroutines may read it without a lock. Refresh, RederiveVectors,
// SetCandidates and replacing Corpus or Thesaurus mutate it; they run
// strictly between runs.
type Context struct {
	Source *model.Schema
	Target *model.Schema
	// Thesaurus backs the thesaurus voter; nil disables expansion. Set it
	// via WithThesaurus — expansions are derived in NewContext.
	Thesaurus *lingo.Thesaurus
	// Corpus accumulates documentation for TF-IDF. Exposed so the engine
	// can adjust word weights from user feedback (§4.3); call
	// RederiveVectors after adjusting.
	Corpus *lingo.Corpus
	// Parallelism is the worker count the row-sharded pair sweeps
	// (forEachPair) fan out to: 0 = GOMAXPROCS, 1 = sequential, n = n.
	// Results are bit-identical at any setting.
	Parallelism int
	// candidates is the blocking pattern the voter sweeps restrict
	// themselves to; nil means unblocked (score every pair). Set via
	// SetCandidates after running BuildCandidates. The pattern indexes
	// the context's rows, so the owner must rebuild it (or clear it)
	// after any structural edit.
	candidates *Pattern
	// Stem controls whether preprocessing stems tokens (ablation hook).
	Stem bool

	// src and tgt are the schemata's elements in pre-order, and srcRows
	// and tgtRows their feature rows, index for index.
	src, tgt         []*model.Element
	srcRows, tgtRows []row
	// ids interns every name token, domain code and documentation term;
	// strs[id] is the string back. IDs assigned at construction sort like
	// their strings; Refresh appends IDs for new name tokens only, never
	// for documentation terms (it refuses any documentation change).
	ids  map[string]int32
	strs []string
	// postings inverts the target rows' documentation vectors; derived
	// wherever the vectors are.
	postings docPostings
}

// docPostings is a context's one table of documentation postings: for
// each term ID, the target rows whose document holds the term, in
// ascending row order, each with the term's weight there. Term t's
// postings are rows[start[t]:start[t+1]], aligned with weights. The
// documentation voter's unblocked sweep and blocking's documentation
// channel both read it.
type docPostings struct {
	start   []int32
	rows    []int32
	weights []float64
}

// of returns the postings of term id: its target rows and the term's
// weight in each. The table spans every ID interned when it was
// derived, which includes every documentation term.
func (p *docPostings) of(id int32) ([]int32, []float64) {
	a, b := p.start[id], p.start[id+1]
	return p.rows[a:b], p.weights[a:b]
}

// derivePostings rebuilds the postings table from the target rows'
// current vectors, in O(target terms).
func (c *Context) derivePostings() {
	p := &c.postings
	p.start = make([]int32, len(c.strs)+1)
	for j := range c.tgtRows {
		for _, id := range c.tgtRows[j].doc.Terms {
			p.start[id+1]++
		}
	}
	for id := 1; id < len(p.start); id++ {
		p.start[id] += p.start[id-1]
	}
	n := p.start[len(p.start)-1]
	p.rows, p.weights = make([]int32, n), make([]float64, n)
	fill := slices.Clone(p.start[:len(p.start)-1])
	for j := range c.tgtRows {
		v := &c.tgtRows[j].doc
		for k, id := range v.Terms {
			p.rows[fill[id]], p.weights[fill[id]] = int32(j), v.Weights[k]
			fill[id]++
		}
	}
}

// row is one element's features: everything a built-in voter reads about
// the element, derived once per build.
type row struct {
	kind model.Kind
	// kids counts the element's children (0: a leaf).
	kids int
	// lower is the lowercased name and runes its runes (Jaro-Winkler and
	// containment in NameVoter).
	lower string
	runes []rune
	// name holds the stemmed name token IDs, expanded the unstemmed name
	// token IDs expanded through the thesaurus, and children the union of
	// the children's name IDs; each sorted and duplicate-free.
	name, expanded, children []int32
	// typeGroup is an attribute's data-type family (0: none).
	typeGroup uint8
	// hasDomain reports a coding scheme; codes holds its code IDs, sorted
	// and duplicate-free.
	hasDomain bool
	codes     []int32
	// doc is the TF-IDF vector of the element's documentation, and
	// docCounts each term's count in it, aligned with doc.Terms.
	doc       lingo.IDVector
	docCounts []int32
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

// elemTexts holds one element's preprocessed strings, before interning.
type elemTexts struct {
	name, expanded, doc, codes []string
	hasDomain                  bool
}

// NewContext preprocesses both schemata: element names and documentation
// are tokenized, stop-word filtered and stemmed, the documentation corpus
// is built, and every element's feature row — interned tokens, thesaurus
// expansion, TF-IDF vector — is derived, in O(elements).
func NewContext(source, target *model.Schema, opts ...ContextOption) *Context {
	c := &Context{
		Source:    source,
		Target:    target,
		Thesaurus: lingo.DefaultThesaurus(),
		Corpus:    lingo.NewCorpus(),
		Stem:      true,
	}
	for _, o := range opts {
		o(c)
	}
	c.src, c.tgt = source.Elements(), target.Elements()
	stems := stemmer{}
	srcTexts := c.preprocess(source, c.src, stems)
	tgtTexts := c.preprocess(target, c.tgt, stems)
	c.intern(srcTexts, tgtTexts)
	// Vectors need the complete corpus (IDF spans both schemata), so rows
	// are derived in a second pass.
	c.srcRows = c.deriveRows(c.src, srcTexts)
	c.tgtRows = c.deriveRows(c.tgt, tgtTexts)
	c.derivePostings()
	return c
}

// preprocess runs the linguistic pipeline over every element and adds
// each non-empty document to the corpus.
func (c *Context) preprocess(s *model.Schema, els []*model.Element, stems stemmer) []elemTexts {
	out := make([]elemTexts, len(els))
	for i, e := range els {
		out[i] = c.textsOf(s, e, stems)
		if len(out[i].doc) > 0 {
			c.Corpus.AddDocument(out[i].doc)
		}
	}
	return out
}

// textsOf preprocesses one element, as lingo.Preprocess would (or
// PreprocessNoStem without stemming). The documentation of an
// attribute's coding scheme and of its values is folded into the
// attribute's document — the paper's §2 point that domain values carry
// matchable documentation.
func (c *Context) textsOf(s *model.Schema, e *model.Element, stems stemmer) elemTexts {
	raw := lingo.PreprocessNoStem(e.Name)
	t := elemTexts{name: raw, expanded: raw}
	if c.Thesaurus != nil {
		t.expanded = c.Thesaurus.Expand(raw)
	}
	doc := e.Doc
	if d := s.DomainOf(e); d != nil {
		doc += " " + d.Doc
		for _, v := range d.Values {
			doc += " " + v.Doc
		}
		t.hasDomain, t.codes = true, d.Codes()
	}
	t.doc = lingo.PreprocessNoStem(doc)
	if c.Stem {
		t.name = stems.stem(append([]string(nil), raw...))
		t.doc = stems.stem(t.doc)
	}
	return t
}

// stemmer memoizes lingo.Stem over one build: documentation repeats its
// words, and Porter stemming is most of preprocessing.
type stemmer map[string]string

// stem stems toks in place.
func (m stemmer) stem(toks []string) []string {
	for i, tok := range toks {
		st, ok := m[tok]
		if !ok {
			st = lingo.Stem(tok)
			m[tok] = st
		}
		toks[i] = st
	}
	return toks
}

// intern assigns every string of every element an ID, in sorted string
// order.
func (c *Context) intern(sides ...[]elemTexts) {
	c.ids = make(map[string]int32)
	for _, side := range sides {
		for i := range side {
			t := &side[i]
			for _, list := range [...][]string{t.name, t.expanded, t.doc, t.codes} {
				for _, s := range list {
					c.ids[s] = 0
				}
			}
		}
	}
	c.strs = make([]string, 0, len(c.ids))
	for s := range c.ids {
		c.strs = append(c.strs, s)
	}
	sort.Strings(c.strs)
	for id, s := range c.strs {
		c.ids[s] = int32(id)
	}
}

// id returns the ID of s, appending a new one for a string never seen.
func (c *Context) id(s string) int32 {
	if id, ok := c.ids[s]; ok {
		return id
	}
	id := int32(len(c.strs))
	c.ids[s] = id
	c.strs = append(c.strs, s)
	return id
}

// idSet interns a token list into sorted, duplicate-free IDs.
func (c *Context) idSet(toks []string) []int32 {
	if len(toks) == 0 {
		return nil
	}
	out := make([]int32, len(toks))
	for i, s := range toks {
		out[i] = c.id(s)
	}
	return sortedSet(out)
}

// sortedSet sorts ids in place and drops duplicates.
func sortedSet(ids []int32) []int32 {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// docBag returns the sorted term IDs of a document with each term's
// count. ok is false when a term has no ID yet; such a document differs
// from every document the context holds.
func (c *Context) docBag(doc []string) (terms, counts []int32, ok bool) {
	if len(doc) == 0 {
		return nil, nil, true
	}
	ids := make([]int32, len(doc))
	for i, s := range doc {
		id, known := c.ids[s]
		if !known {
			return nil, nil, false
		}
		ids[i] = id
	}
	slices.Sort(ids)
	distinct := 1
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1] {
			distinct++
		}
	}
	terms, counts = make([]int32, 0, distinct), make([]int32, 0, distinct)
	for i, id := range ids {
		if i > 0 && id == ids[i-1] {
			counts[len(counts)-1]++
			continue
		}
		terms = append(terms, id)
		counts = append(counts, 1)
	}
	return terms, counts, true
}

// deriveRows derives the rows of one side from its preprocessed texts.
func (c *Context) deriveRows(els []*model.Element, ts []elemTexts) []row {
	rows := make([]row, len(els))
	for i, e := range els {
		rows[i] = c.deriveRow(e, ts[i])
		rows[i].doc.Terms, rows[i].docCounts, _ = c.docBag(ts[i].doc)
		c.weigh(&rows[i])
	}
	unionChildren(rows, parentRows(els), nil)
	return rows
}

// deriveRow derives every feature of one element except its children's
// token union (unionChildren) and its documentation vector.
func (c *Context) deriveRow(e *model.Element, t elemTexts) row {
	low := lower(e.Name)
	r := row{
		kind:      e.Kind,
		kids:      len(e.Children()),
		lower:     low,
		runes:     []rune(low),
		name:      c.idSet(t.name),
		expanded:  c.idSet(t.expanded),
		hasDomain: t.hasDomain,
		codes:     c.idSet(t.codes),
	}
	if e.Kind == model.KindAttribute {
		r.typeGroup = typeGroups[lower(e.DataType)]
	}
	return r
}

// weigh derives a row's TF-IDF weights and norm from its term counts,
// with the corpus's current IDF and learned word weights: term by term in
// ascending term order, as lingo.Vector and Sorted compute them.
func (c *Context) weigh(r *row) {
	if len(r.doc.Terms) == 0 {
		r.doc = lingo.IDVector{}
		return
	}
	if len(r.doc.Weights) != len(r.doc.Terms) {
		r.doc.Weights = make([]float64, len(r.doc.Terms))
	}
	var norm float64
	for k, id := range r.doc.Terms {
		w := c.Corpus.TermWeight(c.strs[id], int(r.docCounts[k]))
		r.doc.Weights[k] = w
		norm += w * w
	}
	r.doc.Norm = math.Sqrt(norm)
}

// parentRows returns each element's parent row (-1 under the root). els
// is in pre-order, so a parent is on the stack of open ancestors when
// its child is reached.
func parentRows(els []*model.Element) []int {
	parent := make([]int, len(els))
	var open []int
	for i, e := range els {
		for len(open) > 0 && els[open[len(open)-1]] != e.Parent() {
			open = open[:len(open)-1]
		}
		parent[i] = -1
		if len(open) > 0 {
			parent[i] = open[len(open)-1]
		}
		open = append(open, i)
	}
	return parent
}

// unionChildren sets the children field of every row with redo[i] set
// (every row when redo is nil) to the union of its children's name IDs.
func unionChildren(rows []row, parent []int, redo []bool) {
	for i := range rows {
		if redo == nil || redo[i] {
			rows[i].children = nil
		}
	}
	for i, p := range parent {
		if p >= 0 && (redo == nil || redo[p]) {
			rows[p].children = append(rows[p].children, rows[i].name...)
		}
	}
	for i := range rows {
		if redo == nil || redo[i] {
			rows[i].children = sortedSet(rows[i].children)
		}
	}
}

// RederiveVectors re-derives every row's TF-IDF vector, and the
// postings over them, from the corpus. Call it after adjusting word
// weights, between runs, so learning takes effect on the next run.
func (c *Context) RederiveVectors() {
	for _, rows := range [...][]row{c.srcRows, c.tgtRows} {
		for i := range rows {
			c.weigh(&rows[i])
		}
	}
	c.derivePostings()
}

// Refresh brings the rows up to date after in-place edits to the
// context's schemas, keeping the corpus and every untouched element's
// row. dirtySrc/dirtyTgt name the elements (by ID) whose content may
// have changed; added and removed elements are found on its own.
// Refresh succeeds only when the documentation corpus is provably
// unchanged — every dirty, added or removed element must contribute the
// same document terms, with the same counts, as before (typically: edits
// that didn't touch documentation). When that doesn't hold it returns
// false without changing anything and the caller must rebuild with
// NewContext; IDF is global, so a changed document moves every vector.
//
// On success it re-derives dirty and added rows, reuses clean ones,
// rebuilds the row order after adds and drops, and re-derives the
// children's token union of every element whose children changed. Every
// voter then scores the rows bit-identically to a freshly built
// context's (only IDs first seen here differ, appended after the rest).
func (c *Context) Refresh(dirtySrc, dirtyTgt map[string]bool) bool {
	src, tgt := c.Source.Elements(), c.Target.Elements()
	srcNew, ok := c.refreshSide(c.Source, src, c.src, c.srcRows, dirtySrc)
	if !ok {
		return false
	}
	tgtNew, ok := c.refreshSide(c.Target, tgt, c.tgt, c.tgtRows, dirtyTgt)
	if !ok {
		return false
	}
	// Commit. No corpus change is possible past this point, so the kept
	// Corpus — and every kept row's vector — stays exact.
	c.src, c.srcRows = src, c.commitSide(src, srcNew)
	c.tgt, c.tgtRows = tgt, c.commitSide(tgt, tgtNew)
	// The vectors are unchanged, but adds and drops may move target rows.
	c.derivePostings()
	return true
}

// refreshed is one element's state in a pending Refresh: its kept row,
// or, when fresh, its re-preprocessed texts.
type refreshed struct {
	old   *row
	fresh bool
	texts elemTexts
}

// refreshSide checks one side of a Refresh without changing anything:
// it pairs every current element with its previous row and
// re-preprocesses the dirty and added ones. ok is false when a dirty,
// added or removed element changes the documentation corpus.
func (c *Context) refreshSide(s *model.Schema, els, oldEls []*model.Element, oldRows []row, dirty map[string]bool) ([]refreshed, bool) {
	old := make(map[*model.Element]*row, len(oldEls))
	for i, e := range oldEls {
		old[e] = &oldRows[i]
	}
	out := make([]refreshed, len(els))
	stems := stemmer{}
	for i, e := range els {
		r := old[e]
		out[i].old = r
		if r != nil && !dirty[e.ID] {
			continue
		}
		t := c.textsOf(s, e, stems)
		terms, counts, known := c.docBag(t.doc)
		var prevTerms, prevCounts []int32
		if r != nil {
			prevTerms, prevCounts = r.doc.Terms, r.docCounts
		}
		if !known || !slices.Equal(terms, prevTerms) || !slices.Equal(counts, prevCounts) {
			return nil, false
		}
		out[i].fresh, out[i].texts = true, t
	}
	// Elements that left the schema may only leave if they never
	// contributed a document.
	for i, e := range oldEls {
		if s.Element(e.ID) != e && len(oldRows[i].doc.Terms) > 0 {
			return nil, false
		}
	}
	return out, true
}

// commitSide builds one side's new row table from a checked Refresh.
func (c *Context) commitSide(els []*model.Element, pending []refreshed) []row {
	rows := make([]row, len(els))
	redo := make([]bool, len(els))
	parent := parentRows(els)
	for i, e := range els {
		p := pending[i]
		switch {
		case p.fresh:
			rows[i] = c.deriveRow(e, p.texts)
			if p.old != nil {
				// Same document terms and counts, same corpus: the
				// previous vector is exact.
				rows[i].doc, rows[i].docCounts = p.old.doc, p.old.docCounts
			}
			redo[i] = true
		default:
			rows[i] = *p.old
			if rows[i].kids != len(e.Children()) {
				// A child was dropped (an added child is fresh itself).
				rows[i].kids = len(e.Children())
				redo[i] = true
			}
		}
		if p.fresh && parent[i] >= 0 {
			redo[parent[i]] = true
		}
	}
	unionChildren(rows, parent, redo)
	return rows
}

// SetCandidates installs (or, with nil, clears) the blocking pattern
// that NewMatrix hands to every voter. Not safe to call concurrently
// with a running voter panel.
func (c *Context) SetCandidates(p *Pattern) { c.candidates = p }

// Candidates returns the installed blocking pattern (nil = unblocked).
func (c *Context) Candidates() *Pattern { return c.candidates }

// NewMatrix allocates the zero matrix a voter should fill, over the
// context's own element order: over the blocking pattern when one is
// installed, over every pair otherwise.
func (c *Context) NewMatrix() *Matrix {
	if c.candidates != nil {
		return NewSparseMatrix(c.src, c.tgt, c.candidates)
	}
	return c.fullMatrix()
}

// fullMatrix allocates a zero matrix over every pair of the context's
// elements, ignoring any blocking pattern (the baselines score densely).
func (c *Context) fullMatrix() *Matrix { return NewMatrix(c.src, c.tgt) }

// Workers resolves the context's Parallelism to a concrete worker count.
func (c *Context) Workers() int {
	if c == nil {
		return 1
	}
	return ResolveWorkers(c.Parallelism)
}

// Elements returns the source and target elements in row order — the
// element order of every matrix NewMatrix allocates. The slices are
// shared; callers must not modify them.
func (c *Context) Elements() (src, tgt []*model.Element) { return c.src, c.tgt }

// SharedDocTerms returns the documentation terms that source row i and
// target row j have in common, in sorted order.
func (c *Context) SharedDocTerms(i, j int) []string {
	a, b := c.srcRows[i].doc.Terms, c.tgtRows[j].doc.Terms
	var out []string
	for x, y := 0, 0; x < len(a) && y < len(b); {
		switch {
		case a[x] == b[y]:
			out = append(out, c.strs[a[x]])
			x++
			y++
		case a[x] < b[y]:
			x++
		default:
			y++
		}
	}
	return out
}

// CorpusSignature hashes both sides' documentation bags — each row's
// terms, as strings, with their counts — in row order. TF-IDF depends on
// nothing else, so two contexts with equal signatures hold the same
// corpus and the same vectors; any difference means every IDF weight may
// have moved. It hashes strings, not IDs: IDs belong to one context.
func (c *Context) CorpusSignature() uint64 {
	h := fnv.New64a()
	var buf [5]byte
	for _, rows := range [...][]row{c.srcRows, c.tgtRows} {
		for i := range rows {
			r := &rows[i]
			for k, id := range r.doc.Terms {
				h.Write([]byte(c.strs[id]))
				n := r.docCounts[k]
				buf = [5]byte{0, byte(n), byte(n >> 8), byte(n >> 16), byte(n >> 24)}
				h.Write(buf[:])
			}
			h.Write([]byte{1})
		}
		h.Write([]byte{2})
	}
	return h.Sum64()
}
