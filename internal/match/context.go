package match

import (
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"unicode/utf8"

	"repro/internal/lingo"
	"repro/internal/model"
)

// Context carries the preprocessed linguistic state shared by all voters
// for one (source, target) schema pair. Building it once per engine run
// corresponds to Figure 1's "linguistic preprocessing" stage: every
// element is reduced, once, to a feature row, and a voter scores pair
// (i, j) from source row i and target row j.
//
// Rows are stored in the schemata's pre-order as of the last Refresh
// (NewContext is one), which is the element order of every matrix
// NewMatrix allocates, so a matrix's i and j are row indices. Name
// tokens, domain codes and documentation terms are interned per context
// into int32 IDs that sort like their strings: the kernels merge sorted
// ID lists instead of hashing strings, and a cosine over term IDs adds
// its products in the order a cosine over the strings would.
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
	// strs[id] is the string back, in sorted order: Refresh renumbers the
	// table when new strings arrive. A string no row uses any more keeps
	// its ID; it sorts like the rest and has empty postings.
	ids  map[string]int32
	strs []string
	// postings inverts the target rows' documentation vectors; derived
	// wherever the vectors are.
	postings docPostings
	// alphabet codes every rune of the rows' lowercased names, densely,
	// in the order Refresh met them. Codes are never renumbered, so a
	// carried row keeps its codes; a rune no row uses any more keeps its
	// code and has empty masks.
	alphabet map[rune]int32
	// masks holds the target names' position masks over the alphabet;
	// rebuilt by every Refresh.
	masks nameMasks
}

// nameMasks is a context's table of the target names' position masks,
// which the name voter's Jaro-Winkler reads: target row j's block is
// words[start[j]:start[j+1]], one mask of lingo.MaskWords(name length)
// words for every code of the alphabet, each holding the positions of
// row j's name that carry that rune (lingo.SetPositionMasks). With names
// of up to 64 runes that is one word per row and code.
type nameMasks struct {
	start []int32
	words []uint64
}

// of returns target row j's masks.
func (m *nameMasks) of(j int) []uint64 { return m.words[m.start[j]:m.start[j+1]] }

// deriveMasks rebuilds the mask table from the target rows' rune codes,
// in O(target rows × alphabet).
func (c *Context) deriveMasks() {
	m := &c.masks
	m.start = make([]int32, len(c.tgtRows)+1)
	for j := range c.tgtRows {
		m.start[j+1] = m.start[j] + int32(len(c.alphabet)*lingo.MaskWords(len(c.tgtRows[j].runeCodes)))
	}
	m.words = make([]uint64, m.start[len(c.tgtRows)])
	for j := range c.tgtRows {
		lingo.SetPositionMasks(m.of(j), c.tgtRows[j].runeCodes)
	}
}

// codeRunes codes a name's runes in the alphabet, giving each rune it has
// not met the next code.
func (c *Context) codeRunes(name string) []int32 {
	codes := make([]int32, 0, utf8.RuneCountInString(name))
	for _, r := range name {
		code, ok := c.alphabet[r]
		if !ok {
			code = int32(len(c.alphabet))
			c.alphabet[r] = code
		}
		codes = append(codes, code)
	}
	return codes
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
	// lower is the lowercased name and runeCodes its runes, coded in the
	// context's alphabet (Jaro-Winkler and containment in NameVoter).
	lower     string
	runeCodes []int32
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
// expansion, TF-IDF vector — is derived, in O(elements). It is Refresh
// on an empty context, which holds no row to keep.
func NewContext(source, target *model.Schema, opts ...ContextOption) *Context {
	c := &Context{
		Thesaurus: lingo.DefaultThesaurus(),
		Corpus:    lingo.NewCorpus(),
		Stem:      true,
		ids:       make(map[string]int32),
		alphabet:  make(map[rune]int32),
	}
	for _, o := range opts {
		o(c)
	}
	c.Refresh(source, target, nil, nil)
	return c
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

// intern assigns an ID to every string of the sides' texts that has
// none, renumbering the table so that IDs still sort like their strings.
// It returns the old-to-new ID map when it renumbered, nil when no
// string was new.
func (c *Context) intern(sides []*carried) []int32 {
	var added []string
	for _, sd := range sides {
		for k := range sd.texts {
			t := &sd.texts[k]
			for _, list := range [...][]string{t.name, t.expanded, t.doc, t.codes} {
				for _, s := range list {
					if _, ok := c.ids[s]; !ok {
						c.ids[s] = 0
						added = append(added, s)
					}
				}
			}
		}
	}
	if len(added) == 0 {
		return nil
	}
	sort.Strings(added)
	old := c.strs
	c.strs = make([]string, 0, len(old)+len(added))
	remap := make([]int32, len(old))
	for i, j := 0, 0; i < len(old) || j < len(added); {
		if j == len(added) || i < len(old) && old[i] < added[j] {
			remap[i] = int32(len(c.strs))
			c.strs = append(c.strs, old[i])
			i++
		} else {
			c.strs = append(c.strs, added[j])
			j++
		}
	}
	for id, s := range c.strs {
		c.ids[s] = int32(id)
	}
	return remap
}

// idSet interns a token list into sorted, duplicate-free IDs.
func (c *Context) idSet(toks []string) []int32 {
	if len(toks) == 0 {
		return nil
	}
	out := make([]int32, len(toks))
	for i, s := range toks {
		out[i] = c.ids[s]
	}
	return sortedSet(out)
}

// sortedSet sorts ids in place and drops duplicates.
func sortedSet(ids []int32) []int32 {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// docBag returns the sorted term IDs of a document with each term's
// count.
func (c *Context) docBag(doc []string) (terms, counts []int32) {
	if len(doc) == 0 {
		return nil, nil
	}
	ids := make([]int32, len(doc))
	for i, s := range doc {
		ids[i] = c.ids[s]
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
	return terms, counts
}

// deriveRow derives every feature of one element except its children's
// token union (unionChildren) and its documentation weights (weigh).
func (c *Context) deriveRow(e *model.Element, t elemTexts) row {
	low := lower(e.Name)
	r := row{
		kind:      e.Kind,
		kids:      len(e.Children()),
		lower:     low,
		runeCodes: c.codeRunes(low),
		name:      c.idSet(t.name),
		expanded:  c.idSet(t.expanded),
		hasDomain: t.hasDomain,
		codes:     c.idSet(t.codes),
	}
	if e.Kind == model.KindAttribute {
		r.typeGroup = typeGroups[lower(e.DataType)]
	}
	r.doc.Terms, r.docCounts = c.docBag(t.doc)
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

// Refresh brings the context up to date with source and target: the
// schemas it holds, edited in place, or new objects for them. It keeps
// the row of every element whose ID it holds a row for and that
// dirtySrc/dirtyTgt do not name — the caller vouches that such an
// element's own content is unchanged, as the engine's signature diff
// proves — and preprocesses every other element. The documents of the
// rows it drops leave the corpus and those of the rows it derives enter
// it; document frequencies are integers, so the corpus equals one built
// from scratch. New strings renumber the ID table, so IDs keep sorting
// like their strings. Every vector is re-weighed when a document bag
// moved (IDF is global), only the derived ones otherwise, and the
// children's token union of every element whose children changed is
// re-derived. Every voter then scores the rows bit-identically to a
// context built fresh over the schemas.
func (c *Context) Refresh(source, target *model.Schema, dirtySrc, dirtyTgt map[string]bool) {
	stems := stemmer{}
	src := c.carry(source, c.src, c.srcRows, dirtySrc, stems)
	tgt := c.carry(target, c.tgt, c.tgtRows, dirtyTgt, stems)
	sides := [...]*carried{src, tgt}
	if remap := c.intern(sides[:]); remap != nil {
		for _, sd := range sides {
			sd.remap(remap)
		}
	}
	moved := src.docLeft || tgt.docLeft
	for _, sd := range sides {
		for k, i := range sd.fresh {
			prev := &sd.rows[i]
			r := c.deriveRow(sd.els[i], sd.texts[k])
			moved = moved || !slices.Equal(r.doc.Terms, prev.doc.Terms) || !slices.Equal(r.docCounts, prev.docCounts)
			*prev = r
		}
	}
	for _, sd := range sides {
		if moved {
			for i := range sd.rows {
				c.weigh(&sd.rows[i])
			}
		} else {
			for _, i := range sd.fresh {
				c.weigh(&sd.rows[i])
			}
		}
		sd.unionChildren()
	}
	c.Source, c.src, c.srcRows = source, src.els, src.rows
	c.Target, c.tgt, c.tgtRows = target, tgt.els, tgt.rows
	c.derivePostings()
	c.deriveMasks()
}

// carried is one side of a Refresh: the schema's elements in pre-order
// and their rows, each carried over from the previous table by ID or,
// when listed in fresh, still to be derived from its texts.
type carried struct {
	els  []*model.Element
	rows []row
	// fresh lists the rows to derive, ascending; texts holds their
	// preprocessed strings, aligned with fresh.
	fresh []int
	texts []elemTexts
	// docLeft reports a dropped element that held a document.
	docLeft bool
}

// carry lines one side's previous rows up with s's elements by ID. Each
// element it holds a row for gets that row; each element dirty names or
// it holds no row for is preprocessed, its previous document (if any)
// leaving the corpus and its new one entering it. The documents of
// elements that left s leave the corpus too.
func (c *Context) carry(s *model.Schema, oldEls []*model.Element, oldRows []row, dirty map[string]bool, stems stemmer) *carried {
	old := make(map[string]int, len(oldEls))
	for i, e := range oldEls {
		old[e.ID] = i
	}
	els := s.Elements()
	// Room for every element on a first build, for the edit's after.
	n := min(max(len(els)-len(oldEls), 0)+len(dirty), len(els))
	sd := &carried{els: els, rows: make([]row, len(els)), fresh: make([]int, 0, n), texts: make([]elemTexts, 0, n)}
	for i, e := range els {
		if oi, ok := old[e.ID]; ok {
			sd.rows[i] = oldRows[oi]
			if !dirty[e.ID] {
				continue
			}
			c.dropDocument(&oldRows[oi])
		}
		t := c.textsOf(s, e, stems)
		if len(t.doc) > 0 {
			c.Corpus.AddDocument(t.doc)
		}
		sd.fresh = append(sd.fresh, i)
		sd.texts = append(sd.texts, t)
	}
	for i, e := range oldEls {
		if s.Element(e.ID) == nil && c.dropDocument(&oldRows[i]) {
			sd.docLeft = true
		}
	}
	return sd
}

// dropDocument takes r's document, if it has one, out of the corpus.
func (c *Context) dropDocument(r *row) bool {
	if len(r.doc.Terms) == 0 {
		return false
	}
	terms := make([]string, len(r.doc.Terms))
	for k, id := range r.doc.Terms {
		terms[k] = c.strs[id]
	}
	c.Corpus.RemoveDocument(terms)
	return true
}

// remap renumbers the IDs of every carried row after intern renumbered
// the table. The map is monotone, so every ID list stays sorted.
func (sd *carried) remap(to []int32) {
	for i := range sd.rows {
		r := &sd.rows[i]
		for _, ids := range [...][]int32{r.name, r.expanded, r.children, r.codes, r.doc.Terms} {
			for k, id := range ids {
				ids[k] = to[id]
			}
		}
	}
}

// unionChildren re-derives the children's token union of every row
// whose children changed: a derived child, or a count that moved (a
// dropped child), which it also brings up to date.
func (sd *carried) unionChildren() {
	parent := parentRows(sd.els)
	redo := make([]bool, len(sd.rows))
	for _, i := range sd.fresh {
		redo[i] = true
		if parent[i] >= 0 {
			redo[parent[i]] = true
		}
	}
	for i, e := range sd.els {
		if kids := len(e.Children()); sd.rows[i].kids != kids {
			sd.rows[i].kids, redo[i] = kids, true
		}
	}
	for i := range sd.rows {
		if redo[i] {
			sd.rows[i].children = nil
		}
	}
	for i, p := range parent {
		if p >= 0 && redo[p] {
			sd.rows[p].children = append(sd.rows[p].children, sd.rows[i].name...)
		}
	}
	for i := range sd.rows {
		if redo[i] {
			sd.rows[i].children = sortedSet(sd.rows[i].children)
		}
	}
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

// CorpusSignature hashes both sides' documentation bags — each
// documented row's terms, as strings, with their counts — in row order.
// The corpus counts only documented elements as documents, so a row
// with no terms adds nothing: adding or dropping an undocumented
// element leaves the signature, and every IDF weight, where it was.
// TF-IDF depends on nothing else, so two contexts with equal signatures
// hold the same corpus and the same vectors; any difference means every
// IDF weight may have moved. It hashes strings, not IDs: IDs belong to
// one context.
func (c *Context) CorpusSignature() uint64 {
	h := fnv.New64a()
	var buf [5]byte
	for _, rows := range [...][]row{c.srcRows, c.tgtRows} {
		for i := range rows {
			r := &rows[i]
			if len(r.doc.Terms) == 0 {
				continue
			}
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
