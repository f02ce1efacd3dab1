package match

import (
	"strings"
	"unicode/utf8"

	"repro/internal/lingo"
	"repro/internal/model"
)

// Voter is one match strategy: it scores every (source, target) element
// pair with a confidence in (-1, +1) (paper §4: "several match voters are
// invoked, each of which identifies correspondences using a different
// strategy").
type Voter interface {
	// Name identifies the voter in reports and learned-weight tables.
	Name() string
	// Vote returns a confidence matrix over ctx's schemata.
	Vote(ctx *Context) *Matrix
}

// calibrate maps a similarity s in [0,1] to a confidence in (-1,+1)
// around a pivot: similarities above the pivot scale toward +posMax,
// below it toward -negMax. Voters with precise evidence use larger
// magnitudes; weak-signal voters stay near zero so the magnitude-weighted
// merger discounts them automatically.
func calibrate(s, pivot, posMax, negMax float64) float64 {
	if s >= pivot {
		if pivot >= 1 {
			return posMax
		}
		return (s - pivot) / (1 - pivot) * posMax
	}
	if pivot <= 0 {
		return 0
	}
	return (s - pivot) / pivot * negMax
}

// kindCompatible reports whether two element kinds could plausibly
// correspond structurally: entities to entities, attributes to
// attributes, relationships to either entities or relationships (ER
// reification).
func kindCompatible(a, b model.Kind) bool {
	if a == b {
		return true
	}
	return (a == model.KindRelationship && b == model.KindEntity) ||
		(a == model.KindEntity && b == model.KindRelationship)
}

// forEachPair drives a voter body over the matrix's stored pairs (all
// pairs when unblocked; pairs a blocking pattern pruned stay at the
// implicit 0, "no evidence"). m must be a matrix over ctx's own element
// order (NewMatrix, fullMatrix), so its i and j are row indices. Rows are
// sharded across the context's worker pool — each goroutine owns
// disjoint rows of the backing array, so score must only read from the
// context (every built-in voter does).
func forEachPair(ctx *Context, m *Matrix, score scoreFunc) {
	shardRows(ctx.Workers(), len(m.Sources), func(i int) {
		vals := m.vals[i]
		for k, j := range m.pat.Rows[i] {
			vals[k] = votePair(ctx, i, int(j), score)
		}
	})
}

// votePair is the per-cell vote kernel of the full sweep and of
// votePatch: kind-incompatible pairs receive a firm negative vote, every
// other pair the voter's score of source row i and target row j.
func votePair(ctx *Context, i, j int, score scoreFunc) float64 {
	if !kindCompatible(ctx.srcRows[i].kind, ctx.tgtRows[j].kind) {
		return -0.75
	}
	return score(i, j)
}

// NameVoter compares element names: token-set Jaccard blended with
// Jaro-Winkler over the raw names, so both word overlap ("shipTo" vs
// "ship_to") and string closeness ("qty" vs "qnty") contribute.
type NameVoter struct{}

// Name implements Voter.
func (NameVoter) Name() string { return "name" }

// Vote implements Voter.
func (v NameVoter) Vote(ctx *Context) *Matrix { return voteAll(ctx, v.scorer(ctx)) }

// VotePatch implements IncrementalVoter.
func (v NameVoter) VotePatch(ctx *Context, prev *Matrix, dirtySrc, dirtyTgt map[string]bool) *Matrix {
	return votePatch(ctx, prev, dirtySrc, dirtyTgt, v.scorer(ctx))
}

func (NameVoter) scorer(ctx *Context) scoreFunc {
	src, tgt, masks := ctx.srcRows, ctx.tgtRows, &ctx.masks
	return func(i, j int) float64 {
		s, t := &src[i], &tgt[j]
		jac := lingo.JaccardIDs(s.name, t.name)
		jw := lingo.JaroWinklerMasks(s.runeCodes, masks.of(j), len(t.runeCodes))
		sim := 0.6*jac + 0.4*jw
		// Affix containment: "subtotal" contains "total", "deptCode"
		// contains "dept" — strong evidence for abbreviation-heavy names.
		if c := containment(s.lower, len(s.runeCodes), t.lower, len(t.runeCodes)); c > sim {
			sim = c
		}
		return calibrate(sim, 0.45, 0.9, 0.3)
	}
}

// containmentSim scores one name containing the other: the length ratio,
// shifted into the positive band. Names shorter than 4 runes are too
// ambiguous to count — measured in runes, so a 2-character CJK name does
// not slip past the guard on byte length.
func containmentSim(a, b string) float64 {
	return containment(a, utf8.RuneCountInString(a), b, utf8.RuneCountInString(b))
}

// containment is containmentSim given both names' rune counts.
func containment(a string, aLen int, b string, bLen int) float64 {
	short, long := a, b
	shortLen, longLen := aLen, bLen
	if shortLen > longLen {
		short, long = long, short
		shortLen, longLen = longLen, shortLen
	}
	if shortLen < 4 || !strings.Contains(long, short) {
		return 0
	}
	ratio := float64(shortLen) / float64(longLen)
	return 0.5 + 0.45*ratio
}

// lower is an ASCII fast path for name folding, falling back to
// strings.ToLower as soon as a non-ASCII byte appears so that "É", "Ü"
// etc. still fold. A name with no upper-case letter is returned as is.
func lower(s string) string {
	upper := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return strings.ToLower(s)
		}
		upper = upper || c >= 'A' && c <= 'Z'
	}
	if !upper {
		return s
	}
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}

// DocVoter compares documentation bags-of-words using TF-IDF cosine
// (paper §4: "one matcher compares the words appearing in the elements'
// definitions"). Pairs where either side lacks documentation abstain (0).
type DocVoter struct{}

// Name implements Voter.
func (DocVoter) Name() string { return "documentation" }

// Vote implements Voter. An unblocked matrix is scored one source row
// at a time over the context's documentation postings: each of the
// row's terms, in ascending ID order, adds its weight times each
// posting's weight to that posting's cell of the row, so every pair
// sums the products CosineIDs' merge join sums, in the same order, and
// divides by the same norms — bit-identical, without visiting the pairs
// that share no term. A blocked matrix keeps the per-pair kernel: a
// postings walk pays for every target that shares a term with the row,
// not for the few dozen cells the row stores, and at 10,000 elements a
// blocked vote took 490 ms that way against 105 ms per pair (DESIGN §12).
func (v DocVoter) Vote(ctx *Context) *Matrix {
	m := ctx.NewMatrix()
	if m.Sparse() {
		forEachPair(ctx, m, v.scorer(ctx))
		return m
	}
	shardRows(ctx.Workers(), len(m.Sources), func(i int) {
		docRow(ctx, m.vals[i], i)
	})
	return m
}

// docRow fills vals, the zero full row i of a documentation vote,
// through the postings: the row first accumulates each target's dot
// product with source row i, and then each cell gets what votePair over
// the scorer gives it.
func docRow(ctx *Context, vals []float64, i int) {
	s := &ctx.srcRows[i]
	vs := &s.doc
	for k, id := range vs.Terms {
		ws := vs.Weights[k]
		rows, weights := ctx.postings.of(id)
		for x, j := range rows {
			vals[j] += ws * weights[x]
		}
	}
	for j, dot := range vals {
		t := &ctx.tgtRows[j]
		switch {
		case !kindCompatible(s.kind, t.kind):
			vals[j] = -0.75
		case len(vs.Terms) == 0 || len(t.doc.Terms) == 0:
			vals[j] = 0
		default:
			var sim float64
			if vs.Norm != 0 && t.doc.Norm != 0 {
				sim = dot / (vs.Norm * t.doc.Norm)
			}
			vals[j] = calibrate(sim, 0.2, 0.9, 0.2)
		}
	}
}

// VotePatch implements IncrementalVoter. Note the engine only calls it
// when the TF-IDF corpus fingerprint is unchanged — see CorpusSensitive.
// A patch re-scores a few rows and columns, so it keeps the per-pair
// kernel.
func (v DocVoter) VotePatch(ctx *Context, prev *Matrix, dirtySrc, dirtyTgt map[string]bool) *Matrix {
	return votePatch(ctx, prev, dirtySrc, dirtyTgt, v.scorer(ctx))
}

// CorpusSensitive marks that this voter's scores depend on global corpus
// state (IDF over every document), not just the two elements compared.
func (DocVoter) CorpusSensitive() bool { return true }

func (DocVoter) scorer(ctx *Context) scoreFunc {
	src, tgt := ctx.srcRows, ctx.tgtRows
	return func(i, j int) float64 {
		vs, vt := &src[i].doc, &tgt[j].doc
		if len(vs.Terms) == 0 || len(vt.Terms) == 0 {
			return 0 // no evidence either way
		}
		sim := lingo.CosineIDs(*vs, *vt)
		// Documentation matchers have good recall but weaker precision
		// (§4.1): generous positive calibration, soft negative.
		return calibrate(sim, 0.2, 0.9, 0.2)
	}
}

// ThesaurusVoter expands name tokens through the thesaurus before
// comparing (paper §4: "another matcher expands the elements' names using
// a thesaurus").
type ThesaurusVoter struct{}

// Name implements Voter.
func (ThesaurusVoter) Name() string { return "thesaurus" }

// Vote implements Voter.
func (v ThesaurusVoter) Vote(ctx *Context) *Matrix {
	if ctx.Thesaurus == nil {
		return ctx.NewMatrix() // abstain entirely
	}
	return voteAll(ctx, v.scorer(ctx))
}

// VotePatch implements IncrementalVoter.
func (v ThesaurusVoter) VotePatch(ctx *Context, prev *Matrix, dirtySrc, dirtyTgt map[string]bool) *Matrix {
	if ctx.Thesaurus == nil {
		// The full path abstains with an all-zero matrix (no -0.75
		// incompatibility marks), so the patch path must too.
		return ctx.NewMatrix()
	}
	return votePatch(ctx, prev, dirtySrc, dirtyTgt, v.scorer(ctx))
}

func (ThesaurusVoter) scorer(ctx *Context) scoreFunc {
	src, tgt := ctx.srcRows, ctx.tgtRows
	return func(i, j int) float64 {
		// Expansion uses unstemmed tokens (thesauri hold surface forms),
		// derived per element by the context.
		sim := lingo.JaccardIDs(src[i].expanded, tgt[j].expanded)
		// Expansion inflates token sets, so a modest overlap is already
		// meaningful; pivot lower than the raw name voter.
		return calibrate(sim, 0.25, 0.8, 0.1)
	}
}

// DomainVoter compares enumerated domain values (paper §2: "domain values
// are often available and could be better exploited by schema matchers").
// Attributes whose coding schemes overlap strongly are likely the same
// property even when names differ entirely.
type DomainVoter struct{}

// Name implements Voter.
func (DomainVoter) Name() string { return "domain-values" }

// Vote implements Voter.
func (v DomainVoter) Vote(ctx *Context) *Matrix { return voteAll(ctx, v.scorer(ctx)) }

// VotePatch implements IncrementalVoter. Element signatures fold in the
// referenced domain's code list, so a domain edit dirties its referents.
func (v DomainVoter) VotePatch(ctx *Context, prev *Matrix, dirtySrc, dirtyTgt map[string]bool) *Matrix {
	return votePatch(ctx, prev, dirtySrc, dirtyTgt, v.scorer(ctx))
}

func (DomainVoter) scorer(ctx *Context) scoreFunc {
	src, tgt := ctx.srcRows, ctx.tgtRows
	return func(i, j int) float64 {
		s, t := &src[i], &tgt[j]
		if !s.hasDomain || !t.hasDomain {
			return 0 // abstain without evidence
		}
		sim := lingo.OverlapIDs(s.codes, t.codes)
		// Two enumerated attributes with disjoint code sets are real
		// negative evidence; shared coding schemes are strong positives.
		return calibrate(sim, 0.4, 0.95, 0.6)
	}
}

// TypeVoter compares declared data types: a weak signal (many attributes
// share a type), so its magnitudes stay small and the merger discounts it.
type TypeVoter struct{}

// Name implements Voter.
func (TypeVoter) Name() string { return "data-type" }

// Data-type families; 0 is no family.
const (
	typeText uint8 = iota + 1
	typeNumber
	typeTemporal
	typeBoolean
)

// typeGroups buckets concrete type names into comparable families.
var typeGroups = map[string]uint8{
	"string": typeText, "varchar": typeText, "char": typeText, "text": typeText,
	"token": typeText, "normalizedstring": typeText,
	"int": typeNumber, "integer": typeNumber, "smallint": typeNumber,
	"bigint": typeNumber, "decimal": typeNumber, "numeric": typeNumber,
	"float": typeNumber, "double": typeNumber, "real": typeNumber,
	"date": typeTemporal, "datetime": typeTemporal, "time": typeTemporal,
	"timestamp": typeTemporal,
	"bool":      typeBoolean, "boolean": typeBoolean, "bit": typeBoolean,
}

// Vote implements Voter.
func (v TypeVoter) Vote(ctx *Context) *Matrix { return voteAll(ctx, v.scorer(ctx)) }

// VotePatch implements IncrementalVoter.
func (v TypeVoter) VotePatch(ctx *Context, prev *Matrix, dirtySrc, dirtyTgt map[string]bool) *Matrix {
	return votePatch(ctx, prev, dirtySrc, dirtyTgt, v.scorer(ctx))
}

func (TypeVoter) scorer(ctx *Context) scoreFunc {
	src, tgt := ctx.srcRows, ctx.tgtRows
	return func(i, j int) float64 {
		// Only attributes carry a family.
		gs, gt := src[i].typeGroup, tgt[j].typeGroup
		if gs == 0 || gt == 0 {
			return 0
		}
		if gs == gt {
			return 0.15
		}
		return -0.2
	}
}

// StructureVoter compares entities by the names of their children — two
// entities whose attribute sets look alike are likely the same concept
// even when the entity names differ.
type StructureVoter struct{}

// Name implements Voter.
func (StructureVoter) Name() string { return "structure" }

// Vote implements Voter.
func (v StructureVoter) Vote(ctx *Context) *Matrix { return voteAll(ctx, v.scorer(ctx)) }

// VotePatch implements IncrementalVoter. A score here reads the
// *children* of both elements, so callers must dirty an element whenever
// any of its children changed — the engine's dirty-set closure
// (ExpandDirty) takes care of that.
func (v StructureVoter) VotePatch(ctx *Context, prev *Matrix, dirtySrc, dirtyTgt map[string]bool) *Matrix {
	return votePatch(ctx, prev, dirtySrc, dirtyTgt, v.scorer(ctx))
}

func (StructureVoter) scorer(ctx *Context) scoreFunc {
	src, tgt := ctx.srcRows, ctx.tgtRows
	return func(i, j int) float64 {
		s, t := &src[i], &tgt[j]
		if s.kids == 0 || t.kids == 0 {
			return 0
		}
		sim := lingo.JaccardIDs(s.children, t.children)
		return calibrate(sim, 0.35, 0.7, 0.2)
	}
}

// DefaultVoters returns the full Harmony panel in its standard order.
func DefaultVoters() []Voter {
	return []Voter{
		NameVoter{},
		DocVoter{},
		ThesaurusVoter{},
		DomainVoter{},
		TypeVoter{},
		StructureVoter{},
	}
}
