package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/erwin"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/registry"
)

// Input generation. Every schema the benchmark sends is a registry model
// rendered as `er` text, so it crosses the wire the way an analyst's
// ERWin export would. Ground truth is carried by element path (the
// element ID minus its schema-name prefix), which is what survives the
// render → erwin.Load round trip under a new schema name.

// schemaPair is one generated source/target pair, ready to upload.
type schemaPair struct {
	src, tgt         *model.Schema // parsed from srcText / tgtText
	srcText, tgtText string
	// truth maps source element ID → true target element ID, in the IDs
	// the server assigns (the parsed schemas' IDs).
	truth map[string]string
}

// sizeSpec sets a registry model's size: elements (entities plus
// relationships), attributes and coding-scheme values.
type sizeSpec struct {
	elements, attributes, codes int
}

// sizeOf scales the review pair's proportions (100 elements, 900
// attributes, 1200 codes per 1000) to about n schema elements in total.
func sizeOf(n int) sizeSpec {
	return sizeSpec{elements: n / 10, attributes: n - n/10, codes: n * 6 / 5}
}

// genModel generates one registry model of the given size.
func genModel(seed int64, size sizeSpec) *model.Schema {
	cfg := registry.DefaultConfig()
	cfg.Seed = seed
	cfg.Models = 1
	cfg.ElementsTotal = size.elements
	cfg.AttributesTotal = size.attributes
	cfg.DomainValuesTotal = size.codes
	return registry.Generate(cfg).Models[0]
}

// perturb derives a target from src with the registry's default
// perturbation. Relationship endpoints are re-pointed at the renamed
// target entities: the perturbation copies them verbatim, and an `er`
// file naming an absent entity does not parse.
func perturb(src *model.Schema, seed int64) (*model.Schema, *registry.GroundTruth) {
	pcfg := registry.DefaultPerturb()
	pcfg.Seed = seed
	tgt, gt := registry.Perturb(src, pcfg)
	entityName := func(srcName string) string {
		if t := tgt.Element(gt.Pairs[src.Name+"/"+srcName]); t != nil {
			return t.Name
		}
		return srcName
	}
	for _, e := range tgt.ElementsOfKind(model.KindRelationship) {
		e.Props["from"] = entityName(e.Props["from"])
		e.Props["to"] = entityName(e.Props["to"])
	}
	return tgt, gt
}

// genPair generates a registry model and its perturbation, renders both
// under the given names and parses them back.
func genPair(seed int64, size sizeSpec, srcName, tgtName string) (schemaPair, error) {
	src := genModel(seed, size)
	tgt, gt := perturb(src, seed+1)
	p := schemaPair{truth: map[string]string{}}
	var err error
	if p.srcText, p.src, err = renderParse(src, srcName); err != nil {
		return p, err
	}
	if p.tgtText, p.tgt, err = renderParse(tgt, tgtName); err != nil {
		return p, err
	}
	for s, t := range gt.Pairs {
		p.truth[rebase(s, src.Name, srcName)] = rebase(t, tgt.Name, tgtName)
	}
	return p, nil
}

// renderParse renders s under name and parses the text back, so the
// benchmark holds exactly the schema the server will build from it.
func renderParse(s *model.Schema, name string) (string, *model.Schema, error) {
	text, err := renderER(s, name)
	if err != nil {
		return "", nil, err
	}
	parsed, err := erwin.Load(name, strings.NewReader(text))
	if err != nil {
		return "", nil, fmt.Errorf("parse rendered %s: %w", name, err)
	}
	return text, parsed, nil
}

// rebase moves an element ID from one schema name to another.
func rebase(id, from, to string) string {
	return to + strings.TrimPrefix(id, from)
}

// renderER writes s in the erwin text format under the given schema
// name: domains (sorted), then the root's children in order — entities
// with their attributes, relationships with their endpoints — so the
// parsed schema has the same element order, and therefore the same IDs,
// as s. Names must be single tokens and docs must not hold quotes; the
// registry generator guarantees both, and a violation is an error.
func renderER(s *model.Schema, name string) (string, error) {
	var b strings.Builder
	token := func(t string) error {
		if t == "" || strings.ContainsAny(t, " \t\"{};()") {
			return fmt.Errorf("render %s: %q is not an er token", name, t)
		}
		b.WriteString(t)
		return nil
	}
	doc := func(d string) error {
		if d == "" {
			return nil
		}
		if strings.ContainsAny(d, "\"\n") {
			return fmt.Errorf("render %s: doc %q holds a quote or newline", name, d)
		}
		b.WriteString(` "` + d + `"`)
		return nil
	}
	b.WriteString("schema ")
	if err := token(name); err != nil {
		return "", err
	}
	if err := doc(s.Doc); err != nil {
		return "", err
	}
	b.WriteString("\n")

	domains := make([]string, 0, len(s.Domains))
	for dn := range s.Domains {
		domains = append(domains, dn)
	}
	sort.Strings(domains)
	for _, dn := range domains {
		d := s.Domains[dn]
		b.WriteString("domain ")
		if err := token(dn); err != nil {
			return "", err
		}
		if err := doc(d.Doc); err != nil {
			return "", err
		}
		b.WriteString(" {\n")
		for _, v := range d.Values {
			b.WriteString("  ")
			if err := token(v.Code); err != nil {
				return "", err
			}
			if err := doc(v.Doc); err != nil {
				return "", err
			}
			b.WriteString("\n")
		}
		b.WriteString("}\n")
	}

	for _, e := range s.Root().Children() {
		switch e.Kind {
		case model.KindEntity:
			b.WriteString("entity ")
			if err := token(e.Name); err != nil {
				return "", err
			}
			if err := doc(e.Doc); err != nil {
				return "", err
			}
			if len(e.Children()) == 0 {
				b.WriteString("\n")
				continue
			}
			b.WriteString(" {\n")
			for _, a := range e.Children() {
				if a.Kind != model.KindAttribute || len(a.Children()) > 0 {
					return "", fmt.Errorf("render %s: %s is not a leaf attribute", name, a.ID)
				}
				b.WriteString("  ")
				if err := token(a.Name); err != nil {
					return "", err
				}
				b.WriteString(" ")
				if err := token(a.DataType); err != nil {
					return "", err
				}
				switch {
				case a.Key:
					b.WriteString(" key")
				case a.Required:
					b.WriteString(" required")
				}
				if a.DomainRef != "" {
					b.WriteString(" domain(" + a.DomainRef + ")")
				}
				if err := doc(a.Doc); err != nil {
					return "", err
				}
				b.WriteString("\n")
			}
			b.WriteString("}\n")
		case model.KindRelationship:
			b.WriteString("relationship ")
			for i, t := range []string{e.Name, e.Props["from"], "->", e.Props["to"]} {
				if i > 0 {
					b.WriteString(" ")
				}
				if err := token(t); err != nil {
					return "", err
				}
			}
			if err := doc(e.Doc); err != nil {
				return "", err
			}
			b.WriteString("\n")
		default:
			return "", fmt.Errorf("render %s: unexpected top-level %s %s", name, e.Kind, e.ID)
		}
	}
	return b.String(), nil
}

// score compares published (source, target) pairs against truth.
func score(cells [][2]string, truth map[string]string) eval.PRF {
	pairs := make([]registry.MatchedPair, len(cells))
	for i, c := range cells {
		pairs[i] = registry.MatchedPair{SourceID: c[0], TargetID: c[1]}
	}
	return eval.ScorePairs(pairs, &registry.GroundTruth{Pairs: truth})
}

// microF1 pools the contingency counts of several scored mappings.
func microF1(prfs []eval.PRF) float64 {
	var tp, fp, fn int
	for _, p := range prfs {
		tp, fp, fn = tp+p.TP, fp+p.FP, fn+p.FN
	}
	if tp == 0 {
		return 0
	}
	return 2 * float64(tp) / float64(2*tp+fp+fn)
}

// ---- schema evolution edits (the evolve workload) ----

// Word pools for evolution edits. They overlap the registry's own
// vocabulary so edited elements stay plausible matches.
var (
	editQualifiers = []string{"revised", "legacy", "alternate", "reported", "effective", "planned", "verified", "archived"}
	editNouns      = []string{"code", "status", "remark", "quantity", "date", "owner", "priority", "location", "rate", "category"}
	editDocWords   = []string{"the", "value", "recorded", "for", "each", "unit", "assigned", "by", "authority", "during", "period", "of", "operation", "identifies", "specific", "resource"}
	editTypes      = []string{"string", "int", "decimal", "date", "boolean"}
)

// Edit kinds, in the order evolve cycles through them.
const (
	editRename = iota
	editAdd
	editDrop
	editRedoc
	editKinds
)

// editSchema applies one edit of the given kind to s in place, on a
// seeded element: rename, add or drop an attribute, or rewrite an
// element's doc (the fallback when the schema offers no attribute to
// rename or drop). It returns a short description of the edit.
func editSchema(s *model.Schema, rng *rand.Rand, kind int) string {
	attrs := s.ElementsOfKind(model.KindAttribute)
	entities := s.ElementsOfKind(model.KindEntity)
	freshName := func(parent *model.Element) string {
		taken := map[string]bool{}
		for _, c := range parent.Children() {
			taken[c.Name] = true
		}
		for {
			n := editQualifiers[rng.Intn(len(editQualifiers))] + upperFirst(editNouns[rng.Intn(len(editNouns))])
			if !taken[n] {
				return n
			}
			n += fmt.Sprint(rng.Intn(1000))
			if !taken[n] {
				return n
			}
		}
	}
	sentence := func() string {
		words := make([]string, 6+rng.Intn(7))
		for i := range words {
			words[i] = editDocWords[rng.Intn(len(editDocWords))]
		}
		return strings.Join(words, " ")
	}
	switch {
	case kind == editRename && len(attrs) > 0:
		a := attrs[rng.Intn(len(attrs))]
		old := a.Name
		a.Name = freshName(a.Parent())
		return "rename " + old + " → " + a.Name
	case kind == editAdd && len(entities) > 0:
		e := entities[rng.Intn(len(entities))]
		a := s.AddElement(e, freshName(e), model.KindAttribute, model.ContainsAttribute)
		a.DataType = editTypes[rng.Intn(len(editTypes))]
		a.Doc = sentence()
		return "add " + a.ID
	case kind == editDrop:
		// Drop a non-key attribute of an entity that keeps at least one.
		var victims []*model.Element
		for _, a := range attrs {
			if !a.Key && len(a.Parent().Children()) > 1 {
				victims = append(victims, a)
			}
		}
		if len(victims) > 0 {
			a := victims[rng.Intn(len(victims))]
			s.RemoveElement(a.ID)
			return "drop " + a.ID
		}
	}
	all := s.Elements()
	e := all[rng.Intn(len(all))]
	e.Doc = sentence()
	return "redoc " + e.ID
}

func upperFirst(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// lowDiscrepancy returns the i-th point of a golden-ratio sequence in
// [0,1), offset by u: every prefix of the sequence covers [0,1) nearly
// evenly, so the size mix of a run does not depend on how many ops it
// completed or on the seed.
func lowDiscrepancy(i int, u float64) float64 {
	_, frac := math.Modf(u + float64(i)*0.6180339887498949)
	return frac
}
